"""nestnash benchmark: seconds to a certified report, per workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process imports ``nestnash`` from
``src/``, writes the workload's game files under ``.perfbench/``, and
calls ``nestnash.cli.main(["solve", ...])`` in-process once per game,
the same path a user runs.  Each call's stdout is captured; right after
each game's first solve, outside the timed region, the report is parsed
strictly and its certificate is recomputed with the library.

Seconds are reported at a reference CPU speed (see ``speed.py``); the
raw wall-clock ``wall_s`` is printed above the JSON line.  ``--trace 0``
prints the end-to-end metrics.  ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics: self time and call counts
of the spans that ``spans.py`` records around each module's public
functions, plus the work counts read off the reports.  A run measures
one pass over the workload's games, however long that takes; ``--seconds``
is accepted for the runner's interface and changes nothing.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import time

# Set-up time is counted from here, before any library is imported.
START = time.perf_counter()

import argparse  # noqa: E402  (imports follow the set-up clock's start)
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

# One process, one BLAS/OpenMP thread: the solver's arrays are small, and
# a single thread keeps timings steady on a shared machine.  Set before
# numpy is first imported.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_CAPS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

# The workload is generated and written this many times and the median
# counts towards set-up, so that one slow disk write does not read as a
# regression.  Builds run in a forked worker, so the generators' memory
# does not count towards the peak of the process that solves.
BUILD_REPEATS = 3
# A game is solved again in later rounds while its solves add up to less
# than REPEAT_S, at most SOLVE_REPEATS times in all; its time is their
# median.
SOLVE_REPEATS = 9
REPEAT_S = 0.8
# A solve spends the whole budget when it runs 4 restarts of regret
# matching and smoothed best response at 4000 iterations each.
SOLVER_BUDGET = 4 * 2 * 4000
MATCH_TOL = 1e-9
CALL_SPANS = (
    "solver.action_values",
    "game.validate_game",
    "hierarchy.check_properties",
    "regret.bayesian_regret",
)
# Stages whose growth exponent in the state count is reported.
EXPONENT_SPANS = (
    "game.validate_game",
    "hierarchy.build_hierarchy",
    "solver.to_agent_form",
    "regret.certify",
)
METHODS = ("zero-sum-lp", "regret-matching", "smoothed-best-response")


@dataclass
class GameResult:
    """One game of one pass: its timed solves and the recheck of its report."""

    label: str
    intervals: list = field(default_factory=list)  # (start, end) per solve
    exit_code: object = None
    text: str = ""  # stdout of the first solve
    problems: list = field(default_factory=list)
    counts: dict | None = None
    # Median seconds of the solves at the reference speed, set at the end.
    seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


def _reject_constant(token):
    raise ValueError(f"non-strict JSON token {token}")


def _key(value) -> str:
    return value if isinstance(value, str) else repr(value)


def _report_profile(game, table: dict):
    """The report's lifted profile, keyed by the game's own labels."""
    from nestnash.game import StrategyProfile

    if table.get("field_level") != "original":
        raise ValueError("report profile is not at the original level")
    strategies = {}
    for i in range(1, game.n + 1):
        atoms = {_key(a): a for a in game.partition_for(i).atoms}
        actions = {_key(a): a for a in game.actions_for(i)}
        rows = table["strategies"][str(i)]
        strategies[i] = {
            atoms[atom]: {actions[a]: p for a, p in dist.items()}
            for atom, dist in rows.items()
        }
    return StrategyProfile(strategies=strategies, field_level="original")


def work_counts(report: dict) -> dict:
    """Deterministic sizes and solver facts from one report."""
    hier = report["hierarchy"]
    solver = report["solver"]
    counts = {
        "states": report["constants"]["states"],
        "action_profiles": report["constants"]["action_profiles"],
        "payoff_classes": hier["payoff_classes"],
        "atoms_original": sum(a["original"] for a in hier["atoms"].values()),
        "atoms_coarse": sum(a["coarse"] for a in hier["atoms"].values()),
        "method": solver["method"],
        "iterations": solver["iterations"],
        "restarts": solver["restarts"],
        "converged": solver["converged"],
    }
    if "discretization" in report:
        counts["net_sizes"] = list(report["discretization"]["net_sizes"])
    return counts


def check_report(case, exit_code, text, hat) -> tuple[list, dict | None]:
    """Independent recheck of one report; returns (problems, work counts).

    A finite game is regenerated from the case and dropped on return.  A
    continuous game is checked on ``hat``, the grid game its solve built.
    """
    from nestnash.regret import certify

    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except ValueError as err:
        return [f"report is not strict JSON: {err}"], None
    continuous = report["config"]["mode"] == "continuous"
    if continuous:
        if hat is None:
            return ["continuous solve built no grid game"], None
        game = hat.game
        block = report["hat_regret"]
    else:
        game = case.make()
        block = report["regret"]
    problems = []
    cert = certify(game, _report_profile(game, report["profile"]), case.epsilon)
    if not abs(cert.max_regret - block["max_regret"]) <= MATCH_TOL:
        problems.append(
            f"max_regret {block['max_regret']!r} but recheck gives {cert.max_regret!r}"
        )
    if cert.passed != block["passed"]:
        problems.append(f"passed {block['passed']} but recheck gives {cert.passed}")
    verdict = report["probe_audit"]["ok"] if continuous else cert.passed
    if verdict != (exit_code == 0):
        problems.append(f"exit code {exit_code} disagrees with the certificate")
    return problems, work_counts(report)


def solve_once(cli, case) -> tuple[float, float, object, str, str]:
    argv = [
        "solve",
        "--game",
        case.path,
        "--epsilon",
        repr(case.epsilon),
        "--seed",
        str(case.solver_seed),
    ]
    out, err = io.StringIO(), io.StringIO()
    # Each solve starts from an empty young generation, so when the
    # collector runs inside it does not depend on the solves before it.
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raising solve is a failed solve, not a crash
            code = "raised"
            err.write(traceback.format_exc())
        end = time.perf_counter()
    return start, end, code, out.getvalue(), err.getvalue()


def run_pass(cli, cases, repeats: int, tracer=None) -> list[GameResult]:
    """Solve every game once, then re-solve the short ones in rounds.

    Repeats are spread over the pass rather than run back to back, so a
    short game's median does not hinge on one spell of CPU speed.  A game
    is not solved again once a solve of it has failed.  Each game's first
    report is rechecked right after its solve, outside the timed region;
    a continuous game is rechecked on the grid game that solve built,
    which ``cli.build_hat_game`` hands over on its way out.
    """
    built = []
    build_hat_game = cli.build_hat_game

    def keep(*args, **kwargs):
        hat = build_hat_game(*args, **kwargs)
        built.append(hat)
        return hat

    cli.build_hat_game = keep
    try:
        results = [GameResult(case.label) for case in cases]
        for round_ in range(repeats):
            for case, result in zip(cases, results):
                spent = sum(e - s for s, e in result.intervals)
                if round_ and (result.exit_code != 0 or spent >= REPEAT_S):
                    continue
                if tracer is not None:
                    tracer.request = case.label
                    tracer.active = True
                try:
                    start, end, code, text, err = solve_once(cli, case)
                finally:
                    if tracer is not None:
                        tracer.active = False
                hat = built.pop() if built else None
                built.clear()
                if code == "raised":
                    lines = err.strip().splitlines() or ["(no message)"]
                    result.problems.append("solve raised: " + lines[-1])
                elif not result.intervals:
                    result.text = text
                    try:
                        problems, result.counts = check_report(case, code, text, hat)
                    except (KeyError, TypeError, ValueError) as exc:
                        problems = [f"report failed the recheck: {exc!r}"]
                    result.problems.extend(problems)
                elif text != result.text:
                    result.problems.append("report changed between repeated solves")
                result.intervals.append((start, end))
                result.exit_code = code
                del hat
    finally:
        cli.build_hat_game = build_hat_game
    return results


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[0]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(games, setup_s: float, peak_kb: int) -> tuple[dict, list[str]]:
    times = [g.seconds for g in games]
    failed = sum(g.failed for g in games)
    pct, tail_value = tail(times)
    metrics = {
        "wall_s": _metric(sum(times), "s"),
        "solve_s_p50": _metric(statistics.median(times), "s"),
        "solve_s_tail": _metric(tail_value, "s"),
        # One pseudo-failure is added, so a clean run reads 1 / (games + 1).
        "fail_frac": _metric((failed + 1) / (len(games) + 1), "ratio"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    raw = sum(statistics.median(e - s for s, e in g.intervals) for g in games)
    notes = [
        f"games {len(games)}, solves {sum(len(g.intervals) for g in games)}, "
        f"failed games {failed}",
        f"wall_s {raw:.4f} s as measured, before scaling to the reference speed",
        f"solve_s_p50 over {len(games)} games; "
        f"solve_s_tail is p{pct:.1f} of {len(games)} games",
    ]
    return metrics, notes


def per_layer(cases, plain, traced, tracer, speedo) -> dict:
    """Self times (at the reference speed), call counts and work counts."""
    from spans import (
        SPAN_NAMES,
        call_counts,
        growth_exponent,
        note_totals,
        self_times,
    )

    scale = {g.label: speedo.scale(*g.intervals[0]) for g in traced}
    calls = call_counts(tracer.spans)
    notes = note_totals(tracer.spans)
    by_name: dict[str, float] = {}
    per_request: dict[str, dict[str, float]] = {}
    for (request, name), seconds in self_times(tracer.spans).items():
        seconds *= scale[request]
        by_name[name] = by_name.get(name, 0.0) + seconds
        per_request.setdefault(name, {})[request] = seconds
    solved = [g.counts for g in traced if g.counts is not None]
    continuous = [c for c in solved if "net_sizes" in c]
    sizes = {case.label: case.states for case in cases}

    def total(key):
        return sum(c[key] for c in solved)

    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = _metric(by_name.get(name, 0.0), "s")
    for name in CALL_SPANS:
        m[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
    m["solver.iterations"] = _metric(total("iterations"), "count")
    m["solver.restarts"] = _metric(total("restarts"), "count")
    m["solver.capped"] = _metric(
        sum(c["iterations"] >= SOLVER_BUDGET for c in solved), "count"
    )
    m["solver.converged_frac"] = _metric(
        total("converged") / max(1, len(solved)), "ratio"
    )
    for method in METHODS:
        m[f"solver.method.{method}"] = _metric(
            sum(c["method"] == method for c in solved), "count"
        )
    m["solver.agents"] = _metric(notes.get("agents", 0), "count")
    m["game.states"] = _metric(total("states"), "count")
    m["hierarchy.atoms_original"] = _metric(total("atoms_original"), "count")
    m["hierarchy.atoms_coarse"] = _metric(total("atoms_coarse"), "count")
    m["hierarchy.payoff_classes"] = _metric(total("payoff_classes"), "count")
    m["discretize.payoff_entries"] = _metric(
        sum(c["states"] * c["action_profiles"] for c in continuous), "count"
    )
    m["discretize.net_points"] = _metric(
        sum(sum(c["net_sizes"]) for c in continuous), "count"
    )
    m["gamefile.bytes_in"] = _metric(notes.get("bytes_in", 0), "bytes")
    m["cli.report_bytes"] = _metric(
        sum(len(g.text.encode()) for g in traced), "bytes"
    )
    for name in EXPONENT_SPANS:
        m[f"{name}.s_exponent"] = _metric(
            growth_exponent(sizes, per_request.get(name, {})), "exponent"
        )
    plain_wall = sum(g.seconds for g in plain)
    traced_wall = sum(g.seconds for g in traced)
    m["trace.overhead_frac"] = _metric(
        (traced_wall - plain_wall) / plain_wall, "ratio"
    )
    m["bench.raw_wall_s"] = _metric(
        sum(e - s for g in plain for s, e in g.intervals), "s"
    )
    m["bench.kernel_ms"] = _metric(
        1e3 * statistics.median(d for _, d in speedo.samples), "ms"
    )
    return m


def counts_differ(plain, traced) -> list[str]:
    """Work counts of each game must be the same with and without tracing."""
    return [
        f"{a.label}: work counts changed between passes"
        for a, b in zip(plain, traced)
        if a.counts != b.counts
    ]


def _import_library():
    sys.path.insert(0, SRC)
    try:
        import nestnash.cli as cli
    except ImportError as err:
        raise SystemExit(f"cannot import nestnash from {SRC}: {err}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"nestnash was imported from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    from speed import Speedometer, pin_to_one_cpu

    pin_to_one_cpu()
    with Speedometer() as speedo:
        cli = _import_library()
        import workloads
        from spans import Tracer

        imported = time.perf_counter()
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True, choices=workloads.NAMES)
        parser.add_argument("--seed", required=True, type=int)
        parser.add_argument("--seconds", required=True, type=float)
        parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
        args = parser.parse_args(argv)

        directory = os.path.join(WORK, f"{args.workload}-{args.seed}")
        builds = []
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            for _ in range(BUILD_REPEATS):
                start = time.perf_counter()
                cases = pool.apply(
                    workloads.build, (args.workload, args.seed, directory)
                )
                builds.append((start, time.perf_counter()))
        finally:
            pool.close()
            pool.join()
        setup_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if args.trace:
            plain = run_pass(cli, cases, 1)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, cases, 1, tracer)
            finally:
                tracer.uninstall()
        else:
            plain = run_pass(cli, cases, SOLVE_REPEATS)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = [plain, traced] if args.trace else [plain]
    for results in passes:
        for game in results:
            game.seconds = statistics.median(
                (e - s) * speedo.scale(s, e) for s, e in game.intervals
            )

    if args.trace:
        metrics = per_layer(cases, plain, traced, tracer, speedo)
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl"))
        notes = [f"traced {len(tracer.spans)} spans"]
        problems = counts_differ(plain, traced)
    else:
        # Set-up: the process up to the end of its imports, less the wait
        # for the sampler to start, plus one build of the workload (the
        # median of BUILD_REPEATS).
        import_s = imported - START - speedo.start_s
        build_s = [e - s for s, e in builds]
        setup_s = import_s * speedo.scale(START, imported) + statistics.median(
            t * speedo.scale(*interval) for t, interval in zip(build_s, builds)
        )
        metrics, notes = end_to_end(plain, setup_s, peak_kb)
        notes.append(
            f"setup_s: imports {import_s:.3f} s, builds "
            + ", ".join(f"{t:.3f}" for t in build_s)
            + " s as measured"
        )
        notes.append(
            f"peak_rss_mb {peak_kb / 1024:.1f} MB after the solves, "
            f"{setup_kb / 1024:.1f} MB when set-up ended"
        )
        problems = []
    kernel_ms = 1e3 * statistics.median(d for _, d in speedo.samples)
    notes.append(f"reference kernel {kernel_ms:.4f} ms median over the run")

    shutil.rmtree(directory)
    games = [g for p in passes for g in p]
    for g in games:
        problems.extend(f"{g.label}: {p}" for p in g.problems)
        if g.exit_code != 0:
            notes.append(f"{g.label}: exit code {g.exit_code}")

    for line in notes + problems:
        print(line)
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": len(games),
        "failed": sum(g.failed for g in games),
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
