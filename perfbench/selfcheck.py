"""Self-check of the benchmark itself, separate from the timed runs.

    python3 perfbench/selfcheck.py [--workload corpus ...] [--seed 1]

1. The frozen generators in ``generators.py`` still reproduce the test
   suite's: the acceptance corpus (``random_nested_game``, seed 20260819,
   100 games) and the compact specs (``random_compact_game``, seed 6, 20
   specs).  ``tests/`` is read, never written: no bytecode is cached.
2. Every work count repeats exactly across two traced runs of each
   workload: the sizes and solver facts in the reports, the span call
   counts, and the counts noted at span boundaries.  A speed-up that
   comes from a smaller problem therefore shows as a changed count.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import importlib.util
import os
import shutil
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (sets the thread caps before numpy loads)

TESTS = os.path.join(run.ROOT, "tests")


def _tests_generators():
    spec = importlib.util.spec_from_file_location(
        "tests_generators", os.path.join(TESTS, "generators.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_generators() -> list[str]:
    import numpy as np

    import generators
    import workloads

    theirs = _tests_generators()
    problems = []
    ours_rng = np.random.default_rng(workloads.CORPUS_SEED)
    their_rng = np.random.default_rng(workloads.CORPUS_SEED)
    for k in range(100):
        if generators.random_nested_game(ours_rng) != theirs.random_nested_game(
            their_rng
        ):
            problems.append(f"random_nested_game differs at corpus game {k}")
            break
    ours_rng = np.random.default_rng(workloads.COMPACT_SEED)
    their_rng = np.random.default_rng(workloads.COMPACT_SEED)
    for k in range(20):
        if generators.random_compact_game(ours_rng) != theirs.random_compact_game(
            their_rng
        ):
            problems.append(f"random_compact_game differs at spec {k}")
            break
    return problems


def traced_counts(cli, cases) -> dict:
    from spans import Tracer, call_counts, note_totals

    tracer = Tracer()
    tracer.install()
    try:
        games = run.run_pass(cli, cases, 1, tracer)
    finally:
        tracer.uninstall()
    return {
        "reports": {g.label: g.counts for g in games},
        "problems": sorted(p for g in games for p in g.problems),
        "calls": dict(call_counts(tracer.spans)),
        "notes": dict(note_totals(tracer.spans)),
    }


def check_counts(cli, name: str, seed: int) -> list[str]:
    import workloads

    directory = os.path.join(run.WORK, f"selfcheck-{name}-{seed}")
    first = traced_counts(cli, workloads.build(name, seed, directory))
    second = traced_counts(cli, workloads.build(name, seed, directory))
    shutil.rmtree(directory)
    problems = [f"{name}: {p}" for p in first["problems"]]
    for key in ("reports", "calls", "notes"):
        if first[key] != second[key]:
            problems.append(f"{name}: {key} counts differ between two runs")
    return problems


def main(argv=None) -> int:
    cli = run._import_library()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", action="append", choices=workloads.NAMES, default=None
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    problems = check_generators()
    print(f"generators: {'ok' if not problems else 'FAILED'}")
    for name in args.workload or workloads.NAMES:
        found = check_counts(cli, name, args.seed)
        print(f"{name}: work counts {'repeat' if not found else 'FAILED'}")
        problems.extend(found)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
