"""Command line interface.

Three subcommands: ``solve`` runs the full pipeline on a game file and
emits a certified report, ``verify`` recomputes the exact regret of a
given profile, and ``hierarchy`` reports the belief hierarchy and its
structural checks without solving.

Exit codes: 0 when the certificate passes, 1 for invalid input, 2 when
the pipeline ran but the certificate fails or the solver did not
converge, 3 for filesystem errors.  Reports are deterministic: same
inputs and flags give byte-identical output, with no timestamps and
sorted JSON keys.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from .discretize import (
    build_hat_game,
    certify_sup_gap,
    probe_harsanyi_regret,
)
from .game import (
    GameFormatError,
    InvalidGameError,
    NestedGame,
    payoff_bound,
    validate_profile,
)
from .gamefile import (
    SchemaError,
    _key_string,
    load_game,
    load_profile,
    profile_to_json,
)
from .hierarchy import Hierarchy, PropertyReport, build_hierarchy, check_properties
from .pipeline import Solution, solve
from .regret import CERT_SLACK, ConsistencyError, RegretReport, certify
from .solver import SolveResult


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input validation failures, exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nestnash", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a game and certify the result")
    solve.add_argument("--game", required=True, help="game file (JSON)")
    solve.add_argument(
        "--epsilon", required=True, type=float, help="target regret bound"
    )
    solve.add_argument(
        "--delta",
        type=float,
        default=None,
        help="belief accuracy (default: epsilon / (2 M |A|))",
    )
    solve.add_argument(
        "--solver-regret",
        type=float,
        default=None,
        help="regret target for the auxiliary solve (default: epsilon / 2)",
    )
    solve.add_argument("--seed", type=int, default=0, help="solver RNG seed")
    solve.add_argument("--out", default=None, help="write the report here")
    solve.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="recompute a profile's exact regret")
    verify.add_argument("--game", required=True, help="game file (JSON)")
    verify.add_argument("--profile", required=True, help="profile file (JSON)")
    verify.add_argument(
        "--epsilon", required=True, type=float, help="regret bound to certify"
    )
    verify.add_argument("--out", default=None, help="write the report here")
    verify.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    verify.set_defaults(func=_cmd_verify)

    hierarchy = sub.add_parser(
        "hierarchy", help="report the belief hierarchy without solving"
    )
    hierarchy.add_argument("--game", required=True, help="game file (JSON)")
    hierarchy.add_argument(
        "--delta", required=True, type=float, help="belief accuracy"
    )
    hierarchy.add_argument("--out", default=None, help="write the report here")
    hierarchy.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    hierarchy.set_defaults(func=_cmd_hierarchy)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except (SchemaError, InvalidGameError, GameFormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except ConsistencyError as err:
        print(f"consistency failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


# Numeric flags: (attribute, whether zero is allowed).
_FLOAT_FLAGS = (("epsilon", False), ("delta", False), ("solver_regret", True))


def _check_flags(args) -> None:
    """Reject non-finite or out-of-range numeric flags before any work."""
    for name, zero_ok in _FLOAT_FLAGS:
        value = getattr(args, name, None)
        if value is None:
            continue
        if not (0.0 <= value < math.inf) or (value == 0.0 and not zero_ok):
            kind = "nonnegative" if zero_ok else "positive"
            flag = "--" + name.replace("_", "-")
            raise GameFormatError(f"{flag} must be finite and {kind}")
    if getattr(args, "seed", 0) < 0:
        raise GameFormatError("--seed must be nonnegative")


# -- report building --------------------------------------------------------

# Version of the report schema; bumped whenever a report field is added,
# removed or changes meaning.
REPORT_VERSION = 2


def _ingestion_block(game: NestedGame) -> dict:
    distinct = sorted({v for vals in game.payoffs.values.values() for v in vals})
    block = {
        "prior": {_key_string(s): game.space.prior[s] for s in game.space.states},
        "payoff_values": distinct,
    }
    if game.space.player_priors is not None:
        block["player_priors"] = {
            str(i): {_key_string(s): p[s] for s in game.space.states}
            for i, p in sorted(game.space.player_priors.items())
        }
    return block


def _hierarchy_block(
    game: NestedGame, hier: Hierarchy, audit: PropertyReport
) -> dict:
    levels = []
    for level in hier.levels:
        levels.append(
            {
                "player": level.player,
                "signals": len(level.signal_support),
                "beliefs": len(level.belief_support),
                "max_l1_gap": level.max_l1_gap,
            }
        )
    checks = [
        {"name": c.name, "player": c.player, "ok": c.ok} for c in audit.checks
    ]
    atoms = {
        str(i): {
            "original": len(game.partition_for(i).atoms),
            "coarse": len(hier.coarse_partition(i).atoms),
        }
        for i in range(1, game.n + 1)
    }
    return {
        "delta": hier.delta,
        "payoff_classes": hier.classes.count,
        "levels": levels,
        "atoms": atoms,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }


def _solver_block(result: SolveResult) -> dict:
    return {
        "method": result.method,
        "iterations": result.iterations,
        "restarts": result.restarts,
        "converged": result.converged,
        "coarse_regret": result.certified_regret,
    }


def _regret_block(report: RegretReport) -> dict:
    witness = None
    if report.witness is not None:
        player, atom, action = report.witness
        witness = {
            "player": player,
            "atom": _key_string(atom),
            "action": _key_string(action),
        }
    return {
        "epsilon": report.epsilon,
        "slack": report.slack,
        "max_regret": report.max_regret,
        "passed": report.passed,
        "witness": witness,
        "harsanyi": {str(i): v for i, v in sorted(report.harsanyi.items())},
        "atoms": [
            {
                "player": e.player,
                "atom": _key_string(e.atom),
                "mass": e.mass,
                "regret": e.regret,
                "best_value": e.best_value,
                "current_value": e.current_value,
            }
            for e in report.atoms
        ],
    }


def _regret_csv(report: RegretReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["player", "atom", "mass", "regret", "best_value", "current_value"]
    )
    for e in report.atoms:
        writer.writerow(
            [
                e.player,
                _key_string(e.atom),
                repr(e.mass),
                repr(e.regret),
                repr(e.best_value),
                repr(e.current_value),
            ]
        )
    return buffer.getvalue()


def _hierarchy_csv(game: NestedGame, hier: Hierarchy) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "player",
            "signals",
            "beliefs",
            "max_l1_gap",
            "original_atoms",
            "coarse_atoms",
        ]
    )
    for level in hier.levels:
        i = level.player
        writer.writerow(
            [
                i,
                len(level.signal_support),
                len(level.belief_support),
                repr(level.max_l1_gap),
                len(game.partition_for(i).atoms),
                len(hier.coarse_partition(i).atoms),
            ]
        )
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_report(report: dict, fmt: str, csv_text: str | None, out: str | None):
    if fmt == "csv":
        if csv_text is None:
            raise GameFormatError("csv output is not available for this command")
        _emit(csv_text, out)
    else:
        _emit(json.dumps(report, sort_keys=True, indent=2, allow_nan=False), out)


def _solve_report(game: NestedGame, mode: str, args) -> tuple[Solution, dict]:
    """Run the pipeline; return its solution and the report blocks that
    finite and continuous solves share."""
    sol = solve(
        game,
        args.epsilon,
        delta=args.delta,
        target=args.solver_regret,
        seed=args.seed,
    )
    return sol, {
        "config": {
            "command": "solve",
            "mode": mode,
            "epsilon": args.epsilon,
            "delta": sol.delta,
            "solver_target": sol.target,
            "seed": args.seed,
            "format_version": REPORT_VERSION,
        },
        "constants": {
            "payoff_bound": sol.payoff_bound,
            "action_profiles": sol.action_profiles,
            "players": game.n,
            "states": len(game.space.states),
        },
        "hierarchy": _hierarchy_block(game, sol.hierarchy, sol.checks),
        "solver": _solver_block(sol.result),
        "profile": profile_to_json(sol.profile),
        "transfer": {
            "delta": sol.delta,
            "coarse_regret": sol.result.certified_regret,
            "bound": sol.transfer_bound,
            "measured_max_regret": sol.report.max_regret,
            "within_bound": sol.report.max_regret <= sol.transfer_bound + CERT_SLACK,
        },
    }


# -- commands ----------------------------------------------------------------


def _solve_finite(game: NestedGame, mode: str, args) -> int:
    sol, doc = _solve_report(game, mode, args)
    doc["ingestion"] = _ingestion_block(game)
    doc["coarse_profile"] = profile_to_json(sol.result.profile)
    doc["regret"] = _regret_block(sol.report)
    _emit_report(doc, args.format, _regret_csv(sol.report), args.out)
    return 0 if sol.report.passed else 2


def _solve_continuous(compact, args) -> int:
    disc = build_hat_game(compact, args.epsilon)
    gap = certify_sup_gap(disc)
    game = disc.game
    sol, doc = _solve_report(game, "continuous", args)
    audit = probe_harsanyi_regret(disc, sol.profile)
    doc["discretization"] = {
        "epsilon": args.epsilon,
        "eta0": disc.eta0,
        "lipschitz": compact.lipschitz,
        "payoff_bound": disc.bound_m,
        "net_sizes": [len(net) for net in disc.nets],
        "truncation": {
            "kept": len(disc.truncation.omega_double_prime),
            "dropped": len(game.space.states)
            - len(disc.truncation.omega_double_prime),
            "kept_mass": disc.truncation.kept_mass,
            "tail_out": disc.truncation.tail_out,
        },
        "gap_certificate": {
            "budget": gap.budget,
            "ok": gap.ok,
            "players": [
                {
                    "player": p.player,
                    "rounding": p.rounding,
                    "net": p.net,
                    "tail_out": p.tail_out,
                    "total": p.total,
                }
                for p in gap.players
            ],
        },
    }
    doc["hat_regret"] = _regret_block(sol.report)
    doc["probe_audit"] = {
        "budget": audit.budget,
        "max_regret": audit.max_regret,
        "ok": audit.ok,
        "players": [{"player": e.player, "regret": e.regret} for e in audit.entries],
    }
    _emit_report(doc, args.format, _regret_csv(sol.report), args.out)
    return 0 if audit.ok else 2


def _cmd_solve(args) -> int:
    loaded = load_game(args.game)
    if loaded.mode == "continuous":
        return _solve_continuous(loaded.compact, args)
    return _solve_finite(loaded.game, loaded.mode, args)


def _cmd_verify(args) -> int:
    loaded = load_game(args.game)
    if loaded.mode == "continuous":
        raise GameFormatError(
            "verify works on finite and types games; solve handles continuous ones"
        )
    game = loaded.game
    epsilon = args.epsilon
    game.require_valid()
    profile = load_profile(args.profile)
    if profile.field_level != "original":
        raise GameFormatError(
            "verify needs a profile on the game's own information "
            "(field_level \"original\"); a coarse profile refers to the "
            "atoms of a belief hierarchy"
        )
    problems = validate_profile(game, profile)
    if problems:
        raise GameFormatError("invalid profile: " + "; ".join(problems))
    report = certify(game, profile, epsilon)
    doc = {
        "config": {
            "command": "verify",
            "mode": loaded.mode,
            "epsilon": epsilon,
            "format_version": REPORT_VERSION,
        },
        "constants": {
            "payoff_bound": payoff_bound(game),
            "players": game.n,
            "states": len(game.space.states),
        },
        "ingestion": _ingestion_block(game),
        "regret": _regret_block(report),
    }
    _emit_report(doc, args.format, _regret_csv(report), args.out)
    return 0 if report.passed else 2


def _cmd_hierarchy(args) -> int:
    loaded = load_game(args.game)
    if loaded.mode == "continuous":
        raise GameFormatError(
            "hierarchy works on finite and types games; solve handles continuous ones"
        )
    game = loaded.game
    hier = build_hierarchy(game, args.delta)
    block = _hierarchy_block(game, hier, check_properties(game, hier))
    doc = {
        "config": {
            "command": "hierarchy",
            "mode": loaded.mode,
            "delta": args.delta,
            "format_version": REPORT_VERSION,
        },
        "constants": {
            "payoff_bound": payoff_bound(game),
            "players": game.n,
            "states": len(game.space.states),
        },
        "ingestion": _ingestion_block(game),
        "hierarchy": block,
    }
    _emit_report(doc, args.format, _hierarchy_csv(game, hier), args.out)
    return 0 if block["ok"] else 2
