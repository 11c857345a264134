"""Command line interface.

Three subcommands: ``solve`` runs the full pipeline on a game file and
emits a certified report, ``verify`` recomputes the exact regret of a
given profile, and ``hierarchy`` reports the belief hierarchy and its
structural checks without solving.

Exit codes: 0 when the certificate passes, 1 for invalid input, 2 when
the pipeline ran but the certificate fails, 3 for filesystem errors;
whether the solver converged does not change the code.  ``hierarchy``
exits 2 when a structural check fails, after printing its report.  Any
command exits 2 on a ``ConsistencyError`` (a regret below -1e-9, a
broken invariant), with one ``consistency failure:`` line on stderr and
no report.  For a
continuous game the certificate is the box certificate (regret against
every action in the box within epsilon) together with the probe audit.
Reports are deterministic: same inputs and flags give byte-identical
output, with no timestamps.  A JSON report is, byte for byte, what
``json.dumps(report, sort_keys=True, indent=2, allow_nan=False)``
writes; ``_dumps`` produces those bytes through the C encoder.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from collections.abc import Callable, Iterable
from json.encoder import encode_basestring_ascii as encode_key

import numpy as np

from .discretize import (
    build_hat_game,
    certify_box,
    certify_sup_gap,
    coarse_to_fine,
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
    _RowTable,
    load_game,
    load_profile,
    profile_to_json,
)
from .hierarchy import Hierarchy, build_hierarchy
from .pipeline import Solution, solve
from .regret import ConsistencyError, RegretReport, certify, within_bound
from .solver import SolveResult


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input validation failures, exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


@functools.cache
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
REPORT_VERSION = 3


def _keyed(states: tuple, prior: dict) -> dict:
    """``prior`` over ``states`` keyed by ``_key_string``, in one C-level
    pass when every state id is a ``str``."""
    keys = states if set(map(type, states)) <= {str} else map(_key_string, states)
    return dict(zip(keys, map(prior.__getitem__, states)))


def _ingestion_block(game: NestedGame) -> dict:
    # The distinct payoff values, read off the payoff classes' first rows:
    # every row equals its class's first one value by value, and a valid
    # game holds no NaN.  ``+ 0.0`` turns -0.0 into 0.0, so the echo reads
    # the same whatever the order or the sign of the zeros in the file.
    rows = game.payoff_array.take(game.classes.firsts, axis=1)
    ordered = np.sort(rows, axis=None) + 0.0
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    block = {
        "prior": _keyed(game.space.states, game.space.prior),
        "payoff_values": distinct.tolist(),
    }
    if game.space.player_priors is not None:
        block["player_priors"] = {
            str(i): _keyed(game.space.states, p)
            for i, p in sorted(game.space.player_priors.items())
        }
    return block


def _hierarchy_block(hier: Hierarchy) -> dict:
    game = hier.game
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
        {"name": c.name, "player": c.player, "ok": c.ok} for c in hier.audit.checks
    ]
    atoms = {
        str(i): {
            "original": len(game.partition_for(i).ids),
            "coarse": len(hier.coarse_partition(i).ids),
        }
        for i in range(1, game.n + 1)
    }
    return {
        "delta": hier.delta,
        "payoff_classes": game.classes.count,
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


def _atom_columns(report: RegretReport) -> dict[str, list]:
    """The regret block's per-atom rows, which are also the CSV report's,
    as one list per column of ``_REGRET_COLUMNS``, player after player."""
    players = report.players.items()

    def joined(field: str) -> list:
        columns = (getattr(p, field) for _, p in players)
        return list(itertools.chain.from_iterable(columns))

    counts = (itertools.repeat(i, len(p.atoms)) for i, p in players)
    return {
        "player": list(itertools.chain.from_iterable(counts)),
        "atom": list(map(_key_string, joined("atoms"))),
        "mass": joined("mass"),
        "regret": joined("regret"),
        "best_value": joined("best_value"),
        "current_value": joined("current_value"),
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
        "atoms": _Columns(_atom_columns(report)),
    }


# CSV report columns: the regret block's per-atom rows, and the
# hierarchy block's levels joined with its atom counts.
_REGRET_COLUMNS = ("player", "atom", "mass", "regret", "best_value", "current_value")
_HIERARCHY_COLUMNS = (
    "player",
    "signals",
    "beliefs",
    "max_l1_gap",
    "original_atoms",
    "coarse_atoms",
)


def _csv(columns: tuple[str, ...], rows: Iterable[Iterable]) -> str:
    """A header line of ``columns``, then one CSV line per row of values
    in that order.  ``csv`` writes a float as ``str``, which is its
    shortest round-trip ``repr``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _regret_csv(report: RegretReport) -> str:
    return _csv(_REGRET_COLUMNS, zip(*_atom_columns(report).values()))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


class _Columns(dict):
    """A list of report rows held as its columns, key -> list: the k-th
    row is the dict of each key with the k-th entry of its list.
    ``_dumps`` writes the list without building the rows."""


# Writes a list of lists of scalars with every item separated by a line
# break, which no encoded scalar holds, so the text splits back exactly.
_LINE_ENCODER = json.JSONEncoder(allow_nan=False, separators=("\n", ": "))


@functools.cache
def _flat_encoder(depth: int) -> tuple[json.JSONEncoder, str, str]:
    """The encoder for a container at ``depth`` that holds only scalars,
    and the line breaks that open and close its indented body."""
    inner = "\n" + "  " * (depth + 1)
    encoder = json.JSONEncoder(
        sort_keys=True, allow_nan=False, separators=("," + inner, ": ")
    )
    return encoder, inner, "\n" + "  " * depth


def _dumps(obj, depth: int) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` for
    ``obj`` nested ``depth`` levels deep, with the same bytes, through
    the C encoder wherever it can run.

    With ``indent`` set, ``json.dumps`` runs the pure-Python encoder.
    Without it, the C encoder writes a container as its brackets around
    its items joined by the item separator; the separator here is the
    comma plus the line break and indentation ``indent=2`` puts before
    each item, so the only bytes missing are the break after the opening
    bracket and the one before the closing bracket, which are inserted.
    That slicing is safe because an encoded string never holds a raw
    newline, and the two encoders share the rest: key sorting, key
    conversion, ``float.__repr__``, ``int.__repr__`` and
    ``encode_basestring_ascii``.  Empty containers are ``{}`` and ``[]``
    in both.  The C encoder takes each nonempty container that holds
    only scalars; a container of containers is joined here, in sorted
    key order as the stdlib does, and its keys must be strings.  Rows
    held as ``_Columns``, and a profile's ``_RowTable`` whose rows list
    the same actions, are written column by column (``_dumps_columns``).
    """
    if isinstance(obj, dict):
        if isinstance(obj, _Columns):
            return _dumps_columns(obj, depth)
        values = obj.values()
    elif isinstance(obj, (list, tuple)):
        values = obj
    else:
        return _flat_encoder(depth)[0].encode(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    if isinstance(obj, _RowTable) and obj.columns:
        return _dumps_columns(obj.columns, depth, obj.index)
    encoder, inner, close = _flat_encoder(depth)
    if not _any_container(values):
        text = encoder.encode(obj)
        return text[0] + inner + text[1:-1] + close + text[-1]
    if isinstance(obj, dict):
        items = [
            f"{encode_key(key)}: {_dumps(value, depth + 1)}"
            for key, value in sorted(obj.items())
        ]
        return "{" + inner + ("," + inner).join(items) + close + "}"
    items = [_dumps(value, depth + 1) for value in obj]
    return "[" + inner + ("," + inner).join(items) + close + "]"


def _any_container(values) -> bool:
    """Whether any of ``values`` is a dict, list or tuple (subclasses
    included), tested without a Python-level loop."""
    return any(map(isinstance, values, itertools.repeat((dict, list, tuple))))


def _dumps_columns(columns: dict, depth: int, index: dict | None = None) -> str:
    """``_dumps`` of the rows of ``columns`` as a list at ``depth``, with
    the same bytes: the columns, in sorted key order, are encoded as a
    list of lists in one call of the C encoder and split back into one
    item each (between lists at ``"]\\n["``, which only ends a list of
    scalars and starts the next, then at each line break), and each row
    is joined from its items and the fixed text around them
    (``_row_parts``).  A list of no rows is ``[]``.  With ``index``, the
    rows are written as a dict at ``depth`` instead: its keys in sorted
    order, each with the row at its position in ``index``, so a row
    that many keys share is joined once."""
    keys = tuple(sorted(columns))
    if not columns[keys[0]]:
        return "[]"
    _, inner, close = _flat_encoder(depth)
    text = _LINE_ENCODER.encode([columns[key] for key in keys])
    cells = [column.split("\n") for column in text[2:-2].split("]\n[")]
    heads, tail = _row_parts(keys, depth)
    parts = []
    for head, cell in zip(heads, cells):
        parts += (itertools.repeat(head), cell)
    rows = list(map("".join, zip(*parts, itertools.repeat(tail))))
    if index is None:
        return "[" + inner + ("," + inner).join(rows) + close + "]"
    items = [f"{encode_key(key)}: {rows[k]}" for key, k in sorted(index.items())]
    return "{" + inner + ("," + inner).join(items) + close + "}"


@functools.cache
def _row_parts(keys: tuple[str, ...], depth: int) -> tuple[tuple[str, ...], str]:
    """The text before each value of a report row at ``depth`` whose
    sorted ``keys`` are given (the brace or comma, the line break and
    indentation, and the key), and the text that closes the row."""
    _, inner, close = _flat_encoder(depth + 1)
    marks = ["{"] + [","] * (len(keys) - 1)
    heads = (f"{mark}{inner}{encode_key(key)}: " for mark, key in zip(marks, keys))
    return tuple(heads), close + "}"


def _emit_report(
    fmt: str, document: Callable[[], dict], csv_text: Callable[[], str], out: str | None
) -> None:
    """Write the JSON report ``document()`` builds, or for ``--format csv``
    the text ``csv_text()`` builds.  Only the chosen one is built, so
    blocks that only the JSON report holds cost nothing under CSV."""
    if fmt == "csv":
        _emit(csv_text(), out)
    else:
        _emit(_dumps(document(), 0), out)


def _solve(game: NestedGame, args) -> Solution:
    return solve(
        game,
        args.epsilon,
        delta=args.delta,
        target=args.solver_regret,
        seed=args.seed,
    )


def _solve_document(mode: str, args, sol: Solution) -> dict:
    """The report blocks that finite and continuous solves share."""
    game = sol.hierarchy.game
    return {
        "config": {
            "command": "solve",
            "mode": mode,
            "epsilon": args.epsilon,
            "delta": sol.hierarchy.delta,
            "solver_target": sol.result.report.epsilon,
            "seed": args.seed,
            "format_version": REPORT_VERSION,
        },
        "constants": {
            "payoff_bound": payoff_bound(game),
            "action_profiles": math.prod(map(len, game.payoffs.actions)),
            "players": game.n,
            "states": len(game.space.states),
        },
        "hierarchy": _hierarchy_block(sol.hierarchy),
        "solver": _solver_block(sol.result),
        "profile": profile_to_json(sol.profile),
        "transfer": {
            "delta": sol.hierarchy.delta,
            "coarse_regret": sol.result.certified_regret,
            "bound": sol.transfer_bound,
            "measured_max_regret": sol.report.max_regret,
            "within_bound": within_bound(sol.report.max_regret, sol.transfer_bound),
        },
    }


# -- commands ----------------------------------------------------------------


def _solve_finite(game: NestedGame, mode: str, args) -> int:
    sol = _solve(game, args)

    def document() -> dict:
        doc = _solve_document(mode, args, sol)
        doc["ingestion"] = _ingestion_block(game)
        doc["coarse_profile"] = profile_to_json(sol.result.profile)
        doc["regret"] = _regret_block(sol.report)
        return doc

    _emit_report(args.format, document, lambda: _regret_csv(sol.report), args.out)
    return 0 if sol.report.passed else 2


def _solve_continuous(compact, args) -> int:
    """Solve on the coarsest grid whose profile certifies against every
    action in the box, trying the meshes of ``coarse_to_fine`` in turn.
    When none does, the report is the a-priori mesh's, with exit 2."""
    meshes = []
    for mesh in coarse_to_fine(compact, args.epsilon):
        meshes.append(mesh)
        disc = build_hat_game(compact, args.epsilon, mesh)
        game = disc.game
        sol = _solve(game, args)
        box = certify_box(disc, sol.profile)
        if box.ok:
            break

    def document() -> dict:
        gap = certify_sup_gap(disc)
        doc = _solve_document("continuous", args, sol)
        doc["discretization"] = {
            "epsilon": args.epsilon,
            "eta0": disc.eta0,
            "lipschitz": compact.lipschitz,
            "payoff_bound": disc.truncation.bound_m,
            "net_sizes": list(map(len, game.payoffs.actions)),
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
            "budget": box.audit.budget,
            "max_regret": box.audit.max_regret,
            "ok": box.audit.ok,
            "players": [
                {"player": i, "regret": r}
                for i, r in box.audit.certificate.harsanyi.items()
            ],
        }
        doc["box_certificate"] = {
            "budget": box.epsilon,
            "spacing": box.spacing,
            "covering": box.covering,
            "max_regret": box.max_regret,
            "ok": box.ok,
            "meshes": meshes,
            "players": [
                {"player": p.player, "bayesian": p.bayesian, "harsanyi": p.harsanyi}
                for p in box.players
            ],
        }
        return doc

    _emit_report(args.format, document, lambda: _regret_csv(sol.report), args.out)
    return 0 if box.ok and box.audit.ok else 2


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

    def document() -> dict:
        return {
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

    _emit_report(args.format, document, lambda: _regret_csv(report), args.out)
    return 0 if report.passed else 2


def _cmd_hierarchy(args) -> int:
    loaded = load_game(args.game)
    if loaded.mode == "continuous":
        raise GameFormatError(
            "hierarchy works on finite and types games; solve handles continuous ones"
        )
    game = loaded.game
    hier = build_hierarchy(game, args.delta)
    block = _hierarchy_block(hier)

    def document() -> dict:
        return {
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

    def csv_text() -> str:
        # Each level joined with its player's "original" and "coarse" counts.
        atoms = block["atoms"]
        rows = [
            [level[c] for c in _HIERARCHY_COLUMNS[:-2]]
            + [atoms[str(level["player"])][k] for k in ("original", "coarse")]
            for level in block["levels"]
        ]
        return _csv(_HIERARCHY_COLUMNS, rows)

    _emit_report(args.format, document, csv_text, args.out)
    return 0 if block["ok"] else 2
