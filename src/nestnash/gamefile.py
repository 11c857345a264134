"""Strict JSON formats for games and strategy profiles.

One file format, three modes: ``finite`` (explicit states, partitions,
payoff table), ``types`` (product type space with a joint distribution,
expanded to states), and ``continuous`` (finite states, box actions,
polynomial payoffs).  Parsing is strict: unknown fields, missing
fields, wrong shapes, and wrong primitive types are all rejected with
a message naming the offending location.  Nothing is inferred
silently; a file that parses differently tomorrow is a bug today.

A finite game's payoff entries go straight into the game's payoff
array (``PayoffTensor.from_array``): each check runs over a whole
column of entries at once, and only when one fails are the entries
rechecked one by one, so an error still names the first bad entry in
file order, in the same words.  Entries in table order, as every
writer in this project lists them, are told by two list comparisons
and their values reshaped into the array; any other order is keyed by
``(state, profile)`` and stacked by ``game._stack``, the one function
that turns a keyed table into a payoff array (a dict-backed tensor and
``from_type_space`` call it too).

``load_game`` and ``load_profile`` pause the cyclic garbage collector
while they read: the decoded JSON tree is built, parsed and released
with the collector off, and it is switched back on afterwards only if
it was on before, on every exit, errors included.  That loses nothing.
``json`` builds only trees of dicts, lists, strings and numbers, which
hold no reference cycles, so a collection during the decode can free
nothing; it only walks the growing tree, again and again, as the
allocations trip its thresholds.  Any cyclic garbage the parse makes is
collected as usual once the pause ends.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import operator
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from .discretize import CompactGameSpec, Poly
from .game import (
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    _stack,
    from_type_space,
)

FORMAT_VERSION = 1
MODES = ("finite", "types", "continuous")


class SchemaError(GameFormatError):
    """A game or profile file violates the declared format."""


class LoadedGame:
    """Parse result: exactly one of ``game`` and ``compact`` is set."""

    def __init__(
        self,
        mode: str,
        game: NestedGame | None = None,
        compact: CompactGameSpec | None = None,
    ):
        self.mode = mode
        self.game = game
        self.compact = compact


def _expect_object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{where} must be an object")
    return value


def _expect_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where} must be an array")
    return value


def _expect_string(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{where} must be a string")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        raise SchemaError(f"{where} holds a lone surrogate, not Unicode text") from None
    return value


def _expect_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where} is too large to be a float") from None


def _expect_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    return value


def _check_fields(obj: dict, where: str, required: set[str], optional: set[str]):
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaError(f"{where}: unknown field {key!r}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing field {key!r}")


def _parse_header(obj: dict, where: str) -> str:
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise SchemaError(f"{where}: version must be {FORMAT_VERSION}")
    mode = _expect_string(obj.get("mode"), f"{where}.mode")
    if mode not in MODES:
        raise SchemaError(f"{where}.mode must be one of {', '.join(MODES)}")
    return mode


def _parse_states(entries: Any) -> tuple[tuple[str, ...], dict[str, float]]:
    """State ids and the common prior.  The checks run a column at a time;
    when one fails, the rows are rechecked one by one, so the error names
    the first bad row in the same words."""
    rows = _expect_list(entries, "states")
    if not rows:
        raise SchemaError("states must be nonempty")
    if set(map(type, rows)) == {dict} and set(map(len, rows)) == {2}:
        try:
            ids = tuple(map(operator.itemgetter("id"), rows))
            probs = list(map(operator.itemgetter("prob"), rows))
            if (
                set(map(type, ids)) == {str}
                and set(map(type, probs)) <= {float, int}
                and len(set(ids)) == len(ids)
            ):
                "".join(ids).encode("utf-8")
                return ids, dict(zip(ids, map(float, probs)))
        except (KeyError, OverflowError, UnicodeEncodeError):
            pass
    ids: list[str] = []
    prior: dict[str, float] = {}
    for k, row in enumerate(rows):
        where = f"states[{k}]"
        row = _expect_object(row, where)
        _check_fields(row, where, {"id", "prob"}, set())
        sid = _expect_string(row["id"], f"{where}.id")
        if sid in prior:
            raise SchemaError(f"{where}: duplicate state id {sid!r}")
        ids.append(sid)
        prior[sid] = _expect_number(row["prob"], f"{where}.prob")
    return tuple(ids), prior


def _parse_player_keyed(obj: Any, n: int, where: str) -> list[Any]:
    table = _expect_object(obj, where)
    expected = {str(i) for i in range(1, n + 1)}
    if set(table.keys()) != expected:
        raise SchemaError(
            f"{where} must have exactly the keys "
            + ", ".join(repr(str(i)) for i in range(1, n + 1))
        )
    return [table[str(i)] for i in range(1, n + 1)]


def _parse_partitions(
    obj: Any, n: int, states: tuple[str, ...]
) -> tuple[InformationPartition, ...]:
    rows = _parse_player_keyed(obj, n, "partitions")
    out = []
    state_set = set(states)
    for i, row in enumerate(rows, start=1):
        where = f"partitions.{i}"
        row = _expect_object(row, where)
        if row.keys() != state_set:
            raise SchemaError(f"{where} must map every state id exactly once")
        atoms = list(map(row.__getitem__, states))
        try:
            # Raises for a value that is not a string or not Unicode text.
            "".join(atoms).encode("utf-8")
        except (TypeError, UnicodeEncodeError):
            for s, atom in zip(states, atoms):
                _expect_string(atom, f"{where}.{s}")
        out.append(InformationPartition.from_atoms(i, states, atoms))
    return tuple(out)


def _parse_labels(row: Any, where: str, noun: str) -> tuple[str, ...]:
    """A nonempty list of distinct string labels (actions or types)."""
    labels = _expect_list(row, where)
    if not labels:
        raise SchemaError(f"{where} must be nonempty")
    seen: dict[str, None] = {}
    for k, label in enumerate(labels):
        label = _expect_string(label, f"{where}[{k}]")
        if label in seen:
            raise SchemaError(f"{where}: duplicate {noun} {label!r}")
        seen[label] = None
    return tuple(seen)


def _parse_values(row: Any, n: int, where: str) -> tuple[float, ...]:
    """A payoff entry's ``values``: a list of n numbers."""
    row = _expect_list(row, where)
    if len(row) != n:
        raise SchemaError(f"{where} must list {n} numbers")
    return tuple(_expect_number(v, f"{where}[{j}]") for j, v in enumerate(row))


def _parse_actions(obj: Any, n: int) -> tuple[tuple[str, ...], ...]:
    rows = _parse_player_keyed(obj, n, "actions")
    return tuple(
        _parse_labels(row, f"actions.{i}", "action")
        for i, row in enumerate(rows, start=1)
    )


def _count_players(obj: dict, where: str) -> int:
    table = _expect_object(obj.get("partitions"), f"{where}.partitions")
    n = len(table)
    if n < 2:
        raise SchemaError(f"{where}.partitions must list at least two players")
    return n


def _parse_finite(obj: dict) -> LoadedGame:
    _check_fields(
        obj,
        "game",
        {"version", "mode", "states", "partitions", "actions", "payoffs"},
        {"player_priors"},
    )
    states, prior = _parse_states(obj["states"])
    n = _count_players(obj, "game")
    partitions = _parse_partitions(obj["partitions"], n, states)
    actions = _parse_actions(obj["actions"], n)

    player_priors = None
    if "player_priors" in obj:
        rows = _parse_player_keyed(obj["player_priors"], n, "player_priors")
        player_priors = {}
        for i, row in enumerate(rows, start=1):
            where = f"player_priors.{i}"
            row = _expect_object(row, where)
            if set(row.keys()) != set(states):
                raise SchemaError(f"{where} must map every state id exactly once")
            player_priors[i] = {
                s: _expect_number(row[s], f"{where}.{s}") for s in states
            }

    space = StateSpace(states=states, prior=prior, player_priors=player_priors)
    entries = _expect_list(obj["payoffs"], "payoffs")
    payoffs = _payoff_array(entries, states, actions)
    if payoffs is None:
        payoffs = PayoffTensor(actions, _payoff_dict(entries, prior, actions))
    game = NestedGame(space=space, partitions=partitions, payoffs=payoffs)
    return LoadedGame(mode="finite", game=game)


def _payoff_array(
    entries: list, states: tuple[str, ...], actions: tuple[tuple[str, ...], ...]
) -> PayoffTensor | None:
    """The payoff tensor of a well-formed, complete ``payoffs`` list,
    written straight into its array; None for any other list.

    Each check of ``_payoff_dict`` runs over a whole column at once:
    entries are dicts of exactly the three fields, values are lists of
    n ints or floats within range, and the entries cover the cells once
    each.  Table order (``states``, each with its profiles in
    ``itertools.product`` order) is told by two list comparisons, which
    hold only for profiles that are lists of n labels from the right
    sets; the values are then the array, row after row.  Any other order
    keys each entry by ``(state, tuple(profile))``, once every profile
    is a list of n, and ``game._stack`` looks every cell up (a key holds
    only what the file gave, so only strings can match).  When any check
    fails, ``_payoff_dict`` reruns its entry-by-entry checks from the
    first entry, so the error names the first bad entry in file order,
    in that function's words; a list that passes them but misses a cell
    is left to validation.
    """
    n = len(actions)
    shape = (len(states),) + tuple(map(len, actions))
    cells = math.prod(shape)
    if (
        len(entries) != cells
        or set(map(type, entries)) != {dict}
        or set(map(len, entries)) != {3}
    ):
        return None
    try:
        ids = list(map(operator.itemgetter("state"), entries))
        profiles = list(map(operator.itemgetter("profile"), entries))
        rows = list(map(operator.itemgetter("values"), entries))
        if set(map(type, rows)) != {list} or set(map(len, rows)) != {n}:
            return None
        flat = list(itertools.chain.from_iterable(rows))
        if not set(map(type, flat)) <= {float, int}:
            return None
        grid = list(map(list, itertools.product(*actions)))
        by_state = [s for s in states for _ in grid]
        if ids == by_state and profiles == grid * len(states):
            data = np.array(flat, float).reshape(cells, n).T
            return PayoffTensor.from_array(actions, states, data.reshape((n,) + shape))
        if set(map(type, profiles)) != {list} or set(map(len, profiles)) != {n}:
            return None
        values = dict(zip(zip(ids, map(tuple, profiles)), rows))
        if len(values) != cells:
            return None
        table = _stack(values, states, actions)
    except (KeyError, TypeError, OverflowError, GameFormatError):
        return None
    return PayoffTensor.from_array(actions, states, table)


def _payoff_dict(
    entries: list, prior: dict[str, float], actions: tuple[tuple[str, ...], ...]
) -> dict:
    """The ``payoffs`` list as a dict keyed by (state, profile), checked
    entry by entry in file order."""
    n = len(actions)
    known = list(map(set, actions))
    values: dict = {}
    for k, entry in enumerate(entries):
        where = f"payoffs[{k}]"
        entry = _expect_object(entry, where)
        _check_fields(entry, where, {"state", "profile", "values"}, set())
        s = _expect_string(entry["state"], f"{where}.state")
        if s not in prior:
            raise SchemaError(f"{where}: unknown state {s!r}")
        prof = _parse_profile(entry["profile"], n, known, where)
        vals = _parse_values(entry["values"], n, f"{where}.values")
        key = (s, prof)
        if key in values:
            raise SchemaError(f"{where}: duplicate payoff entry for {key!r}")
        values[key] = vals
    return values


def _parse_profile(
    row: Any, n: int, known: Sequence[set[str]] | None, where: str
) -> tuple[str, ...]:
    """Entry ``where``'s action profile: one label per player, each in that
    player's action set when ``known`` holds the sets."""
    row = _expect_list(row, f"{where}.profile")
    if len(row) != n:
        raise SchemaError(f"{where}.profile must list {n} actions")
    prof = []
    for i, label in enumerate(row, start=1):
        label = _expect_string(label, f"{where}.profile[{i - 1}]")
        if known is not None and label not in known[i - 1]:
            raise SchemaError(
                f"{where}: action {label!r} not in player {i}'s action set"
            )
        prof.append(label)
    return tuple(prof)


def _parse_types(obj: dict) -> LoadedGame:
    _check_fields(
        obj,
        "game",
        {"version", "mode", "types", "joint", "payoffs"},
        {"actions"},
    )
    type_rows = _expect_list(obj["types"], "types")
    if len(type_rows) < 2:
        raise SchemaError("types must list at least two players")
    n = len(type_rows)
    type_sets = [
        _parse_labels(row, f"types[{k}]", "type") for k, row in enumerate(type_rows)
    ]

    known_types = list(map(set, type_sets))

    def parse_type_profile(row: Any, where: str) -> tuple[str, ...]:
        row = _expect_list(row, where)
        if len(row) != n:
            raise SchemaError(f"{where} must list {n} types")
        out = []
        for i, label in enumerate(row):
            label = _expect_string(label, f"{where}[{i}]")
            if label not in known_types[i]:
                raise SchemaError(
                    f"{where}: type {label!r} not in player {i + 1}'s type set"
                )
            out.append(label)
        return tuple(out)

    joint = {}
    for k, entry in enumerate(_expect_list(obj["joint"], "joint")):
        where = f"joint[{k}]"
        entry = _expect_object(entry, where)
        _check_fields(entry, where, {"types", "prob"}, set())
        tp = parse_type_profile(entry["types"], f"{where}.types")
        if tp in joint:
            raise SchemaError(f"{where}: duplicate joint entry for {tp!r}")
        joint[tp] = _expect_number(entry["prob"], f"{where}.prob")

    actions = None
    if "actions" in obj:
        action_rows = _expect_list(obj["actions"], "actions")
        if len(action_rows) != n:
            raise SchemaError(f"actions must list {n} players")
        actions = [
            _parse_labels(row, f"actions[{k}]", "action")
            for k, row in enumerate(action_rows)
        ]

    known_actions = None if actions is None else list(map(set, actions))
    payoffs = {}
    for k, entry in enumerate(_expect_list(obj["payoffs"], "payoffs")):
        where = f"payoffs[{k}]"
        entry = _expect_object(entry, where)
        _check_fields(entry, where, {"types", "profile", "values"}, set())
        tp = parse_type_profile(entry["types"], f"{where}.types")
        prof = _parse_profile(entry["profile"], n, known_actions, where)
        vals = _parse_values(entry["values"], n, f"{where}.values")
        key = (tp, prof)
        if key in payoffs:
            raise SchemaError(f"{where}: duplicate payoff entry for {key!r}")
        payoffs[key] = vals

    game = from_type_space(type_sets, joint, payoffs, actions=actions)
    return LoadedGame(mode="types", game=game)


def _parse_continuous(obj: dict) -> LoadedGame:
    _check_fields(
        obj,
        "game",
        {"version", "mode", "states", "partitions", "boxes", "lipschitz", "payoffs"},
        {"payoff_cap"},
    )
    states, prior = _parse_states(obj["states"])
    n = _count_players(obj, "game")
    partitions = _parse_partitions(obj["partitions"], n, states)
    box_rows = _parse_player_keyed(obj["boxes"], n, "boxes")
    box_dims = tuple(
        _expect_int(row, f"boxes.{i}") for i, row in enumerate(box_rows, start=1)
    )
    if any(d < 1 for d in box_dims):
        raise SchemaError("boxes: every dimension must be at least 1")
    lipschitz = _expect_number(obj["lipschitz"], "lipschitz")
    payoff_cap = None
    if "payoff_cap" in obj:
        payoff_cap = _expect_number(obj["payoff_cap"], "payoff_cap")
    total_dim = sum(box_dims)

    payoffs: dict[tuple[str, int], Poly] = {}
    for k, entry in enumerate(_expect_list(obj["payoffs"], "payoffs")):
        where = f"payoffs[{k}]"
        entry = _expect_object(entry, where)
        _check_fields(entry, where, {"state", "player", "monomials"}, set())
        s = _expect_string(entry["state"], f"{where}.state")
        if s not in prior:
            raise SchemaError(f"{where}: unknown state {s!r}")
        player = _expect_int(entry["player"], f"{where}.player")
        if not 1 <= player <= n:
            raise SchemaError(f"{where}.player must be between 1 and {n}")
        monomials = []
        for m, mono in enumerate(_expect_list(entry["monomials"], f"{where}.monomials")):
            mwhere = f"{where}.monomials[{m}]"
            mono = _expect_object(mono, mwhere)
            _check_fields(mono, mwhere, {"coef", "exponents"}, set())
            coef = _expect_number(mono["coef"], f"{mwhere}.coef")
            exps_row = _expect_list(mono["exponents"], f"{mwhere}.exponents")
            if len(exps_row) != total_dim:
                raise SchemaError(
                    f"{mwhere}.exponents must list {total_dim} integers"
                )
            exps = tuple(
                _expect_int(e, f"{mwhere}.exponents[{j}]")
                for j, e in enumerate(exps_row)
            )
            if any(e < 0 for e in exps):
                raise SchemaError(f"{mwhere}.exponents must be nonnegative")
            monomials.append((coef, exps))
        key = (s, player)
        if key in payoffs:
            raise SchemaError(f"{where}: duplicate polynomial for {key!r}")
        payoffs[key] = tuple(monomials)

    for s in states:
        for i in range(1, n + 1):
            if (s, i) not in payoffs:
                raise SchemaError(
                    f"payoffs: missing polynomial for state {s!r}, player {i}"
                )

    compact = CompactGameSpec(
        space=StateSpace(states=states, prior=prior),
        partitions=partitions,
        box_dims=box_dims,
        payoffs=payoffs,
        lipschitz=lipschitz,
        payoff_cap=payoff_cap,
    )
    return LoadedGame(mode="continuous", compact=compact)


def parse_game(obj: Any) -> LoadedGame:
    obj = _expect_object(obj, "game")
    mode = _parse_header(obj, "game")
    if mode == "finite":
        return _parse_finite(obj)
    if mode == "types":
        return _parse_types(obj)
    return _parse_continuous(obj)


def _reject_constant(token: str) -> None:
    raise SchemaError(f"not valid JSON: {token} is not a JSON number")


def _read_json(path: str) -> Any:
    """Parse a file as strict JSON: Python's ``NaN`` and ``Infinity``
    extensions are rejected, naming the token, and so are bytes that are
    not UTF-8 and nesting deeper than the interpreter's recursion limit."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle, parse_constant=_reject_constant)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
            raise SchemaError(f"not valid JSON: {err}") from err


def _load(path: str, parse: Callable[[Any], Any]) -> Any:
    """``parse`` of the file's JSON, with the collector paused (see the
    module docstring).  The decoded tree is dropped when ``parse``
    returns, before the collector's state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return parse(_read_json(path))
    finally:
        if enabled:
            gc.enable()


def load_game(path: str) -> LoadedGame:
    return _load(path, parse_game)


def parse_profile(obj: Any) -> StrategyProfile:
    obj = _expect_object(obj, "profile")
    _check_fields(obj, "profile", {"version", "field_level", "strategies"}, set())
    if obj.get("version") != FORMAT_VERSION:
        raise SchemaError(f"profile: version must be {FORMAT_VERSION}")
    level = _expect_string(obj["field_level"], "profile.field_level")
    if level not in ("original", "coarse"):
        raise SchemaError("profile.field_level must be 'original' or 'coarse'")
    table = _expect_object(obj["strategies"], "profile.strategies")
    strategies: dict = {}
    for player_key, atoms in table.items():
        try:
            player = int(player_key)
        except ValueError:
            raise SchemaError(
                f"profile.strategies: player key {player_key!r} is not an integer"
            ) from None
        if player < 1 or str(player) != player_key:
            raise SchemaError(
                f"profile.strategies: bad player key {player_key!r}"
            )
        atoms = _expect_object(atoms, f"profile.strategies.{player}")
        per_atom = {}
        for atom, dist in atoms.items():
            dist = _expect_object(
                dist, f"profile.strategies.{player}.{atom}"
            )
            per_atom[atom] = {
                a: _expect_number(p, f"profile.strategies.{player}.{atom}.{a}")
                for a, p in dist.items()
            }
        strategies[player] = per_atom
    return StrategyProfile(strategies=strategies, field_level=level)


def load_profile(path: str) -> StrategyProfile:
    return _load(path, parse_profile)


class _RowTable(dict):
    """One player's strategies in a report, atom -> distribution, where
    the distributions are the dicts ``rows``, one per row of the
    profile's array, and ``index`` maps each atom to its row's position
    in ``rows``.  When every row lists the same actions, ``columns``
    holds the rows as one list per action (action -> list); otherwise it
    is None."""

    def __init__(self, keys: list[str], rows: list[dict], row_of: list[int]):
        super().__init__(zip(keys, map(rows.__getitem__, row_of)))
        self.index = dict(zip(keys, row_of))
        acts = rows[0].keys() if rows else None
        same = acts and all(row.keys() == acts for row in rows)
        self.columns = {a: [row[a] for row in rows] for a in acts} if same else None


def profile_to_json(profile: StrategyProfile) -> dict:
    """Report-ready form with string keys and insertion order preserved:
    each row's dict is written once, in a ``_RowTable``."""
    strategies = {}
    for player in sorted(profile.rows):
        atoms, _, _, row_of = profile.rows[player]
        dicts = profile.row_dicts[player]
        dists = [{_key_string(a): float(p) for a, p in d.items()} for d in dicts]
        keys = list(map(_key_string, atoms))
        strategies[str(player)] = _RowTable(keys, dists, row_of.tolist())
    return {
        "version": FORMAT_VERSION,
        "field_level": profile.field_level,
        "strategies": strategies,
    }


def _key_string(value: Any) -> str:
    return value if isinstance(value, str) else repr(value)
