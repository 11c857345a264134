"""Report bytes: golden digests, entry order, and the JSON encoder
against the stdlib.

``data/report_digests.json`` holds the sha256 of every report the CLI
writes for the small games of ``test_cli``: ``solve`` on all four,
``hierarchy`` and ``verify`` on the three finite ones, each in JSON and
in CSV.  None of those games merges atoms, so it also pins ``solve`` on
two 600-state games whose hierarchy does (``MERGING``), which reach the
quotient, the audit and the lift on hundreds of atoms.  Any change to a report byte fails here, whether it comes from
the encoder, a block's layout or a number the pipeline computes.
Regenerate the file only for a deliberate change of the reports:

    PYTHONPATH=src:tests python tests/test_report_bytes.py --write

The entry-order test writes one finite game in array order and
shuffled, including files whose first zero is -0.0 and 0.0, and checks
that ``solve``, ``verify`` and ``hierarchy`` write the same bytes for
each, in JSON and in CSV.

The encoder test checks ``cli._dumps`` against
``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)`` on
random trees, including the strings and floats where a hand-made
encoder would most likely differ, on blocks of rows, and on profiles
as reports hold them (``profile_to_json``), whose rows the column
writer encodes one player per call; a count test checks that a large
report's rows reach the encoder a block at a time.
"""

import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from generators import noisy_redundant_game, random_nested_game, redundant_game
from nestnash.cli import _dumps, main
from nestnash.game import NestedGame, PayoffTensor, StrategyProfile
from nestnash.gamefile import profile_to_json
from nestnash.pipeline import solve
from nestnash.solver import build_auxiliary_game
from test_cli import (
    ANCHOR_EQUILIBRIUM,
    ANCHOR_GAME,
    CONTINUOUS_GAME,
    MP_GAME,
    TYPES_GAME,
)
from test_gamefile import finite_doc

DATA = os.path.join(os.path.dirname(__file__), "data", "report_digests.json")

GAMES = {
    "mp": MP_GAME,
    "anchor": ANCHOR_GAME,
    "types": TYPES_GAME,
    "continuous": CONTINUOUS_GAME,
}

# A mixed profile on each finite game's own atoms; the anchor's is its
# exact equilibrium, the other two have positive regret.
PROFILES = {
    "mp": {
        "version": 1,
        "field_level": "original",
        "strategies": {
            "1": {"a": {"H": 0.25, "T": 0.75}},
            "2": {"b": {"H": 0.5, "T": 0.5}},
        },
    },
    "anchor": ANCHOR_EQUILIBRIUM,
    "types": {
        "version": 1,
        "field_level": "original",
        "strategies": {
            "1": {
                "t1|s1": {"L": 0.5, "R": 0.5},
                "t2|s1": {"L": 1.0, "R": 0.0},
            },
            "2": {"s1": {"U": 0.25, "D": 0.75}},
        },
    },
}

SOLVE_EPSILON = {"mp": 0.05, "anchor": 0.05, "types": 0.1, "continuous": 0.1}

# Games whose hierarchy merges atoms: 200 player-1 atoms each, coarsened
# to a few (see ``test_merging_games_merge``).
MERGING = {
    "redundant": lambda: redundant_game(np.random.default_rng(7), 600),
    "noisy": lambda: noisy_redundant_game(np.random.default_rng(8), 600, 1e-3),
}
MERGING_EPSILON = 0.05


def _cases(directory: str):
    """(name, argv) for every pinned report, writing its inputs to
    ``directory``."""

    def write(name, doc):
        path = os.path.join(directory, name + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    games = {name: write(name, doc) for name, doc in GAMES.items()}
    profiles = {name: write(name + "-profile", doc) for name, doc in PROFILES.items()}
    merging = {}
    for name, make in MERGING.items():
        game = make()
        keys = itertools.product(game.space.states, game.payoffs.profiles())
        merging[name] = write(name, finite_doc(game, keys, ints=False))
    for fmt in ("json", "csv"):
        for name, path in merging.items():
            yield f"solve-{name}-{fmt}", [
                "solve", "--game", path, "--epsilon", str(MERGING_EPSILON),
            ]
        for name, path in games.items():
            eps = str(SOLVE_EPSILON[name])
            yield f"solve-{name}-{fmt}", ["solve", "--game", path, "--epsilon", eps]
        for name in profiles:
            yield f"hierarchy-{name}-{fmt}", [
                "hierarchy", "--game", games[name], "--delta", "0.2",
            ]
            yield f"verify-{name}-{fmt}", [
                "verify", "--game", games[name], "--profile", profiles[name],
                "--epsilon", "0.05",
            ]


def report_digests(directory: str) -> dict[str, str]:
    """The sha256 of each pinned report, written through ``--out``."""
    digests = {}
    for name, argv in _cases(directory):
        out = os.path.join(directory, name + ".out")
        fmt = name.rsplit("-", 1)[1]
        assert main(argv + ["--format", fmt, "--out", out]) in (0, 2), name
        with open(out, "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def test_reports_match_pinned_digests(tmp_path):
    with open(DATA, encoding="utf-8") as handle:
        pinned = json.load(handle)
    assert report_digests(str(tmp_path)) == pinned


@pytest.mark.parametrize("name", sorted(MERGING))
def test_merging_games_merge(name):
    # Their pinned reports cover the quotient and the lift only while the
    # hierarchy merges states and atoms.
    game = MERGING[name]()
    sol = solve(game, MERGING_EPSILON)
    coarse = sol.hierarchy.coarse_partition(1)
    assert len(coarse.atoms) < len(game.partition_for(1).atoms) // 4
    coarse_game = build_auxiliary_game(sol.hierarchy)
    assert len(coarse_game.space.states) < len(game.space.states)


# -- entry order --------------------------------------------------------------


def _signed_zeros_game(rng):
    """A zero-sum ``redundant_game`` with every other state's payoffs
    negated, so its zero entries read (0.0, -0.0) at some states and
    (-0.0, 0.0) at others."""
    game = redundant_game(rng, 24)
    position = game.space.position
    values = {
        (s, prof): tuple(-v for v in vals) if position[s] % 2 else vals
        for (s, prof), vals in game.payoffs.values.items()
    }
    payoffs = PayoffTensor(game.payoffs.actions, values)
    return NestedGame(game.space, game.partitions, payoffs)


def _first_zero_is_negative(vals) -> bool | None:
    """Whether the first zero of an entry is -0.0; None without a zero."""
    zero = next((v for v in vals if v == 0.0), None)
    return None if zero is None else math.copysign(1.0, zero) < 0


def _entry_orders(game, rng) -> list[list]:
    """The payoff keys in array order, shuffled, and shuffled behind an
    entry whose first zero is -0.0 and behind one whose first zero is
    0.0, when the game has such entries."""
    values = game.payoffs.values
    keys = list(itertools.product(game.space.states, game.payoffs.profiles()))
    shuffled = [keys[k] for k in rng.permutation(len(keys))]
    orders = [keys, shuffled]
    for negative in (True, False):
        firsts = (k for k in shuffled if _first_zero_is_negative(values[k]) is negative)
        first = next(firsts, None)
        if first is not None:
            orders.append([first] + [key for key in shuffled if key != first])
    return orders


@pytest.mark.parametrize("kind", ["nested", "redundant", "signed"])
def test_entry_order_changes_no_report_byte(kind, tmp_path):
    rng = np.random.default_rng(5)
    if kind == "nested":
        game = random_nested_game(rng, max_states=12)
    elif kind == "redundant":
        # Zero-sum: a zero payoff u gives the pair (0.0, -0.0).
        game = redundant_game(rng, 24)
    else:
        game = _signed_zeros_game(rng)
    orders = _entry_orders(game, rng)
    if kind == "signed":
        assert len(orders) == 4
    paths = []
    for k, keys in enumerate(orders):
        paths.append(str(tmp_path / f"game{k}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(finite_doc(game, keys, ints=False), handle)
    # verify reads the lifted profile of the first file's solve.
    solved, profile = str(tmp_path / "solved.json"), str(tmp_path / "profile.json")
    main(["solve", "--game", paths[0], "--epsilon", "0.1", "--out", solved])
    with open(solved, encoding="utf-8") as handle:
        lifted = json.load(handle)["profile"]
    with open(profile, "w", encoding="utf-8") as handle:
        json.dump(lifted, handle)

    def reports(path: str) -> dict:
        """Exit code and bytes of every report on the game file ``path``."""
        got = {}
        for argv in (
            ["solve", "--game", path, "--epsilon", "0.1"],
            ["verify", "--game", path, "--profile", profile, "--epsilon", "0.1"],
            ["hierarchy", "--game", path, "--delta", "0.2"],
        ):
            for fmt in ("json", "csv"):
                out = f"{path}.{argv[0]}.{fmt}"
                code = main(argv + ["--format", fmt, "--out", out])
                with open(out, "rb") as handle:
                    got[argv[0], fmt] = code, handle.read()
        return got

    first = reports(paths[0])
    assert all(reports(path) == first for path in paths[1:])


# -- the encoder against the stdlib -------------------------------------------

_TEXT = st.lists(
    st.one_of(
        st.sampled_from(['"', "\\", "\n", "}", '": {', "é", "☃", "\U0001f600"]),
        st.characters(),
    ),
    max_size=6,
).map("".join)
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-07, 1e16, 5e-324, 1e308, -1.5, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    _FLOATS,
    _TEXT,
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=examples(300), deadline=None)
@given(_TREES)
def test_dumps_matches_the_stdlib(doc):
    assert _dumps(doc, 0) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


# Blocks of rows: containers of 1-5 nonempty dicts of scalars.  The
# texts include the boundary between two rows, as it reads in a block at
# depth 0, and without its indentation.
_ROW_TEXT = st.one_of(_TEXT, st.sampled_from(['},\n    {', '},\n']))
_ROW_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    _FLOATS,
    _ROW_TEXT,
)
_ROWS = st.dictionaries(_ROW_TEXT, _ROW_SCALARS, min_size=1, max_size=4)
_BLOCKS = st.one_of(
    st.lists(_ROWS, min_size=1, max_size=5),
    st.lists(_ROWS, min_size=1, max_size=5).map(tuple),
    st.dictionaries(_ROW_TEXT, _ROWS, min_size=1, max_size=5),
)
# Blocks nested in other containers, beside scalars.
_BLOCK_TREES = st.recursive(
    _BLOCKS,
    lambda inner: st.one_of(
        st.lists(st.one_of(inner, _SCALARS), min_size=1, max_size=3),
        st.dictionaries(_TEXT, st.one_of(inner, _SCALARS), min_size=1, max_size=3),
    ),
    max_leaves=4,
)


@settings(max_examples=examples(300), deadline=None)
@given(_BLOCK_TREES)
def test_dumps_matches_the_stdlib_on_blocks_of_rows(doc):
    assert _dumps(doc, 0) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


# Profiles as a report writes them (``profile_to_json``), built from rows
# and from dicts.  Atom and action ids are strings (escapes included),
# integers or tuples, so some key strings are a ``repr`` and two ids may
# share one; several atoms may play one row; entries include -0.0.
_IDS = st.one_of(_TEXT, st.integers(-2, 2), st.tuples(st.integers(0, 1), _TEXT))
_LEVELS = ("original", "coarse")


@st.composite
def _row_profile(draw):
    rows = {}
    for player in range(1, draw(st.integers(1, 3)) + 1):
        acts = tuple(draw(st.lists(_IDS, min_size=1, max_size=3, unique=True)))
        # A player may have no atoms.
        atoms = tuple(draw(st.lists(_IDS, max_size=5, unique=True)))
        row = st.lists(_FLOATS, min_size=len(acts), max_size=len(acts))
        table = draw(st.lists(row, min_size=1, max_size=3))
        row_of = st.lists(
            st.integers(0, len(table) - 1), min_size=len(atoms), max_size=len(atoms)
        )
        rows[player] = (atoms, acts, np.array(table), np.array(draw(row_of), int))
    return StrategyProfile.from_rows(rows, draw(st.sampled_from(_LEVELS)))


@st.composite
def _dict_profile(draw):
    # Dicts may list different actions of a player's, in any order, or
    # none; atoms may share a dict.
    strategies = {}
    for player in range(1, draw(st.integers(1, 3)) + 1):
        acts = st.sampled_from(draw(st.lists(_IDS, min_size=1, max_size=3)))
        dists = draw(st.lists(st.dictionaries(acts, _FLOATS, max_size=3), min_size=1))
        atoms = draw(st.lists(_IDS, max_size=5, unique=True))
        which = st.integers(0, len(dists) - 1)
        strategies[player] = {atom: dists[draw(which)] for atom in atoms}
    return StrategyProfile(strategies, draw(st.sampled_from(_LEVELS)))


# Profiles nested in other containers, beside scalars.
_PROFILE_TREES = st.recursive(
    st.one_of(_row_profile(), _dict_profile()).map(profile_to_json),
    lambda inner: st.one_of(
        st.lists(st.one_of(inner, _SCALARS), min_size=1, max_size=3),
        st.dictionaries(_TEXT, st.one_of(inner, _SCALARS), min_size=1, max_size=3),
    ),
    max_leaves=3,
)


@settings(max_examples=examples(300), deadline=None)
@given(
    st.one_of(
        st.lists(_PROFILE_TREES, min_size=1, max_size=2),
        st.dictionaries(_TEXT, _PROFILE_TREES, min_size=1, max_size=2),
    )
)
def test_dumps_matches_the_stdlib_on_profiles(doc):
    # At depth 1 or more in the document.
    assert _dumps(doc, 0) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize(
    "doc",
    [
        # An empty dict or a dict holding a container is no row.
        [{}, {"a": 1}],
        [{"a": 1}, {}],
        {"a": {}, "b": {"c": 1}},
        [{"a": 1}, {"b": []}],
        # Subclasses of dict and list count as containers.
        {"b": OrderedDict(z=1, y=[]), "a": [OrderedDict(x=0.5), {"w": None}]},
        [OrderedDict(b=1, a=2), OrderedDict(c=[1])],
    ],
)
def test_dumps_matches_the_stdlib_beside_rows(doc):
    assert _dumps(doc, 0) == json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "tree",
    [
        lambda v: v,
        lambda v: [v],
        lambda v: {"k": v},
        lambda v: {"k": v, "l": []},
        lambda v: {"k": [(1, v)]},
        lambda v: [{"k": v}],
        lambda v: [{"k": 1.0}, {"k": v, "l": 2}],
        lambda v: {"a": {"k": 1.0}, "b": {"k": v}},
    ],
)
def test_dumps_rejects_non_finite_floats(value, tree):
    with pytest.raises(ValueError):
        _dumps(tree(value), 0)


def _encode_calls(monkeypatch, tmp_path, states: int) -> int:
    """How many times the JSON encoder runs while the CLI writes the
    ``solve`` report of a ``redundant_game`` with ``states`` states."""
    game = redundant_game(np.random.default_rng(1), states)
    path = str(tmp_path / f"game{states}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(finite_doc(game, list(game.payoffs.values), ints=False), handle)
    calls = []
    encode = json.JSONEncoder.encode

    def counted(self, obj):
        calls.append(type(obj))
        return encode(self, obj)

    with monkeypatch.context() as patch:
        patch.setattr(json.JSONEncoder, "encode", counted)
        out = path + ".report"
        assert main(["solve", "--game", path, "--epsilon", "0.05", "--out", out]) == 0
    return len(calls)


def test_report_rows_are_encoded_a_block_at_a_time(monkeypatch, tmp_path):
    # The 2,400-state game's report lists several hundred atoms; their
    # rows and strategies go to the encoder one block per call.
    calls = _encode_calls(monkeypatch, tmp_path, 2400)
    assert calls < 100
    assert _encode_calls(monkeypatch, tmp_path, 600) == calls


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as directory:
        digests = report_digests(directory)
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
