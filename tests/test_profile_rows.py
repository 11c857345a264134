"""Profiles built from rows against the same profiles built from dicts.

The solver and the lift build a profile from rows
(``StrategyProfile.from_rows``): per player one array of distributions
and each atom's row index into it.  The loader, the tests and the
benchmark's recheck build profiles from dicts, which are interned as
such rows, and ``game._played_rows`` alone reads them.  Drawn on random
nested games, a profile built both ways must certify alike, column for
column by ``float.hex``, be read as the distinct rows a plain walk over
the atoms' dicts finds, fail with the same errors and write the same
report bytes.  Both lift to rows playing, at each original atom, its
coarse parent's distribution over every action, and the lift refuses
what the certifier refuses, with its error.  The edges of reading play
from dicts (unknown and omitted actions, signed zeros, missing
strategies, the order in which faults are named) are pinned below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from generators import random_nested_game
from nestnash.cli import _dumps
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    _strategies_at,
    validate_profile,
)
from nestnash.gamefile import profile_to_json
from nestnash.hierarchy import build_hierarchy
from nestnash.regret import certify
from nestnash.solver import lift_strategy

SEEDS = st.integers(0, 2**32 - 1)
EDITS = ("none", "signed zero", "omitted zero", "unknown action", "nan row")


def random_rows(rng, game, partitions) -> dict:
    """Per player: the partition's atoms, the game's actions, a table of
    distributions whose first row is pure and whose last repeats it, and
    a random row per atom."""
    rows = {}
    for i, part in enumerate(partitions, start=1):
        acts = game.actions_for(i)
        count = int(rng.integers(1, len(part.ids) + 1))
        table = rng.dirichlet(np.ones(len(acts)), size=count)
        pure = rng.random(count) < 0.4
        pure[0] = True
        table[pure] = np.eye(len(acts))[rng.integers(0, len(acts), int(pure.sum()))]
        table = np.vstack([table, table[:1]])
        rows[i] = (part.ids, acts, table, rng.integers(0, count + 1, len(part.ids)))
    return rows


def dicts_of(rows: dict) -> dict:
    return {
        i: {
            atom: dict(zip(acts, table[r].tolist()))
            for atom, r in zip(atoms, row_of.tolist())
        }
        for i, (atoms, acts, table, row_of) in rows.items()
    }


def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(hexed(k), hexed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    return value


def certificate(game, profile):
    """Every column of the certificate by ``float.hex``, or the error."""
    try:
        report = certify(game, profile, 0.1)
    except GameFormatError as err:
        return str(err)
    players = [vars(p) for p in report.players.values()]
    return hexed([players, report.harsanyi, report.max_regret, report.witness])


def edited(rng, rows: dict, edit: str) -> tuple[dict, dict]:
    """``rows`` with ``edit`` applied to player 1's table, and the dicts
    of the edited rows; for "omitted zero" the dicts omit the actions
    that player 1's atoms play at zero mass."""
    atoms, acts, table, row_of = rows[1]
    table = table.copy()
    played = int(row_of[0])
    if edit == "signed zero":
        # The last row equals the first by value, not by sign.
        table[-1][table[-1] == 0.0] = -0.0
    elif edit == "unknown action":
        acts = acts + ("zz",)
        table = np.hstack([table, np.zeros((len(table), 1))])
    elif edit == "nan row":
        table[played, int(rng.integers(0, len(acts)))] = math.nan
    rows = {**rows, 1: (atoms, acts, table, row_of)}
    dicts = dicts_of(rows)
    if edit == "omitted zero":
        for dist in dicts[1].values():
            for a in [a for a, p in dist.items() if p == 0.0]:
                del dist[a]
    return rows, dicts


@settings(max_examples=examples(80), deadline=None)
@given(seed=SEEDS, edit=st.sampled_from(EDITS))
def test_rows_certify_as_their_dicts(seed, edit):
    rng = np.random.default_rng(seed)
    game = random_nested_game(rng, max_states=40)
    rows, dicts = edited(rng, random_rows(rng, game, game.partitions), edit)
    from_rows = StrategyProfile.from_rows(rows, "original")
    from_dicts = StrategyProfile(strategies=dicts, field_level="original")
    got, want = certificate(game, from_rows), certificate(game, from_dicts)
    assert got == want
    if edit in ("unknown action", "nan row"):
        assert got.startswith("player 1 plays")
        return
    # Both are read as the distinct rows of a plain walk over the atoms
    # in partition order, each with the signs of its first atom's zeros.
    positions = np.arange(len(game.space.states))
    players = range(1, game.n + 1)
    read = _strategies_at(game, from_rows, positions, players)
    want = _strategies_at(game, from_dicts, positions, players)
    for j in players:
        acts, atoms = game.actions_for(j), game.partitions[j - 1].ids
        walk = [tuple(dicts[j][atom].get(a, 0.0) for a in acts) for atom in atoms]
        distinct = list(dict.fromkeys(walk))
        for table, row_of in (read[j], want[j]):
            assert hexed(table.tolist()) == hexed(distinct)
            assert table[row_of].tolist() == [
                list(walk[k]) for k in game.supports[j - 1].atom_index.tolist()
            ]
    if edit != "omitted zero":
        # The dict view is the dicts the rows were written to.
        assert hexed(from_rows.strategies) == hexed(from_dicts.strategies)
        assert from_rows == from_dicts
        assert _dumps(profile_to_json(from_rows), 0) == _dumps(
            profile_to_json(from_dicts), 0
        )


def plain_lift(game, h, dicts: dict) -> dict:
    """Per player, each original atom's coarse parent's dict, by a walk
    over the states."""
    lifted = {}
    for i, part in enumerate(game.partitions, start=1):
        parent = h.coarse_partition(i).atom_of
        of = {atom: parent[s] for s, atom in part.atom_of.items()}
        lifted[i] = {atom: dicts[i][of[atom]] for atom in part.ids}
    return lifted


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=SEEDS,
    delta=st.floats(0.05, 1.0),
    edit=st.sampled_from(("none", "signed zero", "omitted zero")),
)
def test_lifted_rows_are_the_lifted_dicts(seed, delta, edit):
    # Both forms of a coarse profile lift to rows whose dict view plays, at
    # each original atom, its coarse parent's distribution over every
    # action, 0.0 where a dict omits one; with signed zeros, value by value.
    rng = np.random.default_rng(seed)
    game = random_nested_game(rng, max_states=40)
    h = build_hierarchy(game, delta)
    rows, dicts = edited(rng, random_rows(rng, game, h.coarse), edit)
    lifted = lift_strategy(StrategyProfile.from_rows(rows, "coarse"), h)
    old = lift_strategy(StrategyProfile(dicts, field_level="coarse"), h)
    sign = (lambda p: p + 0.0) if edit == "signed zero" else (lambda p: p)
    want = {
        i: {
            atom: {a: sign(dist.get(a, 0.0)) for a in game.actions_for(i)}
            for atom, dist in table.items()
        }
        for i, table in plain_lift(game, h, dicts).items()
    }
    for profile in (lifted, old):
        assert profile.rows is not None
        got = {
            i: {atom: {a: sign(p) for a, p in d.items()} for atom, d in t.items()}
            for i, t in profile.strategies.items()
        }
        assert hexed(got) == hexed(want)
    assert certificate(game, lifted) == certificate(game, old)
    assert _dumps(profile_to_json(lifted), 0) == _dumps(profile_to_json(old), 0)


@settings(max_examples=examples(40), deadline=None)
@given(seed=SEEDS, edit=st.sampled_from(("unknown action", "nan row")))
def test_lift_refuses_what_the_certifier_refuses(seed, edit):
    # A coarse profile playing an action the game lacks, or a row with a
    # NaN at every atom, is refused by the lift with the error the
    # certifier gives for its atom-by-atom copy.
    rng = np.random.default_rng(seed)
    game = random_nested_game(rng, max_states=40)
    h = build_hierarchy(game, 0.2)
    rows = random_rows(rng, game, h.coarse)
    atoms, acts, table, row_of = rows[1]
    if edit == "unknown action":
        acts, table = acts + ("zz",), np.hstack([table, np.zeros((len(table), 1))])
    else:
        table = table.copy()
        table[:, int(rng.integers(0, len(acts)))] = math.nan
    rows[1] = (atoms, acts, table, row_of)
    copy = StrategyProfile(plain_lift(game, h, dicts_of(rows)), "original")
    want = certificate(game, copy)
    assert want.startswith("player 1 plays")
    for coarse in (
        StrategyProfile.from_rows(rows, "coarse"),
        StrategyProfile(dicts_of(rows), field_level="coarse"),
    ):
        with pytest.raises(GameFormatError) as raised:
            lift_strategy(coarse, h)
        assert str(raised.value) == want


@settings(max_examples=examples(40), deadline=None)
@given(seed=SEEDS, delta=st.floats(0.05, 1.0))
def test_missing_coarse_atoms_are_named_player_first(seed, delta):
    # With strategies missing for players 1 and 2, the lift names player
    # 1's first missing coarse atom in partition order.
    rng = np.random.default_rng(seed)
    game = random_nested_game(rng, max_states=40)
    h = build_hierarchy(game, delta)
    dicts = dicts_of(random_rows(rng, game, h.coarse))
    dropped = {}
    for i in (1, 2):
        ids = h.coarse_partition(i).ids
        drop = rng.choice(len(ids), int(rng.integers(1, len(ids) + 1)), False)
        dropped[i] = [ids[k] for k in sorted(drop.tolist())]
        for atom in dropped[i]:
            del dicts[i][atom]
    with pytest.raises(GameFormatError) as raised:
        lift_strategy(StrategyProfile(dicts, field_level="coarse"), h)
    assert str(raised.value) == f"player 1 has no strategy for atom {dropped[1][0]!r}"


def test_certifier_names_the_first_player_lacking_a_strategy():
    # Player 1 lacks 'a2', at the second state, and player 2 lacks 'b0',
    # at the first: the first player's missing atom is named.
    states = ("w0", "w1")
    game = NestedGame(
        space=StateSpace(states, {"w0": 0.5, "w1": 0.5}),
        partitions=(
            InformationPartition(1, {"w0": "a1", "w1": "a2"}),
            InformationPartition(2, {"w0": "b0", "w1": "b0"}),
        ),
        payoffs=PayoffTensor.from_array(
            (("L", "R"), ("U", "D")), states, np.zeros((2, 2, 2, 2))
        ),
    )
    profile = StrategyProfile({1: {"a1": {"L": 1.0}}, 2: {}}, "original")
    message = "^player 1 has no strategy for atom 'a2'$"
    with pytest.raises(GameFormatError, match=message):
        certify(game, profile, 0.1)


# -- edges of reading a profile's play -----------------------------------------
#
# A three-state game whose third state carries no prior, so atom 'a3' of
# player 1 is never played: what a profile says there is not read.


def zero_mass_game():
    states = ("w0", "w1", "w2")
    return NestedGame(
        space=StateSpace(states, {"w0": 0.5, "w1": 0.5, "w2": 0.0}),
        partitions=(
            InformationPartition(1, {"w0": "a1", "w1": "a2", "w2": "a3"}),
            InformationPartition(2, dict.fromkeys(states, "b")),
        ),
        payoffs=PayoffTensor.from_array(
            (("L", "R"), ("U", "D")), states, np.arange(24.0).reshape(2, 3, 2, 2)
        ),
    )


def pure_dicts() -> dict:
    return {
        1: {"a1": {"L": 1.0}, "a2": {"R": 1.0}, "a3": {"L": 1.0}},
        2: {"b": {"U": 0.25, "D": 0.75}},
    }


@pytest.mark.parametrize("atom, refused", [("a2", True), ("a3", False)])
def test_an_unknown_action_at_zero_mass_is_refused_only_where_played(atom, refused):
    game = zero_mass_game()
    dicts = pure_dicts()
    dicts[1][atom] = {**dicts[1][atom], "zz": 0.0}
    profile = StrategyProfile(dicts, "original")
    if refused:
        message = "^player 1 plays unknown action 'zz'$"
        with pytest.raises(GameFormatError, match=message):
            certify(game, profile, 0.1)
    else:
        plain = StrategyProfile(pure_dicts(), "original")
        assert certificate(game, profile) == certificate(game, plain)


def test_an_omitted_action_reads_as_zero():
    game = zero_mass_game()
    listed = {
        i: {
            atom: {a: dist.get(a, 0.0) for a in game.actions_for(i)}
            for atom, dist in table.items()
        }
        for i, table in pure_dicts().items()
    }
    omitted = StrategyProfile(pure_dicts(), "original")
    assert certificate(game, omitted) == certificate(game, StrategyProfile(listed))
    read = _strategies_at(game, omitted, np.arange(3), (1, 2))
    assert hexed(read[1][0].tolist()) == hexed([[1.0, 0.0], [0.0, 1.0]])
    assert read[1][1][:2].tolist() == [0, 1]
    assert hexed(read[2][0].tolist()) == hexed([[0.25, 0.75]])


@pytest.mark.parametrize("first, later", [(-0.0, 0.0), (0.0, -0.0)])
def test_rows_equal_but_for_zero_signs_share_the_first_seen_row(first, later):
    # By dicts and by rows alike: one row, with the bits of the row the
    # first played atom plays, for every played atom.
    game = zero_mass_game()
    dicts = pure_dicts()
    dicts[1] = {
        "a1": {"L": 1.0, "R": first},
        "a2": {"L": 1.0, "R": later},
        "a3": {"L": 1.0, "R": later},
    }
    ids, acts = game.partitions[0].ids, game.actions_for(1)
    table = np.array([[1.0, first], [1.0, later]])
    rows = {1: (ids, acts, table, np.array([0, 1, 1]))}
    rows[2] = (("b",), game.actions_for(2), np.array([[0.25, 0.75]]), np.zeros(1, int))
    for profile in (
        StrategyProfile(dicts, "original"),
        StrategyProfile.from_rows(rows, "original"),
    ):
        played, row_of = _strategies_at(game, profile, np.arange(2), (1,))[1]
        assert hexed(played.tolist()) == hexed([[1.0, first]])
        assert row_of[:2].tolist() == [0, 0]


@pytest.mark.parametrize(
    "strategies, atom",
    [
        # Player 1 has no entry: their first played atom is named.
        ({2: {}}, "a1"),
        # Missing atoms are named in partition order, not in the order of
        # the profile's dict; 'a3' is never played and never named.
        ({1: {"a3": {"L": 1.0}, "a1": {"L": 1.0}}, 2: {}}, "a2"),
    ],
)
def test_the_first_player_then_their_first_missing_atom_is_named(strategies, atom):
    message = f"^player 1 has no strategy for atom '{atom}'$"
    with pytest.raises(GameFormatError, match=message):
        certify(zero_mass_game(), StrategyProfile(strategies, "original"), 0.1)


def test_bad_actions_are_named_in_each_readers_order():
    # ``validate_profile`` walks the dicts as given, the certifier the
    # played atoms in partition order, each atom's dict in its own order,
    # and a mass fault names the first action in the game's order.
    game = zero_mass_game()
    dicts = pure_dicts()
    dicts[1] = {
        "a2": {"yy": 0.0, "R": 1.0},
        "a1": {"zz": 0.0, "yy": 0.0, "L": 1.0},
        "a3": {"L": 1.0},
    }
    profile = StrategyProfile(dicts, "original")
    assert validate_profile(game, profile) == [
        "player 1 atom 'a2' uses unknown action 'yy'",
        "player 1 atom 'a1' uses unknown action 'zz'",
    ]
    with pytest.raises(GameFormatError, match="^player 1 plays unknown action 'zz'$"):
        certify(game, profile, 0.1)
    dicts[1] = {"a2": {"R": 1.0}, "a1": {"R": -0.5, "L": -0.25}, "a3": {"L": 1.0}}
    profile = StrategyProfile(dicts, "original")
    assert validate_profile(game, profile) == [
        "player 1 atom 'a1' distribution has invalid mass -0.5 at action 'R'"
    ]
    message = "^player 1 plays a distribution that has invalid mass -0.25 at action 'L'"
    with pytest.raises(GameFormatError, match=message):
        certify(game, profile, 0.1)
