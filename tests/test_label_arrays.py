"""The label-array stages against plain per-state oracles.

Validation, the belief hierarchy, its structural audit, the quotient and
the lift read each partition as one integer label array
(``InformationPartition.labels``).  The tests here run them on random
nested games whose partitions list their states in shuffled order, with
zero-prior states of both signs, an optional per-player prior and
integer, tuple or string atom ids, and compare every result with a
reference that walks the per-state dicts one state at a time (the
hierarchy's is ``oracles.ref_hierarchy``).  Each player's support
columns and their per-atom fold are compared with a walk over the atoms.
Hierarchies are also tampered with, so that the audit's witnesses and
the lift's refusal are exercised.
"""

import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from generators import exact_prior, random_nested_game
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    _fold_atoms,
    _refinement_witness,
    validate_game,
)
from nestnash.hierarchy import build_hierarchy, check_properties
from nestnash.solver import build_auxiliary_game, lift_strategy
from oracles import ref_hierarchy
from test_hierarchy import coarse_keys

SEEDS = st.integers(0, 2**32 - 1)

# -- per-state references -------------------------------------------------------


def ref_witness(fine, coarse):
    first = {}
    for state, atom in fine.atom_of.items():
        if atom in first:
            if coarse.atom_of[first[atom]] != coarse.atom_of[state]:
                return (first[atom], state)
        else:
            first[atom] = state
    return None


def ref_first_split_by_atom(part, value_of):
    for members in part.atoms.values():
        for s in members[1:]:
            if value_of[s] != value_of[members[0]]:
                return (members[0], s)
    return None


def hierarchy_fields(h):
    """``ref_hierarchy``'s fields of ``h``, floats as float.hex: label
    arrays as (state, label) pairs in state order, and each atom's belief
    read at its first state, in partition order."""
    states = h.game.space.states

    def by_atom(part, labels):
        at = dict(zip(states, labels.tolist()))
        return [(atom, at[members[0]]) for atom, members in part.atoms.items()]

    levels = [
        (
            list(level.signal_support),
            list(zip(states, level.signals.tolist())),
            [[(z, w.hex()) for z, w in c.items()] for c in level.belief_support],
            list(zip(states, level.beliefs.tolist())),
            by_atom(h.game.partition_for(level.player), level.beliefs),
            level.max_l1_gap.hex(),
        )
        for level in h.levels
    ]
    coarse = [list(part.atom_of.items()) for part in h.coarse]
    return levels, coarse, [list(keys.items()) for keys in coarse_keys(h)]


def ref_checks(game, h):
    out = []
    n = game.n
    for i in range(1, n + 1):
        count = len(h.coarse_partition(i).atoms)
        cap = math.prod(len(h.level(j).belief_support) for j in range(i, n + 1))
        out.append(("finite-support", i, count <= cap, None))
    for i in range(1, n):
        w = ref_witness(h.coarse_partition(i), h.coarse_partition(i + 1))
        out.append(("coarse-chain", i, w is None, w))
    for i in range(1, n + 1):
        w = ref_witness(game.partition_for(i), h.coarse_partition(i))
        out.append(("information-refines-coarse", i, w is None, w))
    states = game.space.states
    for i in range(1, n + 1):
        belief_of = dict(zip(states, h.level(i).beliefs.tolist()))
        w = ref_first_split_by_atom(h.coarse_partition(i), belief_of)
        out.append(("belief-constant-on-atoms", i, w is None, w))
    return out


def ref_quotient(game, h):
    """(states, prior, player priors, partitions) of the quotient."""
    atom_of = h.coarse[0].atom_of
    class_of = dict(zip(game.space.states, h.game.classes.ids.tolist()))
    classes = {}
    for s in game.space.states:
        classes.setdefault((atom_of[s], class_of[s]), []).append(s)
    members = list(classes.values())

    def summed(prior):
        return {m[0]: math.fsum(prior[s] for s in m) for m in members}

    reps = tuple(m[0] for m in members)
    priors = game.space.player_priors or {}
    return (
        reps,
        summed(game.space.prior),
        {i: summed(p) for i, p in priors.items()},
        [{s: part.atom_of[s] for s in reps} for part in h.coarse],
    )


def ref_lift(profile, game, h):
    failed = [check for check in ref_checks(game, h) if not check[2]]
    if failed:
        name, player = failed[0][:2]
        raise GameFormatError(
            f"hierarchy failed its structural audit: {name} for player {player}"
        )
    strategies = {}
    for i in range(1, game.n + 1):
        coarse = h.coarse_partition(i)
        table = {}
        for atom, members in game.partition_for(i).atoms.items():
            (parent,) = {coarse.atom_of[s] for s in members}
            table[atom] = dict(profile.distribution(i, parent))
        strategies[i] = table
    return strategies


def ref_support(game, player):
    """The player's support by a walk over the atoms in partition order:
    each atom's index per state, every atom's mass, then per positive-mass
    atom its id, its mass and its members of positive prior in
    ``atom_of``'s order, as (ids, sizes, positive masses, positions,
    weights)."""
    prior = game.prior_for(player)
    part = game.partition_for(player)
    position = game.space.position
    order = {atom: k for k, atom in enumerate(part.atoms)}
    atom_index = [order[part.atom_of[s]] for s in game.space.states]
    masses, ids, sizes, positive, positions, weights = [], [], [], [], [], []
    for atom, members in part.atoms.items():
        mass = math.fsum(prior[s] for s in members)
        masses.append(mass)
        if mass > 0.0:
            kept = [s for s in members if prior[s] > 0.0]
            ids.append(atom)
            sizes.append(len(kept))
            positive.append(mass)
            positions += [position[s] for s in kept]
            weights += [prior[s] for s in kept]
    return atom_index, masses, (ids, sizes, positive, positions, weights)


def ref_fold(weights, sizes, masses, by_state):
    """The per-atom fold as one loop over the atoms: per column, the fsum
    of the atom's prior-weighted values divided by its mass."""
    columns = (np.array(weights)[:, None] * by_state).T.tolist()
    out, start = [], 0
    for size, mass in zip(sizes, masses):
        stop = start + size
        out.append([math.fsum(col[start:stop]) / mass for col in columns])
        start = stop
    return out


def ref_messages(game):
    """Messages of the prior, partition and nestedness checks, in order."""
    states = game.space.states
    out = []

    def prior_check(label, prior):
        missing = [s for s in states if s not in prior]
        extra = [s for s in prior if s not in set(states)]
        if missing:
            out.append(f"{label} missing mass for state {missing[0]!r}")
        if extra:
            out.append(f"{label} assigns mass to unknown state {extra[0]!r}")
        if missing or extra:
            return
        for s in states:
            if not math.isfinite(prior[s]) or prior[s] < 0:
                out.append(f"{label} has invalid mass {prior[s]!r} at state {s!r}")
                return
        total = math.fsum(prior[s] for s in states)
        if abs(total - 1.0) > 1e-12:
            out.append(f"{label} sums to {total:.12g}")

    prior_check("prior", game.space.prior)
    for player, prior in (game.space.player_priors or {}).items():
        prior_check(f"player {player} prior", prior)
    broken = False
    for idx, part in enumerate(game.partitions, start=1):
        for s in states:
            if s not in part.atom_of:
                out.append(f"player {idx} partition misses state {s!r}")
                broken = True
                break
        for s in part.atom_of:
            if s not in set(states):
                out.append(f"player {idx} partition covers unknown state {s!r}")
                broken = True
                break
    if broken:
        return out
    for i in range(1, game.n):
        w = ref_witness(game.partitions[i - 1], game.partitions[i])
        if w is not None:
            out.append(
                f"nestedness fails at player {i}: states {w[0]!r} and {w[1]!r} "
                f"share player {i}'s atom but not player {i + 1}'s"
            )
    return out


# -- random games ---------------------------------------------------------------


def _ids(rng, atoms, kind):
    """A fresh id per atom: its string, a distinct int or a tuple."""
    ints = rng.permutation(len(atoms)).tolist()
    if kind == "int":
        return dict(zip(atoms, ints))
    if kind == "tuple":
        return {a: (k % 3, k) for a, k in zip(atoms, ints)}
    return {a: a for a in atoms}


def shuffled(rng, part, kind="str"):
    """``part`` with its states listed in a random order and its atoms
    renamed as ``kind`` says."""
    rename = _ids(rng, list(dict.fromkeys(part.atom_of.values())), kind)
    order = rng.permutation(len(part.atom_of)).tolist()
    keys = list(part.atom_of)
    return InformationPartition(
        part.player, {keys[k]: rename[part.atom_of[keys[k]]] for k in order}
    )


def random_partition(rng, player, states, kind="str"):
    labels = rng.integers(0, max(1, len(states) // 3), len(states)).tolist()
    part = InformationPartition(player, {s: f"r{g}" for s, g in zip(states, labels)})
    return shuffled(rng, part, kind)


def variant(seed: int) -> NestedGame:
    """A random nested game with two payoff classes, shuffled partitions,
    some zero-prior states, possibly a per-player prior, and str, int or
    tuple atom ids."""
    rng = np.random.default_rng(seed)
    base = random_nested_game(rng, max_states=24)
    states = base.space.states
    kind = ("str", "int", "tuple")[int(rng.integers(3))]

    def prior():
        weights = rng.dirichlet(np.ones(len(states)))
        # Zeros of both signs: -0.0 is a valid prior mass.
        weights[rng.random(len(states)) < 0.3] = rng.choice([0.0, -0.0])
        weights[-1] = max(weights[-1], 0.1)
        probs = exact_prior(weights / math.fsum(weights), states)
        return {s: probs[s] for s in rng.permutation(states).tolist()}

    player_priors = None
    if rng.random() < 0.5:
        player_priors = {int(rng.integers(1, base.n + 1)): prior()}
    # Two payoff classes, so that the quotient merges states.
    rows = rng.integers(0, 2, len(states))
    table = base.payoff_array.take(rows, axis=1)
    return NestedGame(
        space=StateSpace(states=states, prior=prior(), player_priors=player_priors),
        partitions=tuple(shuffled(rng, part, kind) for part in base.partitions),
        payoffs=PayoffTensor.from_array(base.payoffs.actions, states, table),
    )


def tampered(rng, game, h):
    """``h`` with random coarse partitions and random belief labels, so
    that every audit check and the lift can fail."""
    states = game.space.states
    coarse = tuple(
        random_partition(rng, i, states, ("str", "int")[int(rng.integers(2))])
        if rng.random() < 0.6
        else part
        for i, part in enumerate(h.coarse, start=1)
    )
    levels = []
    for level in h.levels:
        if rng.random() < 0.5:
            beliefs = rng.integers(0, 3, len(states))
            level = dataclasses.replace(level, beliefs=beliefs)
        levels.append(level)
    return dataclasses.replace(h, coarse=coarse, levels=tuple(levels))


DELTAS = st.sampled_from([1e-9, 0.3, 2.5])

# -- the tests ------------------------------------------------------------------


@settings(max_examples=examples(60), deadline=None)
@given(seed=SEEDS, delta=DELTAS)
def test_hierarchy_matches_the_dict_walk(seed, delta):
    game = variant(seed)
    levels, coarse, keys = ref_hierarchy(game, delta)
    expected = [
        (
            support,
            list(signal_of.items()),
            [[(z, w.hex()) for z, w in c.items()] for c in centres],
            list(belief_of.items()),
            list(atom_belief.items()),
            gap.hex(),
        )
        for support, signal_of, centres, belief_of, atom_belief, gap in levels
    ]
    assert hierarchy_fields(build_hierarchy(game, delta)) == (
        expected,
        [list(c.items()) for c in coarse],
        [list(k.items()) for k in keys],
    )


@settings(max_examples=examples(60), deadline=None)
@given(seed=SEEDS, delta=DELTAS, in_order=st.booleans())
def test_a_player_whose_beliefs_merge_nothing_keeps_their_own_partition(
    seed, delta, in_order
):
    game = variant(seed)
    states = game.space.states
    if in_order:
        game = dataclasses.replace(
            game,
            partitions=tuple(
                InformationPartition(part.player, {s: part.atom_of[s] for s in states})
                for part in game.partitions
            ),
        )
    h = build_hierarchy(game, delta)
    kept = []
    for i, (coarse, own) in enumerate(zip(h.coarse, game.partitions), start=1):
        tails = set(zip(*(level.beliefs.tolist() for level in h.levels[i - 1 :])))
        kept.append(len(tails) == len(set(own.atom_of.values())))
        assert (coarse is own) == kept[-1], i
    merges_no_state = ref_quotient(game, h)[0] == states
    assert (build_auxiliary_game(h) is game) == (all(kept) and merges_no_state)


@settings(max_examples=examples(60), deadline=None)
@given(seed=SEEDS)
def test_refinement_witness_matches_the_dict_walk(seed):
    rng = np.random.default_rng(seed)
    game = variant(seed)
    states = game.space.states
    parts = list(game.partitions) + [
        random_partition(rng, 1, states, kind) for kind in ("str", "int", "tuple")
    ]
    for fine in parts:
        for coarse in parts:
            assert _refinement_witness(fine, coarse) == ref_witness(fine, coarse)


@settings(max_examples=examples(60), deadline=None)
@given(seed=SEEDS, delta=DELTAS)
def test_audit_matches_the_dict_walk(seed, delta):
    game = variant(seed)
    h = build_hierarchy(game, delta)
    rng = np.random.default_rng(seed)
    for hierarchy in (h, tampered(rng, game, h)):
        got = [
            (c.name, c.player, c.ok, c.witness)
            for c in check_properties(hierarchy).checks
        ]
        assert got == ref_checks(game, hierarchy)


@settings(max_examples=examples(60), deadline=None)
@given(seed=SEEDS, delta=DELTAS)
def test_quotient_matches_the_dict_walk(seed, delta):
    game = variant(seed)
    h = build_hierarchy(game, delta)
    coarse = build_auxiliary_game(h)
    reps, prior, player_priors, partitions = ref_quotient(game, h)
    kept_all = reps == game.space.states
    if kept_all and all(map(operator.is_, h.coarse, game.partitions)):
        assert coarse is game
        return

    def exact(d):
        return [(s, v.hex()) for s, v in d.items()]

    space = coarse.space
    assert space.states == reps
    assert exact(space.prior) == exact(prior)
    assert {i: exact(p) for i, p in (space.player_priors or {}).items()} == {
        i: exact(p) for i, p in player_priors.items()
    }
    # Atoms in order of first appearance among the kept states or, when
    # every state is kept, in each coarse partition's own order.
    for got, part, want in zip(coarse.partitions, h.coarse, partitions):
        assert got.atom_of == want
        order = tuple(dict.fromkeys(want.values()))
        assert got.ids == (part.ids if kept_all else order)
    position = game.space.position
    table = game.payoff_array[:, [position[s] for s in reps]]
    assert coarse.payoff_array.tobytes() == table.tobytes()


@settings(max_examples=examples(60), deadline=None)
@given(seed=SEEDS, delta=DELTAS)
def test_lift_matches_the_dict_walk(seed, delta):
    game = variant(seed)
    h = build_hierarchy(game, delta)
    rng = np.random.default_rng(seed)
    for hierarchy in (h, tampered(rng, game, h)):
        profile = StrategyProfile(
            {
                i: {
                    atom: dict(zip(acts, rng.dirichlet(np.ones(len(acts))).tolist()))
                    for atom in hierarchy.coarse_partition(i).atoms
                }
                for i, acts in enumerate(game.payoffs.actions, start=1)
            },
            field_level="coarse",
        )
        try:
            expected = ref_lift(profile, game, hierarchy)
        except GameFormatError as err:
            with pytest.raises(GameFormatError) as raised:
                lift_strategy(profile, hierarchy)
            assert str(raised.value) == str(err)
            continue
        lifted = lift_strategy(profile, hierarchy).strategies
        assert [list(t.items()) for t in lifted.values()] == [
            list(t.items()) for t in expected.values()
        ]


def hexes(values):
    return [v.hex() for v in values]


@settings(max_examples=examples(60), deadline=None)
@given(seed=SEEDS)
def test_support_columns_match_the_atom_walk(seed):
    game = variant(seed)
    rng = np.random.default_rng(seed)
    for i, support in enumerate(game.supports, start=1):
        atom_index, masses, columns = ref_support(game, i)
        ids, sizes, positive, positions, weights = columns
        assert support.atom_index.tolist() == atom_index
        assert hexes(support.masses.tolist()) == hexes(masses)
        assert support.ids == tuple(ids)
        assert support.sizes.tolist() == sizes
        assert support.positions.tolist() == positions
        assert hexes(support.weights.tolist()) == hexes(weights)
        # Values of mixed scales and signs, a few of them signed zeros.
        width = int(rng.integers(1, 5))
        scale = 10.0 ** rng.integers(-8, 9, (len(positions), width))
        by_state = rng.standard_normal((len(positions), width)) * scale
        by_state[rng.random(by_state.shape) < 0.1] = -0.0
        got = _fold_atoms(support, by_state)
        assert got.shape == (len(ids), width)
        expected = ref_fold(weights, sizes, positive, by_state)
        assert [hexes(row) for row in got.tolist()] == [
            hexes(row) for row in expected
        ]


def test_lift_refuses_a_hierarchy_failing_its_audit():
    # Player 1's atoms are x = {a, d} and y = {b, c}.  The coarse
    # partition {a, b}, {c, d} is finite, but both atoms straddle it, and
    # the lift names the audit's first failed check.
    states = ("a", "b", "c", "d")
    game = NestedGame(
        space=StateSpace(states=states, prior=dict.fromkeys(states, 0.25)),
        partitions=(
            InformationPartition(1, {"a": "x", "b": "y", "c": "y", "d": "x"}),
            InformationPartition(2, dict.fromkeys(states, "all")),
        ),
        payoffs=PayoffTensor.from_array(
            (("L", "R"), ("U", "D")), states, np.arange(32.0).reshape(2, 4, 2, 2)
        ),
    )
    split = InformationPartition(1, {"a": 0, "b": 0, "c": 1, "d": 1})
    whole = InformationPartition(2, dict.fromkeys(states, 0))
    h = dataclasses.replace(build_hierarchy(game, 0.1), coarse=(split, whole))
    profile = StrategyProfile(
        {1: {k: {"L": 1.0} for k in range(2)}, 2: {0: {"U": 1.0}}},
        field_level="coarse",
    )
    message = "^hierarchy failed its structural audit: information-refines-coarse "
    with pytest.raises(GameFormatError, match=message + "for player 1$"):
        lift_strategy(profile, h)


@settings(max_examples=examples(80), deadline=None)
@given(seed=SEEDS, fault=st.sampled_from(range(9)))
def test_validation_messages_match_the_dict_walk(seed, fault):
    rng = np.random.default_rng(seed)
    game = variant(seed)
    states = game.space.states
    space, parts = game.space, list(game.partitions)
    prior = dict(space.prior)
    s = states[int(rng.integers(len(states)))]
    k = int(rng.integers(len(parts)))
    if fault == 0:
        prior[s] = -0.25
    elif fault == 1:
        prior[s] = float(("nan", "inf", "-inf")[int(rng.integers(3))])
    elif fault == 2:
        del prior[s]
    elif fault == 3:
        prior["ghost"] = 0.0
    elif fault == 4:
        prior[s] += 0.5
    elif fault == 5:
        atom_of = dict(parts[k].atom_of)
        del atom_of[s]
        parts[k] = InformationPartition(parts[k].player, atom_of)
    elif fault == 6:
        atom_of = dict(parts[k].atom_of)
        atom_of["ghost"] = next(iter(atom_of.values()))
        parts[k] = InformationPartition(parts[k].player, atom_of)
    elif fault == 7:
        # As many states as the game, one of them unknown.
        atom_of = {("ghost" if t == s else t): a for t, a in parts[k].atom_of.items()}
        parts[k] = InformationPartition(parts[k].player, atom_of)
    else:
        parts[k] = random_partition(rng, parts[k].player, states)
    broken = NestedGame(
        space=StateSpace(states, prior, space.player_priors),
        partitions=tuple(parts),
        payoffs=game.payoffs,
    )
    got = [
        v.message
        for v in validate_game(broken).violations
        if v.code in ("prior", "partition", "nestedness")
    ]
    assert got == ref_messages(broken)
