"""The label-array stages against plain per-state oracles.

Validation, the belief hierarchy, its structural audit, the quotient and
the lift read each partition as one integer label array
(``InformationPartition.labels``).  The tests here run them on random
nested games whose partitions list their states in shuffled order, with
zero-prior states of both signs, an optional per-player prior and
integer, tuple or string atom ids, and compare every result with a
reference below that walks the per-state dicts one state at a time.
The readers of the hierarchy's label arrays (``expectation_gap`` and
``coarse_best_response_gap``) are compared float for float with plain
loops over ``ref_hierarchy``'s dicts.
Hierarchies are also tampered with, so that the audit's witnesses and
the lift's error are exercised.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import exact_prior, random_nested_game
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    _refinement_witness,
    validate_game,
)
from nestnash.hierarchy import build_hierarchy, check_properties, expectation_gap
from nestnash.regret import coarse_best_response_gap
from nestnash.solver import _quotient, lift_strategy

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


def ref_l1(p, q):
    return math.fsum(
        [abs(w - q.get(z, 0.0)) for z, w in p.items()]
        + [w for z, w in q.items() if z not in p]
    )


def ref_hierarchy(game, delta):
    """Every field of the hierarchy, by per-state walks: per level the
    signal support, each state's signal, the centres, each state's and
    each atom's belief and the largest gap, then the coarse partitions
    and keys.  Every centre is scanned, which matches the signal-sharing scan
    for delta below 2 up to gaps near 2, and delta above 2."""
    states = game.space.states
    priors = [game.prior_for(i) for i in range(1, game.n + 1)]
    live = {s for s in states if any(p[s] > 0.0 for p in priors)}
    observable = dict(zip(states, [(k,) for k in game.classes.ids.tolist()]))
    levels, beliefs = [], []
    for i, prior in enumerate(priors, start=1):
        support = list(dict.fromkeys(observable[s] for s in states if s in live))
        index = {z: k for k, z in enumerate(support)}
        signal_of = {s: index[observable[s]] if s in live else -1 for s in states}
        centres, atom_belief, max_gap = [], {}, 0.0
        for atom, members in game.partition_for(i).atoms.items():
            mass = math.fsum(prior[s] for s in members)
            belief = {0: 1.0}
            if mass > 0.0:
                buckets = {}
                for s in members:
                    if prior[s] > 0.0:
                        buckets.setdefault(signal_of[s], []).append(prior[s])
                belief = {z: math.fsum(ws) / mass for z, ws in buckets.items()}
            for c, centre in enumerate(centres):
                gap = ref_l1(belief, centre)
                if gap < delta:
                    break
            else:
                c, gap = len(centres), 0.0
                centres.append(belief)
            max_gap = max(max_gap, gap)
            atom_belief[atom] = c
        atom_of = game.partition_for(i).atom_of
        belief_of = {s: atom_belief[atom_of[s]] for s in states}
        beliefs.append(belief_of)
        levels.append((support, signal_of, centres, belief_of, atom_belief, max_gap))
        observable = {
            s: observable[s][:-1] + (belief_of[s], observable[s][-1]) for s in states
        }
    coarse, keys = [], []
    for i in range(1, game.n + 1):
        tuples = {s: tuple(b[s] for b in beliefs[i - 1 :]) for s in states}
        ids = {key: k for k, key in enumerate(dict.fromkeys(tuples.values()))}
        coarse.append({s: ids[tuples[s]] for s in states})
        keys.append(ids)
    return levels, coarse, keys


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
    return levels, coarse, [list(keys.items()) for keys in h.coarse_keys]


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
    class_of = dict(zip(game.space.states, h.classes.ids.tolist()))
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
    strategies = {}
    for i in range(1, game.n + 1):
        coarse = h.coarse_partition(i)
        table = {}
        for atom, members in game.partition_for(i).atoms.items():
            parents = {coarse.atom_of[s] for s in members}
            if len(parents) != 1:
                raise GameFormatError(
                    f"player {i} atom {atom!r} straddles coarse atoms"
                )
            table[atom] = dict(profile.distribution(i, parents.pop()))
        strategies[i] = table
    return strategies


def ref_expectation_gap(game, delta, player, f):
    """``expectation_gap`` by a walk over ``ref_hierarchy``'s dicts."""
    levels, _, _ = ref_hierarchy(game, delta)
    support, signal_of, centres, _, atom_belief, _ = levels[player - 1]
    prior = game.prior_for(player)
    worst = 0.0
    for atom, members in game.partition_for(player).atoms.items():
        mass = math.fsum(prior[s] for s in members)
        if mass <= 0.0:
            continue
        exact = math.fsum(
            prior[s] * f[support[signal_of[s]]] for s in members if prior[s] > 0.0
        )
        centre = centres[atom_belief[atom]]
        approx = math.fsum(w * f[support[z]] for z, w in centre.items())
        worst = max(worst, abs(exact / mass - approx))
    return worst


def ref_coarse_gap(game, delta, profile, player):
    """``coarse_best_response_gap`` of a coarse-level profile by plain
    loops over ``ref_hierarchy``'s dicts: every value is the fsum of p * u
    over the others' joint actions, p their probabilities multiplied left
    to right in player order."""
    levels, coarse, keys = ref_hierarchy(game, delta)
    states = game.space.states
    others = [j for j in range(1, game.n + 1) if j != player]
    support, _, centres, _, _, _ = levels[player - 1]
    beliefs = [level[3] for level in levels]
    reps = {}
    for s, k in zip(states, game.classes.ids.tolist()):
        reps.setdefault(k, s)

    def value(s, a, dists):
        terms = []
        for prof in itertools.product(*(game.actions_for(j) for j in others)):
            p = dists[0][prof[0]]
            for d, b in zip(dists[1:], prof[1:]):
                p *= d[b]
            full = prof[: player - 1] + (a,) + prof[player - 1 :]
            terms.append(p * game.payoffs.values[s, full][player - 1])
        return math.fsum(terms)

    def played(j, s):
        return profile.strategies[j][coarse[j - 1][s]]

    def uniform(j):
        return dict.fromkeys(game.actions_for(j), 1.0 / len(game.actions_for(j)))

    prior = game.prior_for(player)
    worst = 0.0
    for members in game.partition_for(player).atoms.values():
        mass = math.fsum(prior[s] for s in members)
        if mass <= 0.0:
            continue
        tail = tuple(b[members[0]] for b in beliefs[player - 1 :])
        centre = centres[tail[0]]
        for a in game.actions_for(player):
            exact = math.fsum(
                prior[s] * value(s, a, [played(j, s) for j in others])
                for s in members
                if prior[s] > 0.0
            )
            terms = []
            for z, w in centre.items():
                key = support[z][:-1] + tail
                dists = []
                for j in others:
                    atom = keys[j - 1].get(key[j - 1 :])
                    dists.append(
                        uniform(j) if atom is None else profile.strategies[j][atom]
                    )
                terms.append(w * value(reps[support[z][-1]], a, dists))
            worst = max(worst, abs(exact / mass - math.fsum(terms)))
    return worst


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


@settings(max_examples=60, deadline=None)
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


@settings(max_examples=60, deadline=None)
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


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, delta=DELTAS)
def test_audit_matches_the_dict_walk(seed, delta):
    game = variant(seed)
    h = build_hierarchy(game, delta)
    rng = np.random.default_rng(seed)
    for hierarchy in (h, tampered(rng, game, h)):
        got = [
            (c.name, c.player, c.ok, c.witness)
            for c in check_properties(game, hierarchy).checks
        ]
        assert got == ref_checks(game, hierarchy)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, delta=DELTAS)
def test_quotient_matches_the_dict_walk(seed, delta):
    game = variant(seed)
    h = build_hierarchy(game, delta)
    coarse = _quotient(game, h)
    reps, prior, player_priors, partitions = ref_quotient(game, h)

    def exact(d):
        return [(s, v.hex()) for s, v in d.items()]

    space = coarse.space
    assert space.states == reps
    if reps == game.space.states:
        assert space is game.space
        assert coarse.partitions == h.coarse
        return
    assert exact(space.prior) == exact(prior)
    assert {i: exact(p) for i, p in (space.player_priors or {}).items()} == {
        i: exact(p) for i, p in player_priors.items()
    }
    assert [list(p.atom_of.items()) for p in coarse.partitions] == [
        list(p.items()) for p in partitions
    ]
    position = game.space.position
    table = game.payoff_array[:, [position[s] for s in reps]]
    assert coarse.payoff_array.tobytes() == table.tobytes()


@settings(max_examples=60, deadline=None)
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
                lift_strategy(profile, game, hierarchy)
            assert str(raised.value) == str(err)
            continue
        lifted = lift_strategy(profile, game, hierarchy).strategies
        assert [list(t.items()) for t in lifted.values()] == [
            list(t.items()) for t in expected.values()
        ]


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, delta=DELTAS)
def test_expectation_gap_matches_the_dict_walk(seed, delta):
    game = variant(seed)
    h = build_hierarchy(game, delta)
    rng = np.random.default_rng(seed)
    for i in range(1, game.n + 1):
        support = h.level(i).signal_support
        f = {z: float(rng.uniform(-2.0, 2.0)) for z in support}
        got = expectation_gap(game, h, i, f, 2.0)
        assert got.hex() == ref_expectation_gap(game, delta, i, f).hex()


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, delta=DELTAS)
def test_coarse_gap_matches_the_dict_walk(seed, delta):
    game = variant(seed)
    h = build_hierarchy(game, delta)
    rng = np.random.default_rng(seed)
    profile = StrategyProfile(
        {
            i: {
                atom: dict(zip(acts, rng.dirichlet(np.ones(len(acts))).tolist()))
                for atom in h.coarse_partition(i).atoms
            }
            for i, acts in enumerate(game.payoffs.actions, start=1)
        },
        field_level="coarse",
    )
    for i in range(1, game.n + 1):
        got = coarse_best_response_gap(game, h, profile, i)
        assert got.hex() == ref_coarse_gap(game, delta, profile, i).hex()


def test_lift_names_the_first_straddling_atom():
    # Player 1's atoms are x = {a, d} and y = {b, c}.  The coarse
    # partition splits both; y's split shows first in state order, but x
    # comes first in partition order, and the error names it.
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
    split = InformationPartition(1, {s: k for k, s in enumerate(states)})
    whole = InformationPartition(2, dict.fromkeys(states, 0))
    h = dataclasses.replace(build_hierarchy(game, 0.1), coarse=(split, whole))
    profile = StrategyProfile(
        {1: {k: {"L": 1.0} for k in range(4)}, 2: {0: {"U": 1.0}}},
        field_level="coarse",
    )
    with pytest.raises(GameFormatError, match="^player 1 atom 'x' straddles"):
        lift_strategy(profile, game, h)


@settings(max_examples=80, deadline=None)
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
