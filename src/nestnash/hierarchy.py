"""Finite belief hierarchies by delta-ball clustering.

Level 1 of the hierarchy observes the state's payoff matrix.  Level i
takes player i's exact conditional distribution over the level-i
observable (the lower-level belief indices together with the payoff
class) and clusters it: walking the atoms in partition order, each
belief joins the first existing centre at L1 distance strictly below
delta, or else opens a new centre.  The centre is the belief the level
reports for the whole cluster.  Because information is nested, each
player's belief index is known to all better-informed players, which is
what makes the induced coarse partitions well defined and finite.

Every label is an integer array over the state order.  The payoff
classes and each player's atoms and masses come from the game
(``game.classes``, ``game.supports``), which the certifier reads too.
Each state's observable is carried from level to level: level i + 1's
is level i's with the state's level-i belief index inserted before the
payoff class, combined as one integer and renumbered densely by first
appearance, so ids stay below S^2.  The coarse partitions are built the
other way, from level n down: player i's key is the level-i belief
index followed by player i + 1's key.  Beliefs come from one stable
sort of the weighed states by (atom, signal), each bucket summed with
``math.fsum`` as a plain loop would; each distinct belief is matched to
a centre once.  Each level keeps its labels as they are computed, the
arrays ``signals`` and ``beliefs``, and the audit compares label arrays
(``InformationPartition.labels``).

Every payoff-transfer argument downstream leans on one fact, which the
clustering guarantees by construction: each member atom's exact belief
lies strictly within delta (L1) of its centre, and so does every
mixture of member beliefs, such as the belief on a coarse atom, since
the L1 ball is convex.  ``max_l1_gap`` records the largest member to
centre distance per level.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .game import (
    Atom,
    InformationPartition,
    GameFormatError,
    NestedGame,
    PayoffClasses,
    State,
    Support,
    _fold_atoms,
    _fsums,
    _group,
    _refinement_witness,
)

# A belief over the level's signal support: signal index -> positive weight.
Belief = dict[int, float]


def _l1(p: Belief, q: Belief) -> float:
    """L1 distance between two sparse beliefs, summed with fsum."""
    diffs = map(operator.sub, p.values(), map(q.get, p, itertools.repeat(0.0)))
    return math.fsum(
        itertools.chain(map(abs, diffs), map(q.__getitem__, q.keys() - p.keys()))
    )


@dataclass(frozen=True)
class HierarchyLevel:
    """One player's belief layer.

    ``signal_support`` lists the realized values of the level-i
    observable as tuples (belief index at levels 1..i-1, payoff class),
    and ``signals`` holds each state's index into that list as an integer
    array over the state order, -1 for states carrying no mass under any
    prior.  ``belief_support`` holds the cluster centres, each a sparse
    map from signal index to weight, and ``beliefs`` holds each state's
    centre, that of its atom, as an integer array over the state order.
    """

    player: int
    signal_support: tuple[tuple[int, ...], ...]
    belief_support: tuple[Belief, ...]
    max_l1_gap: float
    signals: np.ndarray = field(repr=False, compare=False)
    beliefs: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class Hierarchy:
    """All levels plus the induced coarse information partitions.

    ``coarse_keys[i - 1]`` maps each belief-index tuple (levels i..n)
    that some state realizes to player i's coarse atom holding it.
    """

    game: NestedGame
    delta: float
    levels: tuple[HierarchyLevel, ...]
    coarse: tuple[InformationPartition, ...]
    coarse_keys: tuple[dict[tuple[int, ...], Atom], ...]
    classes: PayoffClasses

    def level(self, player: int) -> HierarchyLevel:
        return self.levels[player - 1]

    def coarse_partition(self, player: int) -> InformationPartition:
        return self.coarse[player - 1]

    def atom_for_key(self, player: int, key: tuple[int, ...]):
        """Coarse atom realizing a belief-index tuple, or None."""
        return self.coarse_keys[player - 1].get(key)


def _exact_beliefs(support: Support, signals: np.ndarray, count: int) -> list[Belief]:
    """Each atom's belief, in partition order: per signal (``signals[k]`` <
    ``count`` is the k-th weighed member's), the fsum of its members'
    weights over its mass, in order of first appearance; a zero-mass
    atom's is the point mass on signal 0 (see ``build_hierarchy``)."""
    key = support.atom_index[support.positions] * count + signals
    # One bucket per (atom, signal): a run of the stable sort by key.
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    starts = [0, *((ordered[1:] != ordered[:-1]).nonzero()[0] + 1).tolist()]
    sizes = list(map(operator.sub, starts[1:] + [len(key)], starts))
    sums = _fsums(support.weights[order].tolist(), sizes)
    masses, keys, members = support.masses.tolist(), ordered.tolist(), order.tolist()
    first = list(map(members.__getitem__, starts))
    # Members run atom after atom, so buckets in order of their first
    # member run atom after atom too.  Zero-mass atoms share one point
    # mass, which nothing fills.
    beliefs: list[Belief] = [{0: 1.0}] * len(masses)
    atom = -1
    for b in sorted(range(len(starts)), key=first.__getitem__):
        a, z = divmod(keys[starts[b]], count)
        if a != atom:
            atom, beliefs[a] = a, {}
        beliefs[a][z] = sums[b] / masses[a]
    return beliefs


def build_hierarchy(game: NestedGame, delta: float) -> Hierarchy:
    """Construct the clustered belief hierarchy, one level per player.

    Level i conditions on player i's information using player i's own
    prior and clusters each atom's exact conditional into the first
    centre within L1 distance delta, in partition order.  Signals and
    coarse atoms are numbered by first appearance in state order.  Atoms
    with zero mass under the level player's prior take a point mass on
    the first support element; they carry no mass, so any fixed
    convention works, and a fixed one keeps construction deterministic.

    Raises InvalidGameError when the game fails validation.
    """
    game.require_valid()
    if not delta > 0:
        raise GameFormatError("delta must be positive")

    classes = game.classes
    states = game.space.states
    supports = game.supports
    # The states some player's prior weighs, in state order.
    realized = np.zeros(len(states), bool)
    for support in supports:
        realized[support.positions] = True
    live = np.flatnonzero(realized)
    # Each state's level-i observable, as an index into ``observed``: its
    # belief indices at levels 1..i-1, then its payoff class.
    observable = classes.ids
    observed = [(k,) for k in range(classes.count)]

    levels: list[HierarchyLevel] = []
    for i, support in enumerate(supports, start=1):
        group, first = _group(observable[live].tolist())
        signal = np.full(len(states), -1, np.intp)
        signal[live] = group
        beliefs = _exact_beliefs(support, signal[support.positions], len(first))

        centres: list[Belief] = []
        # Centres by signal index: a centre sharing no signal with a
        # belief is at distance exactly 2, so below delta = 2 only these
        # need a look.
        centres_on: dict[int, list[int]] = {}
        # Each distinct belief, in order of first appearance, and its
        # centre.  Centres are only appended, so atoms with equal beliefs
        # meet the same centre at the same distance (0 for one they open).
        keys = list(map(tuple, map(dict.items, beliefs)))
        matched = dict.fromkeys(keys)
        max_gap = 0.0
        for items in matched:
            belief = dict(items)
            if delta > 2.0:
                near = range(len(centres))
            else:
                near = sorted({c for z in belief for c in centres_on.get(z, ())})
            for c in near:
                gap = _l1(belief, centres[c])
                if gap < delta:
                    break
            else:
                c, gap = len(centres), 0.0
                centres.append(belief)
                for z in belief:
                    centres_on.setdefault(z, []).append(c)
            max_gap = max(max_gap, gap)
            matched[items] = c
        atom_centres = np.array(list(map(matched.__getitem__, keys)), np.intp)
        belief_ids = atom_centres[support.atom_index]
        levels.append(
            HierarchyLevel(
                player=i,
                signal_support=tuple(
                    observed[k] for k in observable[live[first]].tolist()
                ),
                belief_support=tuple(centres),
                max_l1_gap=max_gap,
                signals=signal,
                beliefs=belief_ids,
            )
        )
        if i == game.n:
            break
        # The class stays last: z = (b_1, ..., b_i, class) at level i + 1.
        # Renumbering keeps the combined ids below S^2.
        previous = observable
        observable, first = _group((previous * len(centres) + belief_ids).tolist())
        observed = [
            observed[k][:-1] + (b, observed[k][-1])
            for k, b in zip(previous[first].tolist(), belief_ids[first].tolist())
        ]

    # Coarse partition for player i: level sets of the belief tuple i..n,
    # built from level n down.  States with identical tuples collapse into
    # one atom even when their original atoms differ.
    coarse_parts: list[InformationPartition] = []
    coarse_keys: list[dict[tuple[int, ...], Atom]] = []
    key = np.zeros(len(states), np.intp)
    tuples: list[tuple[int, ...]] = [()]
    for level in reversed(levels):
        previous, belief_ids = key, level.beliefs
        key, first = _group((belief_ids * len(tuples) + previous).tolist())
        tuples = [
            (b,) + tuples[k]
            for b, k in zip(belief_ids[first].tolist(), previous[first].tolist())
        ]
        coarse_parts.append(
            InformationPartition.from_labels(level.player, states, key, first)
        )
        coarse_keys.append({t: k for k, t in enumerate(tuples)})

    return Hierarchy(
        game=game,
        delta=delta,
        levels=tuple(levels),
        coarse=tuple(coarse_parts[::-1]),
        coarse_keys=tuple(coarse_keys[::-1]),
        classes=classes,
    )


def expectation_gap(
    game: NestedGame,
    hierarchy: Hierarchy,
    player: int,
    f: Mapping[tuple[int, ...], float],
    bound: float,
) -> float:
    """Max gap between exact conditional and centre expectations of f.

    ``f`` must be bounded by ``bound`` in absolute value on the signal
    support.  The result is guaranteed strictly below bound * delta (up
    to float noise) because every belief lies within delta of its
    centre; this function measures the realized gap over positive-mass
    atoms of the player's information.
    """
    if bound <= 0:
        raise GameFormatError("bound must be positive")
    level = hierarchy.level(player)
    for z in level.signal_support:
        if z not in f:
            raise GameFormatError(f"functional undefined on support value {z!r}")
        if abs(f[z]) > bound:
            raise GameFormatError(
                f"functional exceeds its stated bound at {z!r}: {f[z]!r}"
            )
    values = [f[z] for z in level.signal_support]
    # f's expectation under each centre.
    centres = [
        math.fsum(w * values[z] for z, w in c.items()) for c in level.belief_support
    ]
    support = game.supports[player - 1]
    at = support.positions
    exact = _fold_atoms(support, np.array(values, float)[level.signals[at], None])
    # Each positive-mass atom's centre, read at its first weighed state.
    firsts = np.cumsum([0] + [len(members) for _, _, members in support.atoms])[:-1]
    approx = np.array(centres)[level.beliefs[at[firsts]]]
    return float(np.abs(exact[:, 0] - approx).max(initial=0.0))


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    player: int
    ok: bool
    witness: tuple[State, State] | None
    detail: str


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_properties(game: NestedGame, hierarchy: Hierarchy) -> PropertyReport:
    """Audit the coarse partitions with witnesses for any failure.

    Checked per player: the coarse partition is finite (atom count within
    the product cap of belief counts at levels i..n); coarse partitions
    form a chain matching the information order; each player's own
    information refines their coarse partition; and the player's belief
    is constant on each coarse atom.
    """
    checks: list[PropertyCheck] = []
    n = game.n
    states = game.space.states
    for i in range(1, n + 1):
        count = len(hierarchy.coarse_partition(i).ids)
        cap = 1
        for j in range(i, n + 1):
            cap *= len(hierarchy.level(j).belief_support)
        checks.append(
            PropertyCheck(
                name="finite-support",
                player=i,
                ok=count <= cap,
                witness=None,
                detail=f"{count} coarse atoms, cap {cap}",
            )
        )

    for i in range(1, n):
        fine, coarse = hierarchy.coarse_partition(i), hierarchy.coarse_partition(i + 1)
        witness = _refinement_witness(fine, coarse)
        checks.append(
            PropertyCheck(
                name="coarse-chain",
                player=i,
                ok=witness is None,
                witness=witness,
                detail=f"player {i} coarse refines player {i + 1} coarse",
            )
        )

    for i in range(1, n + 1):
        witness = _refinement_witness(
            game.partition_for(i), hierarchy.coarse_partition(i)
        )
        checks.append(
            PropertyCheck(
                name="information-refines-coarse",
                player=i,
                ok=witness is None,
                witness=witness,
                detail=f"player {i} information refines the coarse partition",
            )
        )

    for i in range(1, n + 1):
        # Constant on coarse atoms: no coarse atom holds two belief labels.
        coarse = hierarchy.coarse_partition(i)
        beliefs = hierarchy.level(i).beliefs
        keys = tuple(coarse.atom_of)
        if keys != states:
            at = map(game.space.position.__getitem__, keys)
            beliefs = beliefs[np.fromiter(at, np.intp, len(keys))]
        bad = _refinement_witness(coarse, beliefs, by_atom=True)
        checks.append(
            PropertyCheck(
                name="belief-constant-on-atoms",
                player=i,
                ok=bad is None,
                witness=bad,
                detail=f"player {i} belief measurable for the coarse partition",
            )
        )
    return PropertyReport(checks=tuple(checks))
