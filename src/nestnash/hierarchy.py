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
index followed by player i + 1's key.  Each output dict is built once
from its array, and each belief is summed with ``math.fsum`` per (atom,
signal) bucket, as a plain loop would.

Every payoff-transfer argument downstream leans on one fact, which the
clustering guarantees by construction: each member atom's exact belief
lies strictly within delta (L1) of its centre, and so does every
mixture of member beliefs, such as the belief on a coarse atom, since
the L1 ball is convex.  ``max_l1_gap`` records the largest member to
centre distance per level.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .game import (
    Atom,
    InformationPartition,
    GameFormatError,
    NestedGame,
    PayoffClasses,
    State,
    _group,
    _refinement_witness,
)

# A belief over the level's signal support: signal index -> positive weight.
Belief = dict[int, float]


def _l1(p: Belief, q: Belief) -> float:
    """L1 distance between two sparse beliefs, summed with fsum."""
    return math.fsum(
        [abs(w - q.get(z, 0.0)) for z, w in p.items()]
        + [w for z, w in q.items() if z not in p]
    )


@dataclass(frozen=True)
class HierarchyLevel:
    """One player's belief layer.

    ``signal_support`` lists the realized values of the level-i
    observable as tuples (belief index at levels 1..i-1, payoff class).
    ``signal_of`` maps states to indices into that list, -1 for states
    carrying no mass under any prior.  ``belief_support`` holds the
    cluster centres, each a sparse map from signal index to weight;
    ``belief_of`` assigns one per state via its atom.
    """

    player: int
    signal_support: tuple[tuple[int, ...], ...]
    signal_of: dict[State, int]
    belief_support: tuple[Belief, ...]
    belief_of: dict[State, int]
    atom_belief: dict[Atom, int]
    max_l1_gap: float


@dataclass(frozen=True)
class Hierarchy:
    """All levels plus the induced coarse information partitions."""

    game: NestedGame
    delta: float
    levels: tuple[HierarchyLevel, ...]
    coarse: tuple[InformationPartition, ...]
    coarse_keys: tuple[dict[Atom, tuple[int, ...]], ...]
    classes: PayoffClasses

    def level(self, player: int) -> HierarchyLevel:
        return self.levels[player - 1]

    def coarse_partition(self, player: int) -> InformationPartition:
        return self.coarse[player - 1]

    @cached_property
    def _atom_by_key(self) -> tuple[dict[tuple[int, ...], Atom], ...]:
        return tuple(
            {key: atom for atom, key in keys.items()} for keys in self.coarse_keys
        )

    def atom_for_key(self, player: int, key: tuple[int, ...]):
        """Coarse atom realizing a belief-index tuple, or None."""
        return self._atom_by_key[player - 1].get(key)


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
    if delta <= 0:
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
    beliefs: list[np.ndarray] = []
    for i, support in enumerate(supports, start=1):
        group, first = _group(observable[live].tolist())
        signal = np.full(len(states), -1, np.intp)
        signal[live] = group
        partition = game.partition_for(i)
        # Each positive-mass atom's members: their signals and priors.
        signals = signal[support.positions].tolist()
        weights = support.weights.tolist()
        segments: dict[Atom, tuple[float, int, int]] = {}
        start = 0
        for atom, mass, members in support.atoms:
            segments[atom] = (mass, start, start + len(members))
            start += len(members)

        centres: list[Belief] = []
        # Centres by signal index: a centre sharing no signal with a
        # belief is at distance exactly 2, so below delta = 2 only these
        # need a look.
        centres_on: dict[int, list[int]] = {}
        atom_belief: dict[Atom, int] = {}
        max_gap = 0.0
        for atom in partition.atoms:
            segment = segments.get(atom)
            if segment is not None:
                mass, start, stop = segment
                buckets: dict[int, list[float]] = {}
                for z, w in zip(signals[start:stop], weights[start:stop]):
                    buckets.setdefault(z, []).append(w)
                belief = {z: math.fsum(ws) / mass for z, ws in buckets.items()}
            else:
                # Zero-mass atom: point mass on the first support element.
                belief = {0: 1.0}
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
            atom_belief[atom] = c

        belief_of = np.array(list(atom_belief.values()), np.intp)[support.atom_index]
        levels.append(
            HierarchyLevel(
                player=i,
                signal_support=tuple(
                    observed[k] for k in observable[live[first]].tolist()
                ),
                signal_of=dict(zip(states, signal.tolist())),
                belief_support=tuple(centres),
                belief_of=dict(zip(states, belief_of.tolist())),
                atom_belief=atom_belief,
                max_l1_gap=max_gap,
            )
        )
        beliefs.append(belief_of)
        # The class stays last: z = (b_1, ..., b_i, class) at level i + 1.
        # Renumbering keeps the combined ids below S^2.
        previous = observable
        observable, first = _group((previous * len(centres) + belief_of).tolist())
        observed = [
            observed[k][:-1] + (b, observed[k][-1])
            for k, b in zip(previous[first].tolist(), belief_of[first].tolist())
        ]

    # Coarse partition for player i: level sets of the belief tuple i..n,
    # built from level n down.  States with identical tuples collapse into
    # one atom even when their original atoms differ.
    coarse_parts: list[InformationPartition] = []
    coarse_keys: list[dict[Atom, tuple[int, ...]]] = []
    key = np.zeros(len(states), np.intp)
    tuples: list[tuple[int, ...]] = [()]
    for level, belief_of in zip(reversed(levels), reversed(beliefs)):
        previous = key
        key, first = _group((belief_of * len(tuples) + previous).tolist())
        tuples = [
            (b,) + tuples[k]
            for b, k in zip(belief_of[first].tolist(), previous[first].tolist())
        ]
        coarse_parts.append(
            InformationPartition(level.player, dict(zip(states, key.tolist())))
        )
        coarse_keys.append(dict(enumerate(tuples)))

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
    prior = game.prior_for(player)
    support = level.signal_support
    worst = 0.0
    for atom, mass, members in game.supports[player - 1].atoms:
        exact = math.fsum(prior[s] * f[support[level.signal_of[s]]] for s in members)
        centre = level.belief_support[level.atom_belief[atom]]
        approx = math.fsum(w * f[support[z]] for z, w in centre.items())
        worst = max(worst, abs(exact / mass - approx))
    return worst


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
    for i in range(1, n + 1):
        part = hierarchy.coarse_partition(i)
        count = len(part.atoms)
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
        level = hierarchy.level(i)
        part = hierarchy.coarse_partition(i)
        bad: tuple[State, State] | None = None
        for atom, members in part.atoms.items():
            first = members[0]
            for s in members[1:]:
                if level.belief_of[s] != level.belief_of[first]:
                    bad = (first, s)
                    break
            if bad:
                break
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
