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
Each live state's observable is carried from level to level: level
i + 1's is level i's with the state's level-i belief index inserted
before the payoff class, combined as one integer and renumbered densely
by first appearance over the live states (``game._group_ints``), so ids
stay below S^2.  The coarse partitions are built the other way, from
level n down: player i's key is the level-i belief index followed by
player i + 1's key, and a player whose key merges none of their atoms
keeps their own partition.  Beliefs come from one grouping of the
weighed states by (atom, signal), each bucket summed with ``math.fsum``
as a plain loop would, and are kept as CSR arrays (each atom's signal
ids and weights).  The distinct beliefs are found from those arrays by
a checksum of each atom's entries, verified entry by entry
(``_distinct_beliefs``), and each is matched to a centre once.
Each level keeps its labels as they are computed, the
arrays ``signals`` and ``beliefs``, and the audit (``check_properties``,
read once per hierarchy as ``Hierarchy.audit``) compares label arrays
(``InformationPartition.labels``).

Every payoff-transfer argument downstream leans on one fact, which the
clustering guarantees by construction: each member atom's exact belief
lies strictly within delta (L1) of its centre, and so does every
mixture of member beliefs, such as the belief on a coarse atom, since
the L1 ball is convex.  ``max_l1_gap`` records the largest member to
centre distance per level.  The gap this moves an expectation or an
action value by is measured only in the tests, by plain walks over the
per-state dicts (``tests/oracles.py``); no stage of a solve reads it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .game import (
    InformationPartition,
    GameFormatError,
    NestedGame,
    State,
    Support,
    _fsums,
    _group_ints,
    _refinement_witness,
)

# A belief over the level's signal support: signal index -> positive weight.
Belief = dict[int, float]


def _l1(signals: list[int], weights: list[float], q: Belief) -> float:
    """L1 distance between the belief putting ``weights[k]`` on
    ``signals[k]`` and the sparse belief ``q``, summed with fsum."""
    diffs = map(operator.sub, weights, map(q.get, signals, itertools.repeat(0.0)))
    return math.fsum(
        itertools.chain(map(abs, diffs), map(q.__getitem__, q.keys() - set(signals)))
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

    ``game`` is the game it was built from: every reader of the
    hierarchy takes the hierarchy alone and reads its game here.
    ``audit`` is its structural audit (``check_properties``), computed
    once, on first read.
    """

    game: NestedGame
    delta: float
    levels: tuple[HierarchyLevel, ...]
    coarse: tuple[InformationPartition, ...]

    def level(self, player: int) -> HierarchyLevel:
        return self.levels[player - 1]

    def coarse_partition(self, player: int) -> InformationPartition:
        return self.coarse[player - 1]

    @functools.cached_property
    def audit(self) -> PropertyReport:
        return check_properties(self)


def _exact_beliefs(
    support: Support, signals: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each atom's belief, in partition order, as the CSR arrays
    ``(starts, ids, weights)``: atom a's entries are at ``starts[a]`` to
    ``starts[a + 1]``, one per signal (``signals[k]`` < ``count`` is the
    k-th weighed member's) in order of first appearance, weighing the
    fsum of its members' weights over the atom's mass.  A zero-mass
    atom weighs no member, so its entries are empty; ``build_hierarchy``
    reads them as the point mass on signal 0."""
    key = support.atom_index[support.positions] * count + signals
    # One bucket per (atom, signal), numbered by first appearance: the
    # weighed states run atom after atom, so the buckets do too, each
    # atom's in order of their first member.  The stable sort by bucket
    # lines each bucket's members up for its fsum.
    bucket, first = _group_ints(key, len(support.masses) * count)
    order = bucket.argsort(kind="stable")
    sizes = np.bincount(bucket).tolist()
    sums = np.array(_fsums(support.weights[order].tolist(), sizes))
    atoms = key[first] // count
    starts = atoms.searchsorted(np.arange(len(support.masses) + 1))
    return starts, signals[first], sums / support.masses[atoms]


# The odd multiplier of the hash that ``_belief_checksums`` sums per atom.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def _runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The positions ``starts[k]`` to ``starts[k] + sizes[k] - 1`` for
    each k in turn, as one array."""
    return np.arange(sizes.sum()) + np.repeat(starts - (sizes.cumsum() - sizes), sizes)


def _belief_checksums(
    starts: np.ndarray, ids: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Each atom's checksum of its CSR belief: the wrapping sum over its
    entries of a hash of the entry's signal and weight bits.  Equal
    beliefs have equal checksums (so do beliefs listing the same entries
    in another order, which the comparison tells apart)."""
    # A weight is an fsum over a positive mass, never -0.0, so equal
    # weights have equal bits.  The product spreads a difference in the
    # low bits of a weight over the high bits and the shift folds them
    # back, so weights an ulp apart get unrelated hashes, not ones whose
    # differences can cancel.
    mix = weights.view(np.uint64) * _MIX
    mix += ids.astype(np.uint64)
    mix ^= mix >> np.uint64(29)
    sums = np.zeros(len(ids) + 1, np.uint64)
    mix.cumsum(out=sums[1:])
    at = sums[starts]
    return at[1:] - at[:-1]


def _distinct_beliefs(
    starts: np.ndarray, ids: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group the atoms of the CSR beliefs ``_exact_beliefs`` returns by
    their belief, the same signals with the same weights in the same
    order: each atom's group, numbered by first appearance over the
    atoms, and each group's first atom.

    Equal beliefs have equal checksums (``_belief_checksums``), so each
    atom is compared entry by entry with the first atom of its checksum;
    the few atoms that differ from it are told apart by their entries'
    tuples, as ``payoff_classes`` tells rows apart.
    """
    checksum, first = _group_ints(_belief_checksums(starts, ids, weights), 1 << 64)
    if len(first) == len(checksum):
        return checksum, first
    rep = first[checksum]
    # Each atom whose checksum an earlier atom opened: is its belief that one's?
    later = (rep != np.arange(len(rep))).nonzero()[0]
    sizes = starts[1:] - starts[:-1]
    same = sizes[later] == sizes[rep[later]]
    paired, length = later[same], sizes[later[same]]
    mine, theirs = _runs(starts[paired], length), _runs(starts[rep[paired]], length)
    unequal = (ids[mine] != ids[theirs]) | (weights[mine] != weights[theirs])
    same[same] = np.bincount(
        np.repeat(np.arange(len(paired)), length)[unequal], minlength=len(paired)
    ) == 0
    if same.all():
        return checksum, first
    # A checksum shared by unequal beliefs: key those atoms by their entries.
    opened: dict[tuple, int] = {}
    for k in later[~same].tolist():
        cut = slice(starts[k], starts[k + 1])
        key = (tuple(ids[cut].tolist()), tuple(weights[cut].tolist()))
        rep[k] = opened.setdefault(key, k)
    return _group_ints(rep, len(rep))


def build_hierarchy(game: NestedGame, delta: float) -> Hierarchy:
    """Construct the clustered belief hierarchy, one level per player.

    Level i conditions on player i's information using player i's own
    prior and clusters each atom's exact conditional into the first
    centre within L1 distance delta, in partition order.  Signals are
    numbered by first appearance in state order.  A player whose coarse
    partition merges none of their atoms keeps their own partition (the
    very object, ``game.partitions[i - 1]``); any other player's coarse
    atoms are numbered by first appearance in state order.  Atoms
    with zero mass under the level player's prior take a point mass on
    the first support element; they carry no mass, so any fixed
    convention works, and a fixed one keeps construction deterministic.

    Raises InvalidGameError when the game fails validation.
    """
    game.require_valid()
    if not delta > 0:
        raise GameFormatError("delta must be positive")

    states = game.space.states
    supports = game.supports
    # The states some player's prior weighs, in state order.
    realized = np.zeros(len(states), bool)
    for support in supports:
        realized[support.positions] = True
    live = realized.nonzero()[0]
    # Each live state's level-i signal, numbered by first appearance over
    # the live states, and each signal's value in ``observed``: its belief
    # indices at levels 1..i-1, then its payoff class.
    classes = game.classes.ids[live]
    observable, first = _group_ints(classes, game.classes.count)
    observed = [(k,) for k in classes[first].tolist()]

    levels: list[HierarchyLevel] = []
    for i, support in enumerate(supports, start=1):
        signal = np.full(len(states), -1, np.intp)
        signal[live] = observable
        starts, ids, weights = _exact_beliefs(
            support, signal[support.positions], len(observed)
        )
        distinct, firsts = _distinct_beliefs(starts, ids, weights)

        centres: list[Belief] = []
        # Centres by signal index: a centre sharing no signal with a
        # belief is at distance exactly 2, so below delta = 2 only these
        # need a look.
        centres_on: dict[int, list[int]] = {}
        # Each distinct belief, in order of first appearance, meets the
        # centres once.  Centres are only appended, so atoms with equal
        # beliefs meet the same centre at the same distance (0 for one
        # they open).
        matched = []
        max_gap = 0.0
        bounds = starts.tolist()
        for f in firsts.tolist():
            cut = slice(bounds[f], bounds[f + 1])
            zs, ws = ids[cut].tolist(), weights[cut].tolist()
            if not zs:
                # A zero-mass atom's empty belief is the point mass on signal 0.
                zs, ws = [0], [1.0]
            if delta > 2.0:
                near = range(len(centres))
            else:
                near = sorted({c for z in zs for c in centres_on.get(z, ())})
            for c in near:
                gap = _l1(zs, ws, centres[c])
                if gap < delta:
                    break
            else:
                c, gap = len(centres), 0.0
                centres.append(dict(zip(zs, ws)))
                for z in zs:
                    centres_on.setdefault(z, []).append(c)
            max_gap = max(max_gap, gap)
            matched.append(c)
        belief_ids = np.array(matched, np.intp)[distinct][support.atom_index]
        levels.append(
            HierarchyLevel(
                player=i,
                signal_support=tuple(observed),
                belief_support=tuple(centres),
                max_l1_gap=max_gap,
                signals=signal,
                beliefs=belief_ids,
            )
        )
        if i == game.n:
            break
        # The class stays last: z = (b_1, ..., b_i, class) at level i + 1.
        # Renumbering keeps the combined ids below the live state count.
        previous, held = observable, belief_ids[live]
        observable, first = _group_ints(
            previous * len(centres) + held, len(observed) * len(centres)
        )
        observed = [
            observed[k][:-1] + (b, observed[k][-1])
            for k, b in zip(previous[first].tolist(), held[first].tolist())
        ]

    # Coarse partition for player i: level sets of the belief tuple i..n,
    # built from level n down.  States with identical tuples collapse into
    # one atom even when their original atoms differ.  Player i's own
    # information refines it (b_i is constant on their atoms, and b_j for
    # j > i on player j's, which are unions of theirs), so as many coarse
    # atoms as own atoms means the partition is their own, and it is kept.
    coarse_parts: list[InformationPartition] = []
    key, count = np.zeros(len(states), np.intp), 1
    for level, own in zip(reversed(levels), reversed(game.partitions)):
        key, first = _group_ints(
            level.beliefs * count + key, len(level.belief_support) * count
        )
        count = len(first)
        if count == len(own.ids):
            coarse_parts.append(own)
        else:
            coarse_parts.append(
                InformationPartition.from_labels(level.player, states, key, first)
            )

    return Hierarchy(
        game=game,
        delta=delta,
        levels=tuple(levels),
        coarse=tuple(coarse_parts[::-1]),
    )


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    player: int
    ok: bool
    witness: tuple[State, State] | None


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_properties(hierarchy: Hierarchy) -> PropertyReport:
    """Audit the coarse partitions with witnesses for any failure.

    Checked per player: the coarse partition is finite (atom count within
    the product cap of belief counts at levels i..n); coarse partitions
    form a chain matching the information order; each player's own
    information refines their coarse partition; and the player's belief
    is constant on each coarse atom.
    """
    game = hierarchy.game
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
            )
        )

    for i in range(1, n + 1):
        # Constant on coarse atoms: each lies in one level set of the belief
        # labels.  The span covers any nonnegative label, not only those the
        # belief support numbers, since the audit does not trust them.
        beliefs = hierarchy.level(i).beliefs
        labels = _group_ints(beliefs, int(beliefs.max(initial=0)) + 1)
        sets = InformationPartition.from_labels(i, states, *labels)
        bad = _refinement_witness(hierarchy.coarse_partition(i), sets, by_atom=True)
        checks.append(
            PropertyCheck(
                name="belief-constant-on-atoms",
                player=i,
                ok=bad is None,
                witness=bad,
            )
        )
    return PropertyReport(checks=tuple(checks))
