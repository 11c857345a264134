"""Finite belief hierarchies over simplex grids.

Level 1 of the hierarchy observes the state's payoff matrix.  Level i
rounds player i's conditional distribution over the level-i observable
(the lower-level rounded beliefs together with the payoff matrix) to a
uniform rational grid on the simplex.  Because information is nested,
each player's rounded belief is known to all better-informed players,
which is what makes the induced coarse partitions well defined and
finite.

The grid resolution k = ceil(2*(dim-1)/delta) guarantees that largest
remainder rounding lands strictly within L1 distance delta of the exact
conditional, which is the bound every downstream payoff-transfer
argument leans on.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

from .game import (
    Atom,
    InformationPartition,
    GameFormatError,
    NestedGame,
    PayoffClasses,
    State,
    MASS_TOL,
    payoff_classes,
    _refinement_witness,
)

# Slack for comparing float L1 gaps against exact rational grid bounds.
GRID_TOL = 1e-12


@dataclass(frozen=True)
class SimplexPoint:
    """A probability vector; grid points carry exactly representable coords."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coords:
            raise GameFormatError("empty simplex point")
        if any(c < -GRID_TOL or not math.isfinite(c) for c in self.coords):
            raise GameFormatError(f"negative simplex coordinate in {self.coords!r}")
        total = math.fsum(self.coords)
        if abs(total - 1.0) > MASS_TOL:
            raise GameFormatError(f"simplex point sums to {total:.12g}")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def l1_distance(self, other: Sequence[float]) -> float:
        if len(other) != len(self.coords):
            raise GameFormatError("dimension mismatch in l1_distance")
        return math.fsum(abs(a - b) for a, b in zip(self.coords, other))


@dataclass(frozen=True)
class SimplexGrid:
    """Uniform rational grid on the (dim-1)-simplex with denominator k."""

    dim: int
    resolution: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise GameFormatError("simplex grid needs dim >= 1")
        if self.resolution < 1:
            raise GameFormatError("simplex grid needs resolution >= 1")

    def size(self) -> int:
        """Number of grid points: compositions of k into dim parts."""
        return math.comb(self.resolution + self.dim - 1, self.dim - 1)

    @property
    def covering_bound(self) -> float:
        """L1 rounding error bound for largest remainder rounding."""
        return 2.0 * (self.dim - 1) / self.resolution

    def round(self, coords: Sequence[float]) -> tuple[int, ...]:
        """Largest remainder rounding to integer numerators over k.

        Returns an L1-nearest grid point.  Ties are resolved toward the
        lexicographically smallest numerator sequence, which keeps the
        whole construction deterministic.
        """
        if len(coords) != self.dim:
            raise GameFormatError("dimension mismatch in grid rounding")
        k = self.resolution
        targets = [max(0.0, c) * k for c in coords]
        nums = [math.floor(t) for t in targets]
        fracs = [t - n for t, n in zip(targets, nums)]
        rem = k - sum(nums)
        if rem > 0:
            # Bump the largest remainders; later indices first on ties so the
            # resulting numerator sequence is lexicographically smallest.
            order = sorted(range(self.dim), key=lambda i: (-fracs[i], -i))
            for i in order[:rem]:
                nums[i] += 1
        elif rem < 0:
            order = sorted(range(self.dim), key=lambda i: (fracs[i], -i))
            for i in order:
                if rem == 0:
                    break
                if nums[i] > 0:
                    nums[i] -= 1
                    rem += 1
        assert sum(nums) == k
        return tuple(nums)

    def point(self, numerators: Sequence[int]) -> SimplexPoint:
        if len(numerators) != self.dim or sum(numerators) != self.resolution:
            raise GameFormatError("numerators do not form a grid point")
        k = self.resolution
        return SimplexPoint(coords=tuple(n / k for n in numerators))


def grid_for(dim: int, delta: float) -> SimplexGrid:
    """The coarsest grid whose rounding error is strictly below delta."""
    if delta <= 0:
        raise GameFormatError("delta must be positive")
    if dim < 1:
        raise GameFormatError("dim must be at least 1")
    k = max(1, math.ceil(2 * (dim - 1) / delta))
    return SimplexGrid(dim=dim, resolution=k)


@dataclass(frozen=True)
class HierarchyLevel:
    """One player's rounded-belief layer.

    ``signal_support`` lists the realized values of the level-i
    observable as tuples (belief index at levels 1..i-1, payoff class).
    ``signal_of`` maps states to indices into that list, -1 for states
    carrying no mass under any prior.  Beliefs are grid points over the
    signal support; ``belief_of`` assigns one per state via its atom.
    """

    player: int
    signal_support: tuple[tuple[int, ...], ...]
    signal_of: dict[State, int]
    grid: SimplexGrid
    belief_support: tuple[SimplexPoint, ...]
    belief_numerators: tuple[tuple[int, ...], ...]
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
    """Construct the rounded belief hierarchy, one level per player.

    Level i conditions on player i's information using player i's own
    prior, rounds each positive-mass atom's conditional to the delta
    grid, and dedups the resulting points.  Atoms with zero mass under
    the level player's prior receive a point mass on the first support
    element; they carry no mass, so any fixed convention works, and a
    fixed one keeps construction deterministic.

    Raises InvalidGameError when the game fails validation.
    """
    game.require_valid()
    if delta <= 0:
        raise GameFormatError("delta must be positive")

    classes = payoff_classes(game)
    states = game.space.states
    priors = [game.prior_for(i) for i in range(1, game.n + 1)]
    realized = {s: any(p[s] > 0.0 for p in priors) for s in states}

    levels: list[HierarchyLevel] = []
    belief_layers: list[dict[State, int]] = []

    for i in range(1, game.n + 1):
        # The level-i observable: lower-level beliefs plus the payoff class.
        def signal(s: State) -> tuple[int, ...]:
            return tuple(layer[s] for layer in belief_layers) + (classes.index_of[s],)

        support_index: dict[tuple[int, ...], int] = {}
        support: list[tuple[int, ...]] = []
        for s in states:
            if realized[s]:
                z = signal(s)
                if z not in support_index:
                    support_index[z] = len(support)
                    support.append(z)
        signal_of = {
            s: (support_index[signal(s)] if realized[s] else -1) for s in states
        }

        dim = len(support)
        grid = grid_for(dim, delta)
        prior = priors[i - 1]
        partition = game.partition_for(i)

        belief_index: dict[tuple[int, ...], int] = {}
        belief_nums: list[tuple[int, ...]] = []
        atom_belief: dict[Atom, int] = {}
        max_gap = 0.0
        for atom, members in partition.atoms.items():
            mass = math.fsum(prior[s] for s in members)
            if mass > 0.0:
                cond = [0.0] * dim
                buckets: dict[int, list[float]] = {}
                for s in members:
                    w = prior[s]
                    if w > 0.0:
                        buckets.setdefault(signal_of[s], []).append(w)
                for z, ws in buckets.items():
                    cond[z] = math.fsum(ws) / mass
                nums = grid.round(cond)
                gap = math.fsum(
                    abs(c - n / grid.resolution) for c, n in zip(cond, nums)
                )
                max_gap = max(max_gap, gap)
            else:
                # Zero-mass atom: point mass on the first support element.
                nums = (grid.resolution,) + (0,) * (dim - 1)
            if nums not in belief_index:
                belief_index[nums] = len(belief_nums)
                belief_nums.append(nums)
            atom_belief[atom] = belief_index[nums]

        belief_of = {s: atom_belief[partition.atom_of[s]] for s in states}
        levels.append(
            HierarchyLevel(
                player=i,
                signal_support=tuple(support),
                signal_of=signal_of,
                grid=grid,
                belief_support=tuple(grid.point(n) for n in belief_nums),
                belief_numerators=tuple(belief_nums),
                belief_of=belief_of,
                atom_belief=atom_belief,
                max_l1_gap=max_gap,
            )
        )
        belief_layers.append(belief_of)

    # Coarse partition for player i: level sets of the belief tuple i..n.
    # States with identical tuples collapse into one atom even when their
    # original atoms differ.
    coarse_parts: list[InformationPartition] = []
    coarse_keys: list[dict[Atom, tuple[int, ...]]] = []
    for i in range(1, game.n + 1):
        atom_of: dict[State, int] = {}
        key_of: dict[tuple[int, ...], int] = {}
        keys: dict[int, tuple[int, ...]] = {}
        for s in states:
            key = tuple(belief_layers[j][s] for j in range(i - 1, game.n))
            if key not in key_of:
                key_of[key] = len(key_of)
                keys[key_of[key]] = key
            atom_of[s] = key_of[key]
        coarse_parts.append(InformationPartition(player=i, atom_of=atom_of))
        coarse_keys.append({atom: key for key, atom in key_of.items()})

    return Hierarchy(
        game=game,
        delta=delta,
        levels=tuple(levels),
        coarse=tuple(coarse_parts),
        coarse_keys=tuple(coarse_keys),
        classes=classes,
    )


def approx_expectation(
    level: HierarchyLevel, f: Mapping[tuple[int, ...], float], state: State
) -> float:
    """Expectation of f under the state's rounded belief.

    ``f`` must cover the whole signal support; this is the grid-side
    stand-in for conditioning on the player's true information.
    """
    point = level.belief_support[level.belief_of[state]]
    terms = []
    for idx, z in enumerate(level.signal_support):
        if z not in f:
            raise GameFormatError(f"functional undefined on support value {z!r}")
        c = point.coords[idx]
        if c != 0.0:
            terms.append(c * f[z])
    return math.fsum(terms)


def expectation_gap(
    game: NestedGame,
    hierarchy: Hierarchy,
    player: int,
    f: Mapping[tuple[int, ...], float],
    bound: float,
) -> float:
    """Max gap between exact conditional and rounded-belief expectations of f.

    ``f`` must be bounded by ``bound`` in absolute value on the signal
    support.  The result is guaranteed strictly below bound * delta (up
    to float noise) by the grid construction; this function measures the
    realized gap over positive-mass atoms of the player's information.
    """
    if bound <= 0:
        raise GameFormatError("bound must be positive")
    level = hierarchy.level(player)
    for z in level.signal_support:
        if z not in f:
            raise GameFormatError(f"functional undefined on support value {z!r}")
        if abs(f[z]) > bound + GRID_TOL:
            raise GameFormatError(
                f"functional exceeds its stated bound at {z!r}: {f[z]!r}"
            )
    prior = game.prior_for(player)
    partition = game.partition_for(player)
    worst = 0.0
    for atom, members in partition.atoms.items():
        mass = math.fsum(prior[s] for s in members)
        if mass <= 0.0:
            continue
        exact = (
            math.fsum(
                prior[s] * f[level.signal_support[level.signal_of[s]]]
                for s in members
                if prior[s] > 0.0
            )
            / mass
        )
        first = members[0]
        approx = approx_expectation(level, f, first)
        worst = max(worst, abs(exact - approx))
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
