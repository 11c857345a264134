"""Finite Bayesian games with nested information.

A game couples an explicit finite state space with one information
partition per player and a dense payoff tensor over states and joint
action profiles.  A payoff tensor holds one float array
(``PayoffTensor.array``), and every stage that reads the whole table
(validation, the payoff bound and classes, the agent form, the
certifier) reads it.  The game file loader, ``from_type_space`` and the
grid game write that array directly; a tensor built from a dict keyed
by ``(state, profile)`` stacks it from the dict once.  Nothing depends
on the order in which a file or a dict lists the entries.
Player 1 is the most informed: validity requires each player's
partition to refine the next player's.  Strategies are maps
from partition atoms to mixed actions, so they are measurable with
respect to the owning player's information by construction.

All container types are immutable after construction and every
operation is a pure function.  Validation never raises; it returns a
report listing violations so callers can surface all problems at once.

What every later stage reads about a game's states is computed once per
game and cached: the validation report, the payoff classes
(``NestedGame.classes``, with each state's class id as an integer
array, shared by every game with the same payoff tensor and the state
order of its array) and each player's support (``NestedGame.supports``:
the atom of every state, each atom's ``math.fsum`` mass, and the
positive-mass atoms as the columns ``ids`` and ``sizes``, with their
weighed states atom after atom, shared by every game with the same state
space and partition).  The belief hierarchy and the certifier both read
them; each is a pure function of the game itself, so the certifier
still trusts nothing from the solver.  After
the load, partitions are read as integer labels
(``InformationPartition.labels``): the nestedness check, the supports,
the hierarchy, its audit, the quotient and the lift compare label arrays
instead of walking dicts state by state.  Every per-state fact derived
from a game is kept once, as such an array: the class ids, each
support's atom index, and the hierarchy's ``signals`` and ``beliefs``.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Hashable

import numpy as np

State = Hashable
Atom = Hashable
Action = Hashable

# Ingested probability masses must normalize this tightly.
MASS_TOL = 1e-12
# Slack for float quantities derived from valid inputs (expectations, regrets).
DERIVED_TOL = 1e-9


class GameFormatError(ValueError):
    """A structural problem that makes the requested computation impossible."""


class InvalidGameError(ValueError):
    """An operation that requires a valid game received an invalid one."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(
            "invalid game: " + "; ".join(v.message for v in report.violations)
        )


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite state space with a common prior.

    ``player_priors`` optionally overrides the common prior per player,
    which models players holding inconsistent beliefs.  Every payoff and
    regret computed for player i then uses player i's own prior.
    """

    states: tuple[State, ...]
    prior: dict[State, float]
    player_priors: dict[int, dict[State, float]] | None = None

    def prior_for(self, player: int) -> Mapping[State, float]:
        if self.player_priors and player in self.player_priors:
            return self.player_priors[player]
        return self.prior

    @cached_property
    def position(self) -> dict[State, int]:
        """Index of each state in ``states``."""
        return dict(zip(self.states, range(len(self.states))))

    @cached_property
    def _supports(self) -> dict:
        """Memo of ``NestedGame.supports``: (player, id of the partition)
        -> the partition, held so that its id is not reused, and the
        player's ``Support`` on it."""
        return {}


@dataclass(frozen=True)
class InformationPartition:
    """A player's information, given as the atom containing each state.

    Stages after the load read it as integer labels: ``labels(states)``
    gives each state's index into ``ids``, the atoms in partition order.
    """

    player: int
    atom_of: dict[State, Atom]

    @cached_property
    def atoms(self) -> dict[Atom, tuple[State, ...]]:
        """Atoms keyed by id, states in insertion order of ``atom_of``."""
        grouped: dict[Atom, list[State]] = {}
        for state, atom in self.atom_of.items():
            grouped.setdefault(atom, []).append(state)
        return {a: tuple(ss) for a, ss in grouped.items()}

    @classmethod
    def from_labels(
        cls,
        player: int,
        states: tuple[State, ...],
        labels: np.ndarray,
        firsts: np.ndarray,
    ) -> "InformationPartition":
        """The partition putting ``states[k]`` in atom ``labels[k]``, with
        atoms numbered by first appearance, atom k's first at ``firsts[k]``
        (what ``_labelled`` would compute, so it is kept instead)."""
        part = cls(player, dict(zip(states, labels.tolist())))
        part.__dict__["_labelled"] = (states, labels, firsts)
        return part

    @cached_property
    def ids(self) -> tuple[Atom, ...]:
        atoms = list(self.atom_of.values())
        return tuple(map(atoms.__getitem__, self._labelled[2].tolist()))

    @cached_property
    def _labelled(self) -> tuple[tuple[State, ...], np.ndarray, np.ndarray]:
        """The states in ``atom_of``'s order, each one's label and each
        atom's first position among them."""
        codes, firsts = _group(self.atom_of.values())
        return tuple(self.atom_of), codes, firsts

    def labels(self, states: tuple[State, ...]) -> np.ndarray:
        """Each state's index into ``ids``, in the order of ``states``."""
        keys, codes, _ = self._labelled
        if states == keys:
            return codes
        code = dict(zip(keys, codes.tolist()))
        return np.fromiter(map(code.__getitem__, states), np.intp, len(states))


class PayoffTensor:
    """Dense payoffs: (state, joint action profile) -> one value per player.

    A tensor holds its actions, the dict of entries keyed by ``(state,
    profile)`` it was built from (``PayoffTensor(actions, values)``), if
    any, and one payoff array with the state order it follows.  The game
    file loader, ``from_type_space`` and the grid game give the array
    itself (``PayoffTensor.from_array``); a dict is stacked into it on the
    first call of ``array``.  Every stage that reads the whole table
    reads that array.  For an array-backed tensor the dict ``values`` is
    built on first use, in array order; only the plain oracles and
    callers outside the solve read it.
    """

    def __init__(
        self,
        actions: tuple[tuple[Action, ...], ...],
        values: dict[tuple[State, tuple[Action, ...]], tuple[float, ...]],
    ):
        self.actions = actions
        self._values = values
        # The payoff array, the state order it follows and its payoff
        # classes, each set once.
        self._states: tuple[State, ...] | None = None
        self._table: np.ndarray | None = None
        self._classes: PayoffClasses | None = None

    @classmethod
    def from_array(
        cls,
        actions: tuple[tuple[Action, ...], ...],
        states: tuple[State, ...],
        table: np.ndarray,
    ) -> "PayoffTensor":
        """The tensor whose array for ``states`` is ``table``.

        ``table`` has the shape ``array`` describes and holds every
        entry.  It is kept, made read-only, when it is already a
        C-ordered float array, and copied into one otherwise: the
        solver's sums follow the memory layout, so a strided table would
        change its floats.
        """
        tensor = cls(actions, None)
        table = np.ascontiguousarray(table, dtype=float)
        table.flags.writeable = False
        tensor._states, tensor._table = states, table
        return tensor

    @property
    def values(self) -> dict[tuple[State, tuple[Action, ...]], tuple[float, ...]]:
        """Every entry, keyed by ``(state, profile)``: the dict given, or
        for an array-backed tensor the entries in array order."""
        if self._values is None:
            keys = itertools.product(self._states, self.profiles())
            rows = self._table.reshape(self.num_players, -1).T.tolist()
            self._values = dict(zip(keys, map(tuple, rows)))
        return self._values

    @property
    def entry_count(self) -> int:
        """How many entries the tensor was given."""
        if self._values is None:
            return math.prod(self._table.shape[1:])
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PayoffTensor):
            return NotImplemented
        return self.actions == other.actions and self.values == other.values

    @property
    def num_players(self) -> int:
        return len(self.actions)

    def profiles(self) -> Iterable[tuple[Action, ...]]:
        """All joint action profiles, in deterministic product order."""
        return itertools.product(*self.actions)

    def array(self, states: tuple[State, ...]) -> np.ndarray:
        """The payoffs as one read-only float array.

        Shape ``(n, len(states), |A_1|, ..., |A_n|)``: axis 0 is the
        player, axis 1 follows ``states`` and axis 1 + j follows player
        j's actions.  The tensor keeps one array: the one it was built
        from, or else the one stacked from ``values`` on the first call.
        Every call with that array's state order returns it, so every
        game that shares this tensor and state order shares one array;
        any other order is stacked from ``values`` anew.  Raises
        GameFormatError when an entry is missing or holds a number of
        values other than n.
        """
        if states == self._states:
            return self._table
        table = _dense_payoffs(self, states)
        if self._table is None:
            self._states, self._table = states, table
        return table


def _dense_payoffs(payoffs: PayoffTensor, states: tuple[State, ...]) -> np.ndarray:
    """Look up every expected (state, profile) entry, in array order, and
    stack their values."""
    n = len(payoffs.actions)
    values = payoffs.values

    def expected():
        # Every (state, profile) key in array order, made one at a time.
        return itertools.chain.from_iterable(
            zip(itertools.repeat(s), payoffs.profiles()) for s in states
        )

    try:
        rows = list(map(values.__getitem__, expected()))
    except KeyError as err:
        s, prof = err.args[0]
        raise GameFormatError(
            f"payoff tensor misses the entry at ({s!r}, {prof!r})"
        ) from None
    if rows and set(map(len, rows)) != {n}:
        (s, prof), vals = next(
            (key, vals) for key, vals in zip(expected(), rows) if len(vals) != n
        )
        raise GameFormatError(
            f"payoff entry at ({s!r}, {prof!r}) has {len(vals)} values"
        )
    table = np.empty((n, len(rows)))
    for i in range(n):
        table[i] = np.fromiter(map(operator.itemgetter(i), rows), float, len(rows))
    table = table.reshape((n, len(states)) + tuple(map(len, payoffs.actions)))
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class NestedGame:
    space: StateSpace
    partitions: tuple[InformationPartition, ...]
    payoffs: PayoffTensor

    @property
    def n(self) -> int:
        return len(self.partitions)

    def partition_for(self, player: int) -> InformationPartition:
        return self.partitions[player - 1]

    def prior_for(self, player: int) -> Mapping[State, float]:
        return self.space.prior_for(player)

    def actions_for(self, player: int) -> tuple[Action, ...]:
        return self.payoffs.actions[player - 1]

    @property
    def payoff_array(self) -> np.ndarray:
        """``payoffs.array(space.states)``, shared by every game with this
        tensor and state space."""
        return self.payoffs.array(self.space.states)

    @cached_property
    def validation(self) -> "ValidationReport":
        """``validate_game(self)``, computed once per game."""
        return validate_game(self)

    @property
    def classes(self) -> "PayoffClasses":
        """``payoff_classes(self)``, computed once per payoff tensor for
        the state order of its array, so every game sharing both shares
        it (as they share ``payoff_array``); any other order is computed
        anew."""
        payoffs, states = self.payoffs, self.space.states
        classes = payoffs._classes
        if classes is None or states != payoffs._states:
            # Reading the array first stacks a dict-backed tensor's.
            classes = payoff_classes(self)
            if states == payoffs._states:
                payoffs._classes = classes
        return classes

    @cached_property
    def supports(self) -> tuple["Support", ...]:
        """Each player's ``Support`` under their own prior, in player order,
        computed once per state space and partition, so every game sharing
        both shares it (the probe audit's true-value game shares the grid
        game's)."""
        memo = self.space._supports
        for i, part in enumerate(self.partitions, start=1):
            if (i, id(part)) not in memo:
                memo[i, id(part)] = (part, _support(self.space, i, part))
        return tuple(
            memo[i, id(part)][1] for i, part in enumerate(self.partitions, start=1)
        )

    def require_valid(self) -> None:
        """Raise InvalidGameError unless the game passes validation."""
        if not self.validation.ok:
            raise InvalidGameError(self.validation)


@dataclass(frozen=True)
class StrategyProfile:
    """Per player: partition atom -> probability distribution over actions.

    ``field_level`` records which partition family the atom ids refer to:
    ``"original"`` for the game's own partitions, ``"coarse"`` for the
    derived coarse partitions of a belief hierarchy.
    """

    strategies: dict[int, dict[Atom, dict[Action, float]]]
    field_level: str = "original"

    def distribution(self, player: int, atom: Atom) -> dict[Action, float]:
        try:
            return self.strategies[player][atom]
        except KeyError:
            raise GameFormatError(
                f"player {player} has no strategy for atom {atom!r}"
            ) from None


@dataclass(frozen=True)
class PayoffClasses:
    """Distinct per-state payoff matrices, enumerated over the state order.

    Two states belong to the same class when their full payoff matrices
    (all players, all action profiles) are identical.  ``ids`` holds each
    state's class as an integer array over the state order, and
    ``representatives`` holds the first state seen in each class.
    """

    count: int
    representatives: tuple[State, ...]
    ids: np.ndarray = field(compare=False, repr=False)


@dataclass(frozen=True, eq=False)
class Support:
    """One player's own information under their own prior.

    ``atom_index[k]`` is the position, in partition order, of the atom
    holding the k-th state, and ``masses`` holds each atom's mass in
    partition order, the ``math.fsum`` of its prior.  ``ids`` and
    ``sizes`` are columns over the positive-mass atoms in partition
    order: each atom's id and its number of members with positive prior.
    ``positions`` and ``weights`` hold those members' state positions
    and priors, atom after atom, each atom's in ``atom_of``'s order;
    they are exactly the states the player's prior weighs.
    """

    atom_index: np.ndarray
    masses: np.ndarray
    ids: tuple[Atom, ...]
    sizes: np.ndarray
    positions: np.ndarray
    weights: np.ndarray


def refines(fine: InformationPartition, coarse: InformationPartition) -> bool:
    """True when every atom of ``fine`` lies inside a single atom of ``coarse``.

    Both partitions must cover the same state set; a mismatch is a usage
    error, not a refinement failure.
    """
    if set(fine.atom_of) != set(coarse.atom_of):
        raise GameFormatError("refines: partitions cover different state sets")
    return _refinement_witness(fine, coarse) is None


def _refinement_witness(
    fine: InformationPartition,
    coarse: InformationPartition | np.ndarray,
    by_atom: bool = False,
) -> tuple[State, State] | None:
    """A pair of states in one fine atom but different coarse atoms, if
    any: a fine atom's first state and the first state, in
    ``fine.atom_of``'s order, whose coarse atom is not that one's; with
    ``by_atom``, the first such state in the first fine atom holding one.
    ``coarse`` may also be given as one label per state, in that order."""
    keys, codes, firsts = fine._labelled
    if isinstance(coarse, InformationPartition):
        coarse = coarse.labels(keys)
    head = firsts[codes]
    split = coarse[head] != coarse
    if not split.any():
        return None
    split = split.nonzero()[0]
    k = split[codes[split].argmin()] if by_atom else split[0]
    return keys[head[k]], keys[k]


def _fsums(values: list[float], sizes: list[int]) -> list[float]:
    """The ``math.fsum`` of each run of ``values``, run k holding the next
    ``sizes[k]``."""
    runs = iter(values)
    return list(map(math.fsum, map(itertools.islice, itertools.repeat(runs), sizes)))


def _mass_sum(masses: Iterable[float]) -> float:
    """The ``math.fsum`` of masses of at least -MASS_TOL each; inf when it
    overflows, as their exact sum then does."""
    try:
        return math.fsum(masses)
    except OverflowError:
        return math.inf


def _check_prior(
    violations: list[Violation],
    label: str,
    prior: Mapping[State, float],
    states: tuple[State, ...],
    known: set[State],
) -> None:
    if prior.keys() != known:
        missing = [s for s in states if s not in prior]
        extra = [s for s in prior if s not in known]
        if missing:
            message = f"{label} missing mass for state {missing[0]!r}"
            violations.append(Violation("prior", message))
        if extra:
            message = f"{label} assigns mass to unknown state {extra[0]!r}"
            violations.append(Violation("prior", message))
        return
    masses = list(map(prior.__getitem__, states))
    if not all(map(math.isfinite, masses)) or min(masses) < 0:
        s, m = next((s, m) for s, m in zip(states, masses) if not 0 <= m < math.inf)
        message = f"{label} has invalid mass {m!r} at state {s!r}"
        violations.append(Violation("prior", message))
        return
    total = _mass_sum(masses)
    if abs(total - 1.0) > MASS_TOL:
        violations.append(Violation("prior", f"{label} sums to {total:.12g}"))


def validate_game(game: NestedGame) -> ValidationReport:
    """Structural and semantic validation; returns all violations found."""
    v: list[Violation] = []
    states = game.space.states
    state_set = set(states)
    if len(state_set) != len(states):
        v.append(Violation("states", "duplicate state ids"))
        return ValidationReport(tuple(v))
    if game.n < 2:
        v.append(Violation("players", f"need at least 2 players, got {game.n}"))
    if len(game.payoffs.actions) != game.n:
        v.append(
            Violation(
                "actions",
                f"payoff tensor covers {len(game.payoffs.actions)} players, "
                f"game has {game.n}",
            )
        )
        return ValidationReport(tuple(v))

    _check_prior(v, "prior", game.space.prior, states, state_set)
    if game.space.player_priors:
        for player, prior in game.space.player_priors.items():
            if not (1 <= player <= game.n):
                v.append(Violation("prior", f"prior given for unknown player {player}"))
                continue
            _check_prior(v, f"player {player} prior", prior, states, state_set)

    for idx, part in enumerate(game.partitions, start=1):
        if part.player != idx:
            v.append(
                Violation(
                    "partition",
                    f"partition at position {idx} is labeled player {part.player}",
                )
            )
        covered = part.atom_of.keys()
        if covered == state_set:
            continue
        for s in states:
            if s not in covered:
                v.append(
                    Violation(
                        "partition", f"player {idx} partition misses state {s!r}"
                    )
                )
                break
        for s in covered:
            if s not in state_set:
                v.append(
                    Violation(
                        "partition",
                        f"player {idx} partition covers unknown state {s!r}",
                    )
                )
                break

    for i, acts in enumerate(game.payoffs.actions, start=1):
        if len(acts) == 0:
            v.append(Violation("actions", f"player {i} has no actions"))
        if len(set(acts)) != len(acts):
            v.append(Violation("actions", f"player {i} has duplicate action labels"))

    if any(x.code in ("partition", "actions") for x in v):
        return ValidationReport(tuple(v))

    # Payoff tensor.  An array-backed tensor holds exactly the expected
    # entries of its own state order.  Otherwise building the array looks
    # up every expected entry and checks each one's length; with the
    # entry count matching, the table holds exactly the expected entries.
    count = game.payoffs.entry_count
    expected = len(states) * math.prod(len(acts) for acts in game.payoffs.actions)
    complete = count == expected
    if not complete:
        v.append(
            Violation(
                "payoffs", f"payoff tensor has {count} entries, expected {expected}"
            )
        )
    try:
        table = game.payoff_array
    except GameFormatError as err:
        table = None
        v.append(Violation("payoffs", str(err)))
    if table is None or not complete:
        stray = next((s for s, _ in game.payoffs.values if s not in state_set), None)
        if stray is not None:
            v.append(Violation("payoffs", f"payoff entry for unknown state {stray!r}"))
    else:
        finite = np.isfinite(table).all(axis=0)
        if not finite.all():
            si, *cell = np.unravel_index(np.argmin(finite), finite.shape)
            prof = tuple(acts[a] for acts, a in zip(game.payoffs.actions, cell))
            v.append(
                Violation(
                    "payoffs", f"non-finite payoff at ({states[si]!r}, {prof!r})"
                )
            )

    # Nestedness: player i's information refines player i+1's.
    for i in range(1, game.n):
        fine, coarse = game.partitions[i - 1], game.partitions[i]
        witness = _refinement_witness(fine, coarse)
        if witness is not None:
            v.append(
                Violation(
                    "nestedness",
                    f"nestedness fails at player {i}: states {witness[0]!r} and "
                    f"{witness[1]!r} share player {i}'s atom but not "
                    f"player {i + 1}'s",
                )
            )
    return ValidationReport(tuple(v))


def payoff_bound(game: NestedGame) -> float:
    """Sup-norm bound on payoffs, floored at 1 so budget formulas stay sane."""
    table = game.payoff_array
    return max(1.0, float(table.max(initial=0.0)), -float(table.min(initial=0.0)))


def _group(keys: Iterable[Hashable]) -> tuple[np.ndarray, np.ndarray]:
    """Dense group ids of ``keys``, numbered by first appearance, and the
    position of each group's first key."""
    first: dict[Hashable, int] = {}
    rep = np.fromiter(map(first.setdefault, keys, itertools.count()), np.intp)
    firsts = np.fromiter(first.values(), np.intp, len(first))
    dense = np.empty(len(rep), np.intp)
    dense[firsts] = np.arange(len(firsts))
    return dense[rep], firsts


# A row's checksum reads evenly spaced entries of each player's part of
# it: fewer than twice this many.
_CHECKSUM_ENTRIES = 64
# Rows are read a few columns at a time, about this many entries per
# temporary array.
_CLASS_CHUNK = 1 << 15


def payoff_classes(game: NestedGame) -> PayoffClasses:
    """Enumerate distinct per-state payoff matrices in state order.

    Rows are compared after ``+ 0.0`` turns -0.0 into 0.0.  Each state's
    row (all players, all profiles) gets a checksum from evenly spaced
    entries: the wrapping sum of their bit patterns, each folded onto its
    low half, times odd weights.  Equal rows have equal checksums, so
    each state is compared value by value with the first state of its
    checksum; the few states that differ from it are told apart by the
    bytes of their rows.  Rows are read a few columns at a time, so no
    temporary grows with the array.  Callers read ``game.classes``.
    """
    table = game.payoff_array
    states = game.space.states
    rows = table.reshape(table.shape[0], len(states), -1)
    n, count, width = rows.shape
    step = max(1, _CLASS_CHUNK // max(1, n * count))
    sampled = np.arange(0, width, max(1, width // _CHECKSUM_ENTRIES))
    # The sampled entry k of a row (player-major) weighs 2k + 1.
    weights = np.arange(1, 2 * n * len(sampled), 2, dtype=np.uint64).reshape(n, -1)
    sums = np.zeros(count, np.uint64)
    for c in range(0, len(sampled), step):
        block = rows[:, :, sampled[c : c + step]]
        block += 0.0
        bits = block.view(np.uint64)
        # Round payoffs have all-zero low bits: fold the high half down.
        bits ^= bits >> np.uint64(32)
        sums += np.einsum("isc,ic->s", bits, weights[:, c : c + step])
    checksum, first = _group(sums.tolist())
    rep = first[checksum]
    # Each state whose checksum an earlier state opened: is its row that one's?
    later = np.flatnonzero(rep != np.arange(count))
    same = np.ones(len(later), bool)
    if len(later):
        for c in range(0, width, step):
            block = rows[:, :, c : c + step]
            same &= (block[:, later] == block[:, rep[later]]).all(axis=(0, 2))
    # A checksum shared by unequal rows: key those states by their bytes.
    opened: dict[bytes, int] = {}
    for k in later[~same].tolist():
        rep[k] = opened.setdefault(np.add(rows[:, k], 0.0).tobytes(), k)
    ids, openers = _group(rep.tolist())
    return PayoffClasses(
        count=len(openers),
        representatives=tuple(states[k] for k in openers.tolist()),
        ids=ids,
    )


# -- expected payoffs ----------------------------------------------------------
#
# Every expectation is an fsum of products p * u, where p multiplies the
# players' action probabilities left to right in player order and u is a
# payoff.  fsum is correctly rounded, so its result depends only on the
# multiset of its nonzero terms; forming the same products in numpy and
# summing them in any order gives the same float as a loop would.  Zero
# terms, such as those of a zero-probability action, never change it.


def _strategies_at(
    game: NestedGame,
    profile: StrategyProfile,
    positions: np.ndarray,
    players: Iterable[int],
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per player, the distributions the profile plays at the states at
    ``positions``: ``(rows, row_of)``.

    ``rows`` is a (R, |A_j|) array of distributions distinct value by
    value, and ``row_of[k]`` is the row played at the k-th state of the
    state order; it is unspecified at states outside ``positions``.  A
    missing strategy raises ``StrategyProfile.distribution``'s error for
    the first (state, player) pair lacking one, states outermost.  A row
    that is not a probability vector (an entry that is negative or NaN,
    or a ``math.fsum`` farther than MASS_TOL from 1) raises
    GameFormatError, so no certificate reads such play.
    """
    players = tuple(players)
    out = {}
    try:
        for j in players:
            atom_index = game.supports[j - 1].atom_index
            atoms = game.partitions[j - 1].ids
            used = np.zeros(len(atoms), bool)
            used[atom_index[positions]] = True
            strategy = profile.strategies[j]
            acts = game.actions_for(j)
            rows: dict[tuple[float, ...], int] = {}
            atom_row = np.zeros(len(atoms), np.intp)
            atom_row[used] = [
                rows.setdefault(tuple([dist.get(a, 0.0) for a in acts]), len(rows))
                for dist in map(
                    strategy.__getitem__,
                    map(atoms.__getitem__, np.flatnonzero(used).tolist()),
                )
            ]
            # Written so that NaN fails both tests.
            if not all(
                all(x >= 0.0 for x in row) and abs(_mass_sum(row) - 1.0) <= MASS_TOL
                for row in rows
            ):
                raise GameFormatError(
                    f"player {j} plays a distribution that is not a probability vector"
                )
            table = np.array(list(rows), float).reshape(len(rows), len(acts))
            out[j] = (table, atom_row[atom_index])
    except KeyError:
        states = game.space.states
        for k in positions.tolist():
            for j in players:
                profile.distribution(j, game.partitions[j - 1].atom_of[states[k]])
        raise
    return out


def _joint(dists: list[np.ndarray]) -> np.ndarray:
    """Per state, the probability of each joint action of the given
    players in product order: ``((d_1 * d_2) * ...) * d_k``."""
    joint = dists[0]
    for d in dists[1:]:
        joint = (joint[:, :, None] * d[:, None, :]).reshape(
            len(d), joint.shape[1] * d.shape[1]
        )
    return joint


def _expectations(
    game: NestedGame,
    profile: StrategyProfile,
    player: int,
    positions: np.ndarray,
) -> np.ndarray:
    """Expected payoffs to ``player`` at the states at ``positions``, one
    row each: ``_expectation_rows`` on the distributions the profile
    plays there."""
    strategies = _strategies_at(game, profile, positions, range(1, game.n + 1))
    dists = [rows[row_of[positions]] for rows, row_of in strategies.values()]
    return _expectation_rows(game, player, dists, positions)


def _expectation_rows(
    game: NestedGame,
    player: int,
    dists: list[np.ndarray],
    index: Sequence[int],
    keep: int | None = None,
) -> np.ndarray:
    """Expected payoffs to ``player``, one row per entry of ``index``.

    ``index[r]`` is a position on the payoff array's state axis, and
    ``dists`` holds, per player other than ``keep`` in order, a
    (len(index), |A_j|) array: the distribution that player plays in
    row r.  Each entry is the fsum of p * u over joint actions.  With
    ``keep`` unset the joint actions are every player's and each row has
    one entry; with ``keep`` a player, the joint actions are the others'
    and each row has one entry per action of ``keep``, who plays it for
    sure.  An action played in no row only adds zero terms, so it is
    dropped before any product is formed.
    """
    players = [j for j in range(1, game.n + 1) if j != keep]
    dists = list(dists)
    table = game.payoff_array[player - 1]
    for k, j in enumerate(players):
        live = dists[k].any(axis=0)
        if not live.all():
            table = table.compress(live, axis=j)
            dists[k] = dists[k][:, live]
    joint = _joint(dists)
    if keep is not None:
        table = np.moveaxis(table, keep, 1)
    rows = len(game.actions_for(keep)) if keep is not None else 1
    table = table[index].reshape(len(index), rows, joint.shape[1])
    terms = (table * joint[:, None, :]).reshape(len(index) * rows, joint.shape[1])
    sums = [math.fsum(row) for row in terms.tolist()]
    return np.array(sums).reshape(len(index), rows)


def _support(space: StateSpace, player: int, part: InformationPartition) -> Support:
    """The player's ``Support``; callers read the cached ``game.supports``."""
    keys, codes, _ = part._labelled
    # The states atom after atom, each atom's in ``atom_of``'s order.
    order = np.argsort(codes, kind="stable")
    grouped, labels = list(map(keys.__getitem__, order.tolist())), codes[order]
    prior = list(map(space.prior_for(player).__getitem__, grouped))
    masses = np.array(_fsums(prior, np.bincount(codes).tolist()), float)
    positive = masses > 0.0
    # The weighed states: positive prior in a positive-mass atom, which
    # with nonnegative priors is positive prior alone.
    weights = np.array(prior, float)
    weighed = (weights > 0.0) & positive[labels]
    positions = np.fromiter(map(space.position.__getitem__, grouped), np.intp)
    return Support(
        atom_index=part.labels(space.states),
        masses=masses,
        ids=tuple(itertools.compress(part.ids, positive.tolist())),
        sizes=np.bincount(labels[weighed], minlength=len(masses))[positive],
        positions=positions[weighed],
        weights=weights[weighed],
    )


def coarsen(game: NestedGame, partitions: Sequence[InformationPartition]) -> NestedGame:
    """``game`` with each player's information replaced by their partition
    in ``partitions``.  A player whose new partition labels every state as
    their own does, so that only the atom ids differ, gets the game's
    ``Support`` with its ``ids`` renamed instead of a new one."""
    space, partitions = game.space, tuple(partitions)
    for i, (support, part) in enumerate(zip(game.supports, partitions), start=1):
        if not (part.labels(space.states) != support.atom_index).any():
            ids = itertools.compress(part.ids, (support.masses > 0.0).tolist())
            renamed = replace(support, ids=tuple(ids))
            space._supports.setdefault((i, id(part)), (part, renamed))
    return NestedGame(space=space, partitions=partitions, payoffs=game.payoffs)


def _fold_atoms(support: Support, by_state: np.ndarray) -> np.ndarray:
    """Per positive-mass atom of ``support`` (rows) and column of
    ``by_state``: the fsum of the prior-weighted values of the atom's
    run of ``support.sizes`` members divided by its mass.  ``by_state``
    has one row per entry of ``support.positions``."""
    # One list per column: its prior-weighted value at each state.
    columns = (support.weights[:, None] * by_state).T.tolist()
    sizes = support.sizes.tolist()
    sums = np.array([_fsums(column, sizes) for column in columns], float)
    masses = support.masses[support.masses > 0.0]
    return (sums.reshape(len(columns), len(sizes)) / masses).T


def expected_payoff(game: NestedGame, profile: StrategyProfile) -> tuple[float, ...]:
    """Ex-ante expected payoff vector; player i's entry uses player i's prior."""
    out = []
    for i, support in enumerate(game.supports, start=1):
        values = _expectations(game, profile, i, support.positions)[:, 0]
        out.append(math.fsum((support.weights * values).tolist()))
    return tuple(out)


def conditional_payoff(
    game: NestedGame, profile: StrategyProfile, player: int
) -> dict[Atom, float]:
    """Expected payoff to ``player`` conditional on each positive-mass
    atom of their own information.

    Zero-mass atoms are omitted: conditional values are only defined
    almost surely.
    """
    support = game.supports[player - 1]
    by_state = _expectations(game, profile, player, support.positions)
    values = _fold_atoms(support, by_state)[:, 0].tolist()
    return dict(zip(support.ids, values))


def validate_profile(game: NestedGame, profile: StrategyProfile) -> list[str]:
    """Problems preventing ``profile`` from being evaluated on ``game``.

    Coverage is required for every atom containing a state with positive
    mass under any player's prior; distributions must be over the owning
    player's actions and normalize within MASS_TOL; every player named
    must be one of the game's.
    """
    problems: list[str] = []
    priors = [game.prior_for(i) for i in range(1, game.n + 1)]

    def relevant(s: State) -> bool:
        return any(p[s] > 0.0 for p in priors)

    for i in range(1, game.n + 1):
        given = profile.strategies.get(i)
        if given is None:
            problems.append(f"missing strategies for player {i}")
            continue
        part = game.partition_for(i)
        for atom, members in part.atoms.items():
            if not any(relevant(s) for s in members):
                continue
            if atom not in given:
                problems.append(f"player {i} missing atom {atom!r}")
        known = set(part.atoms)
        actions = set(game.actions_for(i))
        for atom, dist in given.items():
            if atom not in known:
                problems.append(f"player {i} has unknown atom {atom!r}")
                continue
            bad = [a for a in dist if a not in actions]
            if bad:
                problems.append(
                    f"player {i} atom {atom!r} uses unknown action {bad[0]!r}"
                )
                continue
            if any(not math.isfinite(p) or p < -MASS_TOL for p in dist.values()):
                problems.append(f"player {i} atom {atom!r} has negative mass")
                continue
            total = _mass_sum(dist.values())
            if abs(total - 1.0) > MASS_TOL:
                problems.append(
                    f"player {i} atom {atom!r} distribution sums to {total:.12g}"
                )
    for player in profile.strategies:
        if player not in range(1, game.n + 1):
            problems.append(f"strategies given for unknown player {player}")
    return problems


def from_type_space(
    type_sets: Sequence[Sequence[object]],
    joint: Mapping[tuple, float],
    payoffs: Mapping[tuple[tuple, tuple], Sequence[float]],
    actions: Sequence[Sequence[Action]] | None = None,
) -> NestedGame:
    """Build a nested game from a finite type space.

    States are the positive-mass type profiles.  Player i observes the
    types of all players i..n, so partitions are nested by construction.
    State ids and atom ids are the "|"-joined type labels, which keeps
    reports readable; labels therefore must not contain "|".

    Args:
        type_sets: per-player finite type sets (labels are stringified).
        joint: map from full type profiles to probability mass.
        payoffs: map from (type profile, action profile) to an n-vector.
        actions: per-player action labels; inferred from the payoff table
            keys (first occurrence order) when omitted.
    """
    n = len(type_sets)
    if n < 2:
        raise GameFormatError("need at least 2 players")
    labels: list[tuple[str, ...]] = []
    for i, ts in enumerate(type_sets, start=1):
        ls = tuple(str(t) for t in ts)
        if len(set(ls)) != len(ls):
            raise GameFormatError(f"player {i} has duplicate type labels")
        if any("|" in l for l in ls):
            raise GameFormatError("type labels must not contain '|'")
        labels.append(ls)

    all_profiles = list(itertools.product(*labels))
    profile_set = set(all_profiles)
    norm_joint: dict[tuple[str, ...], float] = {}
    for key, mass in joint.items():
        tkey = tuple(str(t) for t in key)
        if tkey not in profile_set:
            raise GameFormatError(f"joint table has unknown type profile {key!r}")
        if tkey in norm_joint:
            raise GameFormatError(f"joint table repeats type profile {key!r}")
        norm_joint[tkey] = float(mass)
    if any(m < 0 for m in norm_joint.values()):
        raise GameFormatError("joint has negative mass")
    total = _mass_sum(norm_joint.values())
    if abs(total - 1.0) > MASS_TOL:
        raise GameFormatError(f"joint not normalized: sums to {total:.12g}")

    norm_payoffs: dict[tuple[tuple[str, ...], tuple], tuple[float, ...]] = {}
    for (tkey, akey), vals in payoffs.items():
        norm_payoffs[(tuple(str(t) for t in tkey), tuple(akey))] = tuple(
            float(x) for x in vals
        )

    if actions is None:
        seen: list[dict[Action, None]] = [dict() for _ in range(n)]
        for (_, akey) in norm_payoffs:
            for j, a in enumerate(akey):
                if j < n:
                    seen[j].setdefault(a)
        action_sets = tuple(tuple(d.keys()) for d in seen)
    else:
        if len(actions) != n:
            raise GameFormatError("actions must list one action set per player")
        action_sets = tuple(tuple(a) for a in actions)
    if any(len(a) == 0 for a in action_sets):
        raise GameFormatError("every player needs at least one action")

    live = [tp for tp in all_profiles if norm_joint.get(tp, 0.0) > 0.0]
    if not live:
        raise GameFormatError("no type profile has positive mass")

    def sid(tp: tuple[str, ...]) -> str:
        return "|".join(tp)

    states = tuple(sid(tp) for tp in live)
    prior = {sid(tp): norm_joint[tp] for tp in live}

    partitions = []
    for i in range(1, n + 1):
        atom_of = {sid(tp): "|".join(tp[i - 1 :]) for tp in live}
        partitions.append(InformationPartition(player=i, atom_of=atom_of))

    profiles = list(itertools.product(*action_sets))
    rows: list[tuple[float, ...]] = []
    for tp in live:
        for aprof in profiles:
            key = (tp, aprof)
            if key not in norm_payoffs:
                raise GameFormatError(
                    f"payoff table misses type profile {tp!r} with actions {aprof!r}"
                )
            vals = norm_payoffs[key]
            if len(vals) != n:
                raise GameFormatError(
                    f"payoff entry at {key!r} has {len(vals)} values, expected {n}"
                )
            rows.append(vals)
    shape = (n, len(states)) + tuple(map(len, action_sets))
    table = np.array(rows, float).T.reshape(shape)

    return NestedGame(
        space=StateSpace(states=states, prior=prior),
        partitions=tuple(partitions),
        payoffs=PayoffTensor.from_array(action_sets, states, table),
    )
