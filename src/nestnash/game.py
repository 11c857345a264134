"""Finite Bayesian games with nested information.

A game couples an explicit finite state space with one information
partition per player and a dense payoff tensor over states and joint
action profiles.  Every stage that reads the whole table (validation,
the payoff bound and classes, the agent form, the certifier) reads the
game's one float array (``NestedGame.payoff_array``).  Nothing depends
on the order in which a file or a dict lists the entries.
Player 1 is the most informed: validity requires each player's
partition to refine the next player's.

Partitions and profiles intern names once, when they are built, and
compute on integers after that.  A partition holds each state's atom
as a label (``InformationPartition.labels``), so the nestedness check,
the supports, the hierarchy, its audit, the quotient and the lift
compare label arrays.  A profile holds, per player, one array of
distributions and each atom's row index into it
(``StrategyProfile.rows``); one function, ``_played_rows``, reads it for
the certifier and the lift alike.  Their dicts (``atom_of``, ``atoms``,
``strategies``) are cached views.

All container types are immutable after construction: each caches only
what it derives from itself.  Every operation is a pure function.
Validation never raises; it returns a report listing violations so
callers can surface all problems at once.

What every later stage reads about a game's states is computed once per
game and cached on it: the validation report, the payoff array, the
payoff classes (``NestedGame.classes``, with each state's class id as an
integer array) and each player's support (``NestedGame.supports``: the
atom of every state, each atom's ``math.fsum`` mass, and the
positive-mass atoms as the columns ``ids`` and ``sizes``, with their
weighed states atom after atom).  Only ``coarsen`` hands a game's to the
game it builds.  The belief hierarchy and the certifier both read them;
each is a pure function of the game itself, so the certifier still
trusts nothing from the solver.  Every per-state fact derived from a
game is kept once, as an integer array: the class ids, each support's
atom index, and the hierarchy's ``signals`` and ``beliefs``.  Every
grouping of integer keys, here and in the hierarchy, the quotient and
the certifier, goes through ``_group_ints``: a table indexed by key
numbers the keys by first appearance, and a key range too wide for such
a table (the payoff classes' and the beliefs' 64-bit checksums) is
grouped by a stable argsort.  The dict ``_group`` runs only when a
partition interns its atom names.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from collections.abc import Iterable, Mapping, Sequence, Set
from dataclasses import dataclass, field
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
# Largest payoff magnitude a valid game may hold.  With every |u| <= M, a
# regret is at most 2M and the solver's cumulative regret on an action at
# most about (2 * solver.MAX_ITERATIONS + 2) * M, under 2**913 for M at
# the cap: neither overflows to inf (whose differences are NaN), and nor
# does the transfer bound delta * M * A + rho at the default delta.
PAYOFF_CAP = 2.0**900


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

    def prior_array(self, player: int | None = None) -> np.ndarray:
        """``prior_for(player)``, or the common prior for None, as one
        float array over ``states``, built once per prior."""
        key = player if self.player_priors and player in self.player_priors else None
        arrays = self.__dict__.setdefault("_prior_arrays", {})
        if key not in arrays:
            prior = self.prior_for(player)
            arrays[key] = np.fromiter(map(prior.__getitem__, self.states), float)
        return arrays[key]

    @cached_property
    def position(self) -> dict[State, int]:
        """Index of each state in ``states``."""
        return dict(zip(self.states, range(len(self.states))))


@dataclass(frozen=True, init=False)
class InformationPartition:
    """A player's information, held from the moment it is built as
    ``_labelled``: the states, each one's label (its atom's index into
    ``ids``, the atoms in order of first appearance) and each atom's
    first position.  A dict ``atom_of`` and ``from_atoms`` intern names,
    ``from_labels`` takes labels.  ``atom_of`` (still the dataclass field,
    which equality and ``repr`` read) and ``atoms`` are cached views.
    """

    player: int
    atom_of: dict[State, Atom]

    def __init__(self, player: int, atom_of: Mapping[State, Atom]):
        part = self.from_atoms(player, tuple(atom_of), list(atom_of.values()))
        self.__dict__.update(part.__dict__, atom_of=atom_of)

    @classmethod
    def from_atoms(
        cls, player: int, states: tuple[State, ...], atoms: Sequence[Atom]
    ) -> "InformationPartition":
        """The partition putting ``states[k]`` in atom ``atoms[k]``."""
        labels, firsts = _group(atoms)
        ids = tuple(map(atoms.__getitem__, firsts.tolist()))
        return cls.from_labels(player, states, labels, firsts, ids)

    @classmethod
    def from_labels(
        cls,
        player: int,
        states: tuple[State, ...],
        labels: np.ndarray,
        firsts: np.ndarray,
        ids: tuple[Atom, ...] | None = None,
    ) -> "InformationPartition":
        """The partition putting ``states[k]`` in atom ``labels[k]``, with
        atoms numbered by first appearance, atom k's first at ``firsts[k]``.
        Atom k is named ``ids[k]``, by default k."""
        part = cls.__new__(cls)
        ids = tuple(range(len(firsts))) if ids is None else ids
        part.__dict__.update(player=player, _labelled=(states, labels, firsts), ids=ids)
        return part

    @cached_property
    def atom_of(self) -> dict[State, Atom]:
        states, labels, _ = self._labelled
        return dict(zip(states, map(self.ids.__getitem__, labels.tolist())))

    @cached_property
    def atoms(self) -> dict[Atom, tuple[State, ...]]:
        """Atoms keyed by id, states in the partition's state order."""
        states, labels, _ = self._labelled
        members = map(states.__getitem__, np.argsort(labels, kind="stable").tolist())
        sizes = np.bincount(labels, minlength=len(self.ids)).tolist()
        return {a: tuple(itertools.islice(members, k)) for a, k in zip(self.ids, sizes)}

    def labels(self, states: tuple[State, ...]) -> np.ndarray:
        """Each state's index into ``ids``, in the order of ``states``."""
        keys, codes, _ = self._labelled
        if states is keys or states == keys:
            return codes
        code = dict(zip(keys, codes.tolist()))
        return np.fromiter(map(code.__getitem__, states), np.intp, len(states))


class PayoffTensor:
    """Dense payoffs: (state, joint action profile) -> one value per player.

    A tensor keeps its actions and what it was built from: a dict of
    entries keyed by ``(state, profile)``, or an array and the state
    order it follows (``from_array``: the game file loader,
    ``from_type_space``, the grid game and the quotient game).  For an
    array-backed tensor the dict ``values`` is built on first use, in
    array order; only the plain oracles and callers outside the solve
    read it.
    """

    def __init__(
        self,
        actions: tuple[tuple[Action, ...], ...],
        values: dict[tuple[State, tuple[Action, ...]], tuple[float, ...]],
    ):
        self.actions = actions
        self._values = values
        # The array a tensor is built from and the state order it follows.
        self._states: tuple[State, ...] | None = None
        self._table: np.ndarray | None = None

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
        j's actions.  An array-backed tensor returns its own array for
        that array's state order; any other call stacks ``values`` anew
        with ``_stack``, the one way from a keyed table to an array, which
        raises GameFormatError when an entry is missing or holds a number
        of values other than n.
        """
        if states == self._states:
            return self._table
        return _stack(self.values, states, self.actions)


# Entries stacked at a time: no list or temporary array grows with a table.
_STACK_BLOCK = 1 << 12


def _stack(
    values: Mapping[tuple[State, tuple[Action, ...]], Sequence[float]],
    states: tuple[State, ...],
    actions: tuple[tuple[Action, ...], ...],
) -> np.ndarray:
    """The payoff array of a table keyed by ``(state, profile)``.

    Looks up every expected key in array order (``states``, each with its
    profiles in ``itertools.product`` order) and writes the array
    ``PayoffTensor.array`` describes, read-only and C-ordered, a block of
    entries at a time.  Raises GameFormatError naming the first key the
    table misses, or else the first entry holding a number of values
    other than n, or else the first value that is not a real number (a
    bool, a string or None; numpy reals are numbers).  A table with
    fewer entries than the array has cells misses a key among the first
    ``len(values) + 1``, so only those are listed.
    """
    n = len(actions)
    if len(values) < len(states) * math.prod(map(len, actions)):
        keys = itertools.product(states, *actions)
        s, *prof = next(key for key in keys if (key[0], key[1:]) not in values)
        raise GameFormatError(f"payoff tensor misses the entry at {(s, tuple(prof))!r}")
    profiles = tuple(itertools.product(*actions))
    table = np.empty((n, len(states) * len(profiles)))
    keys = itertools.product(states, profiles)
    # The first entry of the wrong length and the first value that is not
    # a number: once either is found, blocks are only looked up.
    wrong = bad = None
    for start in range(0, table.shape[1], _STACK_BLOCK):
        block = list(itertools.islice(keys, _STACK_BLOCK))
        try:
            rows = list(map(values.__getitem__, block))
        except KeyError as err:
            missing = f"payoff tensor misses the entry at {err.args[0]!r}"
            raise GameFormatError(missing) from None
        if wrong is None and set(map(len, rows)) != {n}:
            k, row = next((k, row) for k, row in zip(block, rows) if len(row) != n)
            wrong = f"payoff entry at {k!r} has {len(row)} values"
        if wrong or bad:
            continue
        kinds = set(map(type, itertools.chain.from_iterable(rows)))
        odd = {t for t in kinds if not issubclass(t, numbers.Real) or t is bool}
        if odd:
            values_at = ((k, x) for k, r in zip(block, rows) for x in r)
            k, x = next((k, x) for k, x in values_at if type(x) in odd)
            bad = f"payoff entry at {k!r} holds {x!r}, not a number"
            continue
        flat = np.fromiter(itertools.chain.from_iterable(rows), float, len(rows) * n)
        table[:, start : start + len(rows)] = flat.reshape(len(rows), n).T
    if wrong or bad:
        raise GameFormatError(wrong or bad)
    table = table.reshape((n, len(states)) + tuple(map(len, actions)))
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

    @cached_property
    def payoff_array(self) -> np.ndarray:
        """``payoffs.array(space.states)``, computed once per game."""
        return self.payoffs.array(self.space.states)

    @cached_property
    def validation(self) -> "ValidationReport":
        """``validate_game(self)``, computed once per game."""
        return validate_game(self)

    @cached_property
    def classes(self) -> "PayoffClasses":
        """``payoff_classes(self)``, computed once per game."""
        return payoff_classes(self)

    @cached_property
    def supports(self) -> tuple["Support", ...]:
        """Each player's ``Support`` under their own prior, in player order,
        computed once per game."""
        return tuple(
            _support(self.space, i, part)
            for i, part in enumerate(self.partitions, start=1)
        )

    def require_valid(self) -> None:
        """Raise InvalidGameError unless the game passes validation."""
        if not self.validation.ok:
            raise InvalidGameError(self.validation)


@dataclass(frozen=True, init=False)
class StrategyProfile:
    """Per player: partition atom -> probability distribution over actions.

    ``field_level`` records which partition family the atom ids refer to:
    ``"original"`` for the game's own partitions, ``"coarse"`` for the
    derived coarse partitions of a belief hierarchy.

    A profile holds ``rows`` from the moment it is built: per player, the
    atom ids, the actions, one (rows, actions) float array and each
    atom's row index into it.  The solver and the lift build it by
    ``from_rows``; ``StrategyProfile(strategies)`` interns dicts, one row
    per atom over the actions in first-seen order, 0.0 where a dict
    omits one.  ``row_dicts`` and ``strategies`` (still the dataclass
    field) are cached views: each row's dict (the one given, or one over
    every action) and each atom's row's dict.
    """

    strategies: dict[int, dict[Atom, dict[Action, float]]]
    field_level: str = "original"

    def __init__(self, strategies: dict, field_level: str = "original"):
        rows = {}
        for player, table in strategies.items():
            acts = tuple(dict.fromkeys(itertools.chain.from_iterable(table.values())))
            grid = [[dist.get(a, 0.0) for a in acts] for dist in table.values()]
            grid = np.array(grid, float).reshape(len(table), len(acts))
            rows[player] = (tuple(table), acts, grid, np.arange(len(table)))
        dicts = {player: list(table.values()) for player, table in strategies.items()}
        self.__dict__.update(field_level=field_level, rows=rows, row_dicts=dicts)

    @classmethod
    def from_rows(cls, rows: dict, field_level: str) -> "StrategyProfile":
        profile = cls.__new__(cls)
        profile.__dict__.update(field_level=field_level, rows=rows)
        return profile

    @cached_property
    def row_dicts(self) -> dict[int, list[dict[Action, float]]]:
        return {
            j: [dict(zip(acts, row)) for row in table.tolist()]
            for j, (_, acts, table, _) in self.rows.items()
        }

    @cached_property
    def strategies(self) -> dict[int, dict[Atom, dict[Action, float]]]:
        return {
            j: dict(zip(atoms, map(self.row_dicts[j].__getitem__, at.tolist())))
            for j, (atoms, _, _, at) in self.rows.items()
        }

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

    @cached_property
    def firsts(self) -> np.ndarray:
        """Each class's first position in the state order, that of its
        representative; ``payoff_classes`` hands over its own."""
        return _group_ints(self.ids, self.count)[1]


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


def _refinement_witness(
    fine: InformationPartition, coarse: InformationPartition, by_atom: bool = False
) -> tuple[State, State] | None:
    """A pair of states in one fine atom but different coarse atoms, if
    any: a fine atom's first state and the first state, in
    ``fine.atom_of``'s order, whose coarse atom is not that one's; with
    ``by_atom``, the first such state in the first fine atom holding one."""
    keys, codes, firsts = fine._labelled
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


def _mass_fault(masses: Mapping[Hashable, float], noun: str) -> str | None:
    """Why ``masses`` is not a probability vector, or None when it is.

    The one rule for every prior, type-space joint and played
    distribution: each mass is finite and >= 0 (-0.0 is), and their
    ``math.fsum`` is within MASS_TOL of 1.  The fault names the first
    offending key, called ``noun``, or the sum.
    """
    values = list(masses.values())
    if not all(map(math.isfinite, values)) or min(values, default=0.0) < 0.0:
        key, m = next((k, m) for k, m in masses.items() if not 0.0 <= m < math.inf)
        return f"has invalid mass {m!r} at {noun} {key!r}"
    try:
        total = math.fsum(values)
    except OverflowError:  # the exact sum overflows too
        total = math.inf
    return None if abs(total - 1.0) <= MASS_TOL else f"sums to {total:.12g}"


def _uncovered(
    keys: Set[State], states: tuple[State, ...], known: set[State]
) -> tuple[list[State], list[State]]:
    """The first of ``states`` that ``keys`` lacks and the first of ``keys``
    outside ``known``, the set of ``states``: each a list of at most one."""
    if keys == known:
        return [], []
    missing = itertools.filterfalse(keys.__contains__, states)
    unknown = itertools.filterfalse(known.__contains__, keys)
    return list(itertools.islice(missing, 1)), list(itertools.islice(unknown, 1))


def _check_prior(
    violations: list[Violation],
    label: str,
    prior: Mapping[State, float],
    states: tuple[State, ...],
    known: set[State],
) -> None:
    missing, unknown = _uncovered(prior.keys(), states, known)
    for s in missing:
        violations.append(Violation("prior", f"{label} missing mass for state {s!r}"))
    for s in unknown:
        message = f"{label} assigns mass to unknown state {s!r}"
        violations.append(Violation("prior", message))
    if missing or unknown:
        return
    fault = _mass_fault({s: prior[s] for s in states}, "state")
    if fault is not None:
        violations.append(Violation("prior", f"{label} {fault}"))


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
            if not (_is_integer(player) and 1 <= player <= game.n):
                v.append(
                    Violation("prior", f"prior given for unknown player {player!r}")
                )
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
        keys = state_set if part._labelled[0] is states else part.atom_of.keys()
        missing, unknown = _uncovered(keys, states, state_set)
        for s in missing:
            message = f"player {idx} partition misses state {s!r}"
            v.append(Violation("partition", message))
        for s in unknown:
            message = f"player {idx} partition covers unknown state {s!r}"
            v.append(Violation("partition", message))

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
    elif not (
        table.max(initial=0.0) <= PAYOFF_CAP and table.min(initial=0.0) >= -PAYOFF_CAP
    ):
        # A NaN fails both comparisons.  Only an offending table pays for
        # the per-cell mask that names its first entry.
        capped = (np.abs(table) <= PAYOFF_CAP).all(axis=0)
        si, *cell = np.unravel_index(np.argmin(capped), capped.shape)
        prof = tuple(acts[a] for acts, a in zip(game.payoffs.actions, cell))
        at = f"at ({states[si]!r}, {prof!r})"
        if np.isfinite(table[(slice(None), si, *cell)]).all():
            message = f"payoff beyond the cap {PAYOFF_CAP:.4g} {at}"
        else:
            message = f"non-finite payoff {at}"
        v.append(Violation("payoffs", message))

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
    position of each group's first key.  For the hashable labels read
    from files (``InformationPartition._labelled``); integer keys go
    through ``_group_ints``."""
    first: dict[Hashable, int] = {}
    rep = np.fromiter(map(first.setdefault, keys, itertools.count()), np.intp)
    firsts = np.fromiter(first.values(), np.intp, len(first))
    dense = np.empty(len(rep), np.intp)
    dense[firsts] = np.arange(len(firsts))
    return dense[rep], firsts


# Integer keys are grouped through a table indexed by key while their
# range is at most this many times their count, and sorted otherwise, so
# no temporary outgrows a small multiple of the keys.
_TABLE_PER_KEY = 8


def _group_ints(keys: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """``_group`` of an array of nonnegative integers below ``span``: each
    key's group id, numbered by first appearance, and the position of
    each group's first key, in increasing order.

    Within ``_TABLE_PER_KEY`` keys per key of range, a table indexed by
    key takes each key's first position (``np.minimum.at``); the keys at
    their own first position open the groups, in order.  A wider range,
    such as 64-bit checksums, is grouped by a stable argsort instead:
    each run of equal keys starts at its first position, and the runs
    are ranked by it.  Both branches give the same arrays; the second
    exists only to keep memory linear in the number of keys.
    """
    count = len(keys)
    at = np.arange(count)
    if span <= _TABLE_PER_KEY * count:
        table = np.empty(span, np.intp)
        table.fill(count)
        np.minimum.at(table, keys, at)
        firsts = (table[keys] == at).nonzero()[0]
        table[keys[firsts]] = at[: len(firsts)]
        return table[keys], firsts
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    head = np.empty(count, bool)
    head[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = order[head]
    rank = starts.argsort()
    ids = np.empty(len(rank), np.intp)
    ids[rank] = at[: len(rank)]
    codes = np.empty(count, np.intp)
    codes[order] = ids[head.cumsum() - 1]
    return codes, starts[rank]


def _widen(
    key: np.ndarray, span: int, digit: np.ndarray, base: int
) -> tuple[np.ndarray, int]:
    """The combined key ``key * base + digit`` and its span, for ``key``
    below ``span`` and ``digit`` below ``base``.  ``key`` is first
    renumbered densely (``_group_ints``) only when the combined span would
    outgrow a grouping's table, so keys are folded together without a
    grouping while they fit one."""
    if span * base > _TABLE_PER_KEY * len(key):
        key, first = _group_ints(key, span)
        span = len(first)
    return key * base + digit, span * base


# A row's checksum reads evenly spaced entries of each player's part of
# it: fewer than twice this many.
_CHECKSUM_ENTRIES = 64
# Rows are read a block of states at a time, about this many entries per
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
    bytes of their rows.  Rows are read a block of states at a time, so
    no temporary grows with the array.  Callers read ``game.classes``.
    """
    table = game.payoff_array
    states = game.space.states
    rows = table.reshape(table.shape[0], len(states), -1)
    n, count, width = rows.shape
    sampled = np.arange(0, width, max(1, width // _CHECKSUM_ENTRIES))
    # The sampled entry k of a row (player-major) weighs 2k + 1.
    weights = np.arange(1, 2 * n * len(sampled), 2, dtype=np.uint64).reshape(n, -1)
    sums = np.empty(count, np.uint64)
    step = max(1, _CLASS_CHUNK // (n * len(sampled)))
    for c in range(0, count, step):
        block = rows[:, c : c + step, sampled]
        block += 0.0
        bits = block.view(np.uint64)
        # Round payoffs have all-zero low bits: fold the high half down.
        bits ^= bits >> np.uint64(32)
        sums[c : c + step] = np.einsum("isc,ic->s", bits, weights)
    checksum, first = _group_ints(sums, 1 << 64)
    rep = first[checksum]
    # Each state whose checksum an earlier state opened: is its row that one's?
    later = (rep != np.arange(count)).nonzero()[0]
    same = np.ones(len(later), bool)
    # A block of states, and of columns where one state's row alone
    # outgrows the chunk.
    step = max(1, _CLASS_CHUNK // (n * width))
    cols = max(1, _CLASS_CHUNK // (n * step))
    for c in range(0, len(later), step):
        at, reps = later[c : c + step], rep[later[c : c + step]]
        for d in range(0, width, cols):
            block = rows[:, :, d : d + cols]
            same[c : c + step] &= (block[:, at] == block[:, reps]).all(axis=(0, 2))
    # A checksum shared by unequal rows: key those states by their bytes.
    opened: dict[bytes, int] = {}
    for k in later[~same].tolist():
        rep[k] = opened.setdefault(np.add(rows[:, k], 0.0).tobytes(), k)
    ids, openers = _group_ints(rep, count) if opened else (checksum, first)
    classes = PayoffClasses(
        count=len(openers),
        representatives=tuple(map(states.__getitem__, openers.tolist())),
        ids=ids,
    )
    classes.__dict__["firsts"] = openers
    return classes


# -- expected payoffs ----------------------------------------------------------
#
# Every expectation is an fsum of products p * u, where p multiplies the
# players' action probabilities left to right in player order and u is a
# payoff.  fsum is correctly rounded, so its result depends only on the
# multiset of its nonzero terms; forming the same products in numpy and
# summing them in any order gives the same float as a loop would.  Zero
# terms, such as those of a zero-probability action, never change it.


def _played_rows(
    profile: StrategyProfile,
    player: int,
    atoms: tuple[Atom, ...],
    acts: tuple[Action, ...],
    used: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """What ``profile`` has ``player`` play at ``atoms[k]`` for each k in
    the increasing array ``used``: ``(rows, atom_row)``.

    ``rows`` is a (R, len(acts)) array of distributions distinct value by
    value (-0.0 and 0.0 alike, each with the bits of its first), in order
    of first appearance over ``used``, and atom k plays row
    ``atom_row[k]`` (0 for k not in ``used``).  The profile's atom and
    action names are mapped onto ``atoms`` and ``acts`` by one index each
    (none when they are the same).  The first atom lacking a strategy
    raises ``StrategyProfile.distribution``'s error; an action outside
    ``acts`` that a used atom names, even at zero mass, or play that is
    not a probability vector (``_mass_fault``) raises GameFormatError.
    """
    empty = ((), acts, np.zeros((0, len(acts))), np.zeros(0, np.intp))
    own_atoms, own_acts, table, row_of = profile.rows.get(player, empty)
    if own_atoms is atoms or own_atoms == atoms:
        played = row_of[used]
    else:
        index = dict(zip(own_atoms, range(len(own_atoms))))
        found = [index.get(atoms[k], -1) for k in used.tolist()]
        if -1 in found:  # raises
            profile.distribution(player, atoms[used[found.index(-1)]])
        played = row_of[found]
    if own_acts != acts:
        dists = profile.row_dicts[player]
        for a in (a for r in played.tolist() for a in dists[r] if a not in acts):
            raise GameFormatError(f"player {player} plays unknown action {a!r}")
        cols = [own_acts.index(a) if a in own_acts else -1 for a in acts]
        table = np.hstack([table, np.zeros((len(table), 1))])[:, cols]
    # Each row's first equal row (-0.0 equals 0.0), then the used atoms by that.
    seen: dict[tuple[float, ...], int] = {}
    same = [seen.setdefault(row, r) for r, row in enumerate(map(tuple, table.tolist()))]
    groups, firsts = _group_ints(np.array(same, np.intp)[played], len(table))
    rows = table[played[firsts]]
    faults = (_mass_fault(dict(zip(acts, row)), "action") for row in rows.tolist())
    fault = next(filter(None, faults), None)
    if fault is not None:
        raise GameFormatError(f"player {player} plays a distribution that {fault}")
    atom_row = np.zeros(len(atoms), np.intp)
    atom_row[used] = groups
    return rows, atom_row


def _strategies_at(
    game: NestedGame,
    profile: StrategyProfile,
    positions: np.ndarray,
    players: Iterable[int],
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per player, the distributions the profile plays at the states at
    ``positions``: ``(rows, row_of)``, ``rows`` as ``_played_rows`` reads
    them over the atoms holding those states and ``row_of[k]`` the row
    played at the k-th state of the state order (unspecified outside
    ``positions``).  The first player whose play is refused raises."""
    out = {}
    for j in players:
        atom_index = game.supports[j - 1].atom_index
        atoms = game.partitions[j - 1].ids
        used = np.zeros(len(atoms), bool)
        used[atom_index[positions]] = True
        used = np.flatnonzero(used)
        rows, atom_row = _played_rows(profile, j, atoms, game.actions_for(j), used)
        out[j] = (rows, atom_row[atom_index])
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
    table = game.payoff_array[player - 1][index]
    for k, j in enumerate(players):
        live = dists[k].any(axis=0)
        if not live.all():
            table = table.compress(live, axis=j)
            dists[k] = dists[k][:, live]
    joint = _joint(dists)
    if keep is not None:
        table = np.moveaxis(table, keep, 1)
    rows = len(game.actions_for(keep)) if keep is not None else 1
    table = table.reshape(len(index), rows, joint.shape[1])
    terms = (table * joint[:, None, :]).reshape(len(index) * rows, joint.shape[1])
    sums = [math.fsum(row) for row in terms.tolist()]
    return np.array(sums).reshape(len(index), rows)


def _support(space: StateSpace, player: int, part: InformationPartition) -> Support:
    """The player's ``Support``; callers read the cached ``game.supports``."""
    keys, codes, _ = part._labelled
    # The states atom after atom, each atom's in ``atom_of``'s order.
    positions = order = np.argsort(codes, kind="stable")
    if keys != space.states:
        at = map(space.position.__getitem__, keys)
        positions = np.fromiter(at, np.intp, len(keys))[order]
    labels, weights = codes[order], space.prior_array(player)[positions]
    masses = np.array(_fsums(weights.tolist(), np.bincount(codes).tolist()), float)
    positive = masses > 0.0
    # The weighed states: positive prior in a positive-mass atom, which
    # with nonnegative priors is positive prior alone.
    weighed = (weights > 0.0) & positive[labels]
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
    in ``partitions``: ``game`` itself when every partition is the game's
    own (the very object).  Otherwise it shares the game's space and
    tensor, so it is handed the game's ``payoff_array`` and ``classes``,
    and each player whose partition is their own keeps their ``Support``."""
    partitions = tuple(partitions)
    owned = list(map(operator.is_, partitions, game.partitions))
    if all(owned):
        return game
    supports = tuple(
        support if own else _support(game.space, i, part)
        for i, (support, part, own) in enumerate(
            zip(game.supports, partitions, owned), start=1
        )
    )
    coarse = NestedGame(space=game.space, partitions=partitions, payoffs=game.payoffs)
    coarse.__dict__.update(
        payoff_array=game.payoff_array, classes=game.classes, supports=supports
    )
    return coarse


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


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer, not a bool or a float."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_player(game: NestedGame, player: int) -> None:
    """GameFormatError unless ``player`` is one of the game's, int 1..n."""
    if not (_is_integer(player) and 1 <= player <= game.n):
        raise GameFormatError(f"the game has no player {player!r}")


def conditional_payoff(
    game: NestedGame, profile: StrategyProfile, player: int
) -> dict[Atom, float]:
    """Expected payoff to ``player`` conditional on each positive-mass
    atom of their own information.

    Zero-mass atoms are omitted: conditional values are only defined
    almost surely.  A player outside 1..n raises GameFormatError.
    """
    _check_player(game, player)
    support = game.supports[player - 1]
    by_state = _expectations(game, profile, player, support.positions)
    values = _fold_atoms(support, by_state)[:, 0].tolist()
    return dict(zip(support.ids, values))


def validate_profile(game: NestedGame, profile: StrategyProfile) -> list[str]:
    """Problems preventing ``profile`` from being evaluated on ``game``.

    Coverage is required for every atom containing a state with positive
    mass under any player's prior; distributions must be probability
    vectors (``_mass_fault``) over the owning player's actions; every
    player named must be one of the game's, an integer 1..n
    (``_check_player``'s rule), so ``1.0`` and ``True`` name no player.
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
            where = f"player {i} atom {atom!r}"
            bad = [a for a in dist if a not in actions]
            if bad:
                problems.append(f"{where} uses unknown action {bad[0]!r}")
                continue
            fault = _mass_fault(dist, "action")
            if fault is not None:
                problems.append(f"{where} distribution {fault}")
    for player in profile.strategies:
        if not (_is_integer(player) and 1 <= player <= game.n):
            problems.append(f"strategies given for unknown player {player!r}")
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
        payoffs: map from (type profile, action profile) to an n-vector;
            a key outside the type sets or the action profiles is refused.
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

    # Each type's index in its player's set; a key is checked one type at
    # a time, never against the listed product of the sets.
    index = [dict(zip(ls, range(len(ls)))) for ls in labels]

    def known(key: tuple, sets: Sequence) -> bool:
        return len(key) == n and all(map(operator.contains, sets, key))

    norm_joint: dict[tuple[str, ...], float] = {}
    for key, mass in joint.items():
        tkey = tuple(str(t) for t in key)
        if not known(tkey, index):
            raise GameFormatError(f"joint table has unknown type profile {key!r}")
        if tkey in norm_joint:
            raise GameFormatError(f"joint table repeats type profile {key!r}")
        norm_joint[tkey] = float(mass)
    fault = _mass_fault(norm_joint, "type profile")
    if fault is not None:
        raise GameFormatError(f"joint not normalized: {fault}")

    # Keyed by (state id, profile): a type profile's state id joins its
    # labels with '|', which no label holds.
    norm_payoffs: dict[tuple[str, tuple], tuple[float, ...]] = {}
    for (tkey, akey), vals in payoffs.items():
        tp, akey = tuple(str(t) for t in tkey), tuple(akey)
        if not known(tp, index):
            raise GameFormatError(f"payoff table has unknown type profile {tp!r}")
        key = ("|".join(tp), akey)
        if key in norm_payoffs:
            raise GameFormatError(f"payoff table repeats {(tp, akey)!r}")
        norm_payoffs[key] = tuple(float(x) for x in vals)

    if actions is None:
        seen: list[dict[Action, None]] = [dict() for _ in range(n)]
        for (_, akey) in norm_payoffs:
            for d, a in zip(seen, akey):
                d.setdefault(a)
        action_sets = tuple(tuple(d.keys()) for d in seen)
    else:
        if len(actions) != n:
            raise GameFormatError("actions must list one action set per player")
        action_sets = tuple(tuple(a) for a in actions)
    if any(len(a) == 0 for a in action_sets):
        raise GameFormatError("every player needs at least one action")
    action_index = [set(acts) for acts in action_sets]
    for _, akey in norm_payoffs:
        if not known(akey, action_index):
            raise GameFormatError(f"payoff table has unknown action profile {akey!r}")

    # The positive-mass type profiles in product order.
    live = [tp for tp, mass in norm_joint.items() if mass > 0.0]
    live.sort(key=lambda tp: tuple(map(dict.__getitem__, index, tp)))
    if not live:
        raise GameFormatError("no type profile has positive mass")

    states = tuple(map("|".join, live))
    prior = dict(zip(states, map(norm_joint.__getitem__, live)))

    partitions = [
        InformationPartition.from_atoms(i, states, ["|".join(t[i - 1 :]) for t in live])
        for i in range(1, n + 1)
    ]

    return NestedGame(
        space=StateSpace(states=states, prior=prior),
        partitions=tuple(partitions),
        payoffs=PayoffTensor.from_array(
            action_sets, states, _stack(norm_payoffs, states, action_sets)
        ),
    )
