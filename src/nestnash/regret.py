"""Exact regret certification.

A certificate produced by this module depends only on the game, the
profile, and float arithmetic; never on how the profile was found.  It
shares no state with the solver and imports nothing from it.

Each conditional value is a nest of ``math.fsum`` calls: per state,
the sum over the others' joint actions of p * u, where p multiplies
their action probabilities left to right in player order and u is a
payoff; then per atom, the sum of the prior-weighted state values;
then a division by the atom's mass.  fsum returns the correctly rounded
sum of its terms, so its result depends only on the multiset of terms,
not on their order, and a zero term never changes it.  The evaluator's
kernel (``game._expectation_rows``) forms every term with the same
float multiplications as a plain loop, for a whole array of states at
once, so each certificate is the float that loop gives, bit for bit;
``tests/data/certificates.json`` pins it.  ``game._fold_atoms`` is the
one place that turns per-state values into per-atom conditional
values.

Both guarantees come from one per-atom table of own-action values,
which ``bayesian_regret`` builds: per player a ``PlayerRegret`` of
columns over the atoms.  A Bayesian epsilon-equilibrium bounds every
atom's regret (``max_regret``), a Harsanyi one the prior-weighted sum
(``harsanyi``).  The continuous probe audit
(``discretize.probe_harsanyi_regret``) is ``certify`` on a true-value
grid game.  The tests recompute regrets from the payoff dict by plain
enumeration (``tests/oracles.py``), independently of this path.

Every verdict in the package, finite or continuous, takes one pass
rule, ``within_bound``, and both negative-regret checks take one floor,
``below_floor``.  No other module reads ``CERT_SLACK``.

``bayesian_regret`` sums each distinct state row once.  It keys every
weighed state by its payoff class (``game.classes``, a function of the
game's own payoff array) and by the distribution row each other player
plays there, rows compared by value; the row of the profile's own value
also keys on the player's own distribution.  The kernel runs on the
first state of each key and the others copy its row.  This is exact:
two states in one payoff class have payoff rows equal value by value,
and equal distributions give equal probabilities p, so their nonzero
products p * u are the same floats, bit for bit.  Where the rows differ
at all, it is in the sign of a zero (a -0.0 payoff or probability),
which only changes zero terms.  fsum ignores zero terms and returns
0.0, never -0.0, even for an all-zero or empty sum (checked on Python
3.10 to 3.13), so both states get the same float.

Per-atom (interim) regret for player i on an atom of their information
is the gap between the best conditional payoff achievable with any
action and the conditional payoff of the profile.  Pure deviations
suffice because conditional payoff is linear in the player's own
distribution on each atom.  Ex-ante regret weights the per-atom gaps by
the prior; the pointwise best response is simultaneously the best
ex-ante deviation, so no extra search is needed.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .game import (
    DERIVED_TOL,
    Action,
    Atom,
    GameFormatError,
    NestedGame,
    StrategyProfile,
    _expectation_rows,
    _fold_atoms,
    _group_ints,
    _strategies_at,
    _widen,
)

# Fixed certification slack absorbing float error in threshold comparisons.
CERT_SLACK = 1e-9


def within_bound(value: float, bound: float) -> bool:
    """The pass rule of every certificate."""
    return value <= bound + CERT_SLACK


def below_floor(regret):
    """Whether a regret (or each of an array) signals a broken invariant."""
    return regret < -CERT_SLACK


class ConsistencyError(RuntimeError):
    """An internally inconsistent quantity, for example regret below -1e-9."""


@dataclass(frozen=True)
class PlayerRegret:
    """One player's certificate, as columns over the positive-mass atoms
    of their own information in support order (``game.supports``).

    Per atom: its id, its mass, its regret, the best and the current
    conditional value, ``values``, the conditional value of each own
    action in ``game.actions_for`` order, and ``best_actions``, the
    actions within DERIVED_TOL of the best value, so that exact ties
    survive float noise.
    """

    atoms: tuple[Atom, ...]
    mass: tuple[float, ...]
    regret: tuple[float, ...]
    best_value: tuple[float, ...]
    current_value: tuple[float, ...]
    values: tuple[tuple[float, ...], ...]
    best_actions: tuple[tuple[Action, ...], ...]


@dataclass(frozen=True)
class RegretReport:
    epsilon: float
    slack: float
    players: dict[int, PlayerRegret]
    harsanyi: dict[int, float]
    max_regret: float
    witness: tuple[int, Atom, Action] | None
    passed: bool


def _state_values(
    game: NestedGame,
    player: int,
    strategies: dict[int, tuple[np.ndarray, np.ndarray]],
    positions: np.ndarray,
) -> np.ndarray:
    """Per state at ``positions``: the player's value of each own action,
    then the profile's value, from ``strategies`` as
    ``game._strategies_at`` returns them for every player.

    Each kernel runs once per distinct state key: the payoff class and
    the row each other player plays, plus, for the profile's value, the
    row the player plays.  States sharing a key share their values bit
    for bit (see the module docstring).  The others' rows are folded into
    one integer key (``_widen``), renumbered only where its range would
    outgrow a grouping's table.
    """
    others = [j for j in strategies if j != player]
    key, span = game.classes.ids[positions], game.classes.count
    for j in others:
        rows, row_of = strategies[j]
        key, span = _widen(key, span, row_of[positions], len(rows))
    group, first = _group_ints(key, span)
    own_rows, own_row_of = strategies[player]
    current, current_first = _group_ints(
        group * len(own_rows) + own_row_of[positions], len(first) * len(own_rows)
    )

    def rows(reps: np.ndarray, players) -> list[np.ndarray]:
        return [strategies[j][0][strategies[j][1][reps]] for j in players]

    reps = positions[first]
    values = _expectation_rows(game, player, rows(reps, others), reps, keep=player)
    reps = positions[current_first]
    totals = _expectation_rows(game, player, rows(reps, strategies), reps)
    return np.hstack([values[group], totals[current]])


def bayesian_regret(
    game: NestedGame, profile: StrategyProfile
) -> dict[int, PlayerRegret]:
    """Exact per-atom regret for every player on their own information.

    The profile's distributions are read once, at every state some
    player weighs.  Per player, the own-action values and the current
    values (as ``conditional_payoff``) are evaluated once per distinct
    state key (``_state_values``) and folded into one (atoms, actions +
    1) array, over which the best responses and regrets are taken.

    Regret is mathematically nonnegative; a value below -1e-9 signals a
    broken invariant somewhere and raises rather than being clipped.
    Raises InvalidGameError unless the game is valid.
    """
    game.require_valid()
    players = range(1, game.n + 1)
    supports = game.supports
    weighed = np.concatenate([support.positions for support in supports])
    strategies = _strategies_at(game, profile, weighed, players)

    out: dict[int, PlayerRegret] = {}
    for i, support in zip(players, supports):
        by_state = _state_values(game, i, strategies, support.positions)
        table = _fold_atoms(support, by_state)
        values, current = table[:, :-1], table[:, -1]
        # Each value is an fsum divided by a mass, never -0.0, so the
        # row maximum is the float ``max`` over the row would return.
        best = values.max(axis=1)
        regret = best - current
        negative = np.flatnonzero(below_floor(regret))
        if negative.size:
            k = int(negative[0])
            raise ConsistencyError(
                f"negative regret {float(regret[k])!r} for player {i} "
                f"at atom {support.ids[k]!r}"
            )
        # Each distinct pattern of best actions is listed once.  Rows are
        # zipped from the columns, so no per-atom list is built.
        tops = list(zip(*(values >= (best - DERIVED_TOL)[:, None]).T.tolist()))
        actions = game.actions_for(i)
        listed = {t: tuple(itertools.compress(actions, t)) for t in dict.fromkeys(tops)}
        out[i] = PlayerRegret(
            atoms=support.ids,
            mass=tuple(support.masses[support.masses > 0.0].tolist()),
            regret=tuple(regret.tolist()),
            best_value=tuple(best.tolist()),
            current_value=tuple(current.tolist()),
            values=tuple(zip(*values.T.tolist())),
            best_actions=tuple(map(listed.__getitem__, tops)),
        )
    return out


def certify(game: NestedGame, profile: StrategyProfile, epsilon: float) -> RegretReport:
    """Full regret certificate against a target epsilon: ``regret_report``
    of the profile's ``bayesian_regret`` table."""
    return regret_report(bayesian_regret(game, profile), epsilon)


def regret_report(table: dict[int, PlayerRegret], epsilon: float) -> RegretReport:
    """The certificate of a ``bayesian_regret`` table against epsilon.

    Passes when both the worst per-atom regret and the worst ex-ante
    regret are within epsilon plus the fixed slack.  The witness names
    the player, atom, and deviating action realizing the worst regret,
    the first such atom in player order and then in the table's order.
    Raises GameFormatError unless 0 <= epsilon < inf: an infinite
    epsilon would pass every profile, and a NaN one none.
    """
    if not 0.0 <= epsilon < math.inf:
        raise GameFormatError("epsilon must be finite and nonnegative")
    players = dict(sorted(table.items()))
    # Each atom's mass times ``max(0.0, regret)``, mapped at C level.
    harsanyi = {
        i: math.fsum(
            map(operator.mul, p.mass, map(max, itertools.repeat(0.0), p.regret))
        )
        for i, p in players.items()
    }
    max_regret = max(
        itertools.chain.from_iterable(p.regret for p in players.values()),
        default=0.0,
    )
    witness = next(
        (
            (i, atom, best[0])
            for i, p in players.items()
            for atom, r, best in zip(p.atoms, p.regret, p.best_actions)
            if r == max_regret and best
        ),
        None,
    )
    worst_harsanyi = max(harsanyi.values(), default=0.0)
    passed = all(within_bound(r, epsilon) for r in (max_regret, worst_harsanyi))
    return RegretReport(
        epsilon=epsilon,
        slack=CERT_SLACK,
        players=players,
        harsanyi=harsanyi,
        max_regret=max_regret,
        witness=witness,
        passed=passed,
    )
