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
(``harsanyi``).  ``coarse_best_response_gap`` builds its one player's
exact own-action values itself (``_state_values``, the numbers of the
table's ``values`` column) and compares them with their reconstruction
from belief centres, through the same kernel; the continuous probe audit
(``discretize.probe_harsanyi_regret``) is ``certify`` on a true-value
grid game.  ``brute_force_check`` recomputes regrets from the payoff
dict by plain enumeration, independently of this path.

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
    State,
    StrategyProfile,
    _check_player,
    _expectation_rows,
    _fold_atoms,
    _fsums,
    _group_ints,
    _strategies_at,
    _widen,
    coarsen,
)
from .hierarchy import Hierarchy

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


def _naive_conditional_value(
    game: NestedGame,
    strategies: dict[int, dict[Atom, dict[Action, float]]],
    player: int,
    members: tuple[State, ...],
    mass: float,
) -> float:
    """Deliberately plain full-product evaluation, independent of the
    factorized path used by bayesian_regret."""
    prior = game.prior_for(player)
    total = []
    for s in members:
        w = prior[s]
        if w <= 0.0:
            continue
        dists = [
            strategies[j][game.partitions[j - 1].atom_of[s]]
            for j in range(1, game.n + 1)
        ]
        for prof in game.payoffs.profiles():
            p = w
            for j, a in enumerate(prof):
                p *= dists[j].get(a, 0.0)
                if p == 0.0:
                    break
            if p != 0.0:
                total.append(p * game.payoffs.values[(s, prof)][player - 1])
    return math.fsum(total) / mass


def brute_force_check(
    game: NestedGame,
    profile: StrategyProfile,
    mixed_resolution: int | None = None,
    max_evaluations: int = 10**6,
) -> dict[tuple[int, Atom], float]:
    """Independent regret recomputation by enumerating deviations.

    Enumerates per-atom pure deviations, which suffice because payoffs
    are linear in each atom's own distribution.  When ``mixed_resolution``
    is given, every mixed deviation whose probabilities are multiples of
    1 / ``mixed_resolution`` is scanned as well, confirming the linearity
    shortcut on small instances.  Refuses to run past ``max_evaluations``
    deviations.
    """
    count = 0
    plans: list[tuple[int, Atom, list[dict[Action, float]]]] = []
    for i in range(1, game.n + 1):
        prior = game.prior_for(i)
        for atom, members in game.partition_for(i).atoms.items():
            if math.fsum(prior[s] for s in members) <= 0.0:
                continue
            actions = game.actions_for(i)
            devs: list[dict[Action, float]] = [{a: 1.0} for a in actions]
            if mixed_resolution is not None and len(actions) > 1:
                for nums in _compositions(mixed_resolution, len(actions)):
                    devs.append(
                        {
                            a: n / mixed_resolution
                            for a, n in zip(actions, nums)
                            if n > 0
                        }
                    )
            count += len(devs)
            if count > max_evaluations:
                raise GameFormatError(
                    f"brute force would exceed {max_evaluations} evaluations"
                )
            plans.append((i, atom, devs))

    out: dict[tuple[int, Atom], float] = {}
    for i, atom, devs in plans:
        prior = game.prior_for(i)
        members = game.partition_for(i).atoms[atom]
        mass = math.fsum(prior[s] for s in members)
        base = _naive_conditional_value(game, profile.strategies, i, members, mass)
        best = base
        for dev in devs:
            modified = {
                j: dict(strats) for j, strats in profile.strategies.items()
            }
            modified[i][atom] = dev
            best = max(
                best, _naive_conditional_value(game, modified, i, members, mass)
            )
        out[(i, atom)] = best - base
    return out


def _compositions(total: int, parts: int):
    """All integer compositions of ``total`` into ``parts`` nonnegative parts."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def coarse_best_response_gap(
    hierarchy: Hierarchy, profile: StrategyProfile, player: int
) -> float:
    """Gap between true conditional action values and their reconstruction
    from the belief centre, maximized over positive-mass atoms and own
    actions, on the hierarchy's game (``hierarchy.game``).

    The profile gives every player's play, the player's own included,
    since the exact values are ``bayesian_regret``'s table.  Play is read
    as rows with ``_strategies_at``, on the coarse game
    (``coarsen(game, hierarchy.coarse)``) for a coarse-level profile and
    on ``game`` for an original one: the other players' at every state,
    the player's own on their support.  Each other player must play one
    row, compared by value, throughout each of their coarse atoms.  The
    reconstruction weighs, per signal support value, the payoff matrix
    of that value's class against the opponents' rows on the coarse
    atoms induced by the value combined with the player's own observed
    belief tuple.  Signal values that never co-occur with the observed
    tuple have no realized coarse atom; opponents are assigned uniform
    play there, which keeps the reconstruction bounded by the payoff
    bound and so preserves the guarantee regardless of the convention.
    A player outside 1..n raises GameFormatError.
    """
    game = hierarchy.game
    _check_player(game, player)
    level = hierarchy.level(player)
    n = game.n
    others = [j for j in range(1, n + 1) if j != player]
    states, position = game.space.states, game.space.position
    support = game.supports[player - 1]
    source = game
    if profile.field_level == "coarse":
        source = coarsen(game, hierarchy.coarse)
    # Keyed in player order, as ``_state_values`` takes them.
    plays = _strategies_at(source, profile, np.arange(len(states)), others)
    plays.update(_strategies_at(source, profile, support.positions, [player]))
    plays = dict(sorted(plays.items()))

    # Per other player: their rows with a uniform one appended, and the
    # row they play at each belief tuple (levels j..n) some state
    # realizes.  The states realizing a tuple make up one of the player's
    # coarse atoms, so the row must not depend on the state.
    tables, row_at = {}, {}
    for j in others:
        rows, row_of = plays[j]
        tails = zip(*(hierarchy.level(k).beliefs.tolist() for k in range(j, n + 1)))
        pairs = set(zip(tails, row_of.tolist()))
        row_at[j] = dict(pairs)
        if len(row_at[j]) < len(pairs):
            raise GameFormatError(
                f"player {j} strategy is not constant on coarse atoms"
            )
        tables[j] = np.vstack([rows, np.full(rows.shape[1], 1.0 / rows.shape[1])])

    # Exact conditional value of each own action, per positive-mass atom:
    # ``bayesian_regret``'s ``values`` column, for this player alone.
    by_state = _state_values(game, player, plays, support.positions)
    exact = _fold_atoms(support, by_state)[:, :-1]
    # Reconstruction from the belief centre: one row per (atom, centre
    # signal), the signal's class representative against the others'
    # play on the coarse atoms the signal induces.  The own belief tuple
    # at levels player..n is constant on the atom.
    counts, weights, index = [], [], []
    picks: dict[int, list[int]] = {j: [] for j in others}
    # Each atom's first weighed state.
    starts = np.cumsum(support.sizes) - support.sizes
    for at in support.positions[starts].tolist():
        own_tail = tuple(
            int(hierarchy.level(j).beliefs[at]) for j in range(player, n + 1)
        )
        centre = level.belief_support[own_tail[0]]
        counts.append(len(centre))
        for z_idx, weight in centre.items():
            z = level.signal_support[z_idx]
            # z = (belief indices at levels 1..player-1, payoff class).
            weights.append(weight)
            index.append(position[game.classes.representatives[z[-1]]])
            full_key = z[:-1] + own_tail
            for j in others:
                picks[j].append(row_at[j].get(full_key[j - 1 :], len(tables[j]) - 1))
    dists = [tables[j][np.array(picks[j], np.intp)] for j in others]
    values = _expectation_rows(game, player, dists, index, keep=player)
    # Each column: one own action's weighted value at every row, summed
    # per atom over its centre's rows.
    columns = (np.array(weights)[:, None] * values).T.tolist()
    sums = np.array([_fsums(column, counts) for column in columns], float)
    approx = sums.reshape(len(columns), len(counts)).T
    return float(np.abs(exact - approx).max(initial=0.0))
