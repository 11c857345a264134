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
values.  ``coarse_best_response_gap`` runs the kernel on its
reconstruction from belief centres; the continuous probe audit
(``discretize.probe_harsanyi_regret``) is ``certify`` on a true-value
grid game.  ``brute_force_check`` recomputes regrets from the payoff
dict by plain enumeration, independently of this path.

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

import math
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
    _atom_values,
    _expectation_rows,
    _fold_atoms,
    _group,
    _strategies_at,
)
from .hierarchy import Hierarchy

# Fixed certification slack absorbing float error in threshold comparisons.
CERT_SLACK = 1e-9


class ConsistencyError(RuntimeError):
    """An internally inconsistent quantity, for example regret below -1e-9."""


@dataclass(frozen=True)
class BestResponse:
    """Conditional payoff of each action on one atom, with its argmax set."""

    values: dict[Action, float]
    value: float
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class AtomRegret:
    player: int
    atom: Atom
    mass: float
    regret: float
    best_value: float
    current_value: float
    best_actions: tuple[Action, ...]


@dataclass(frozen=True)
class RegretReport:
    epsilon: float
    slack: float
    atoms: tuple[AtomRegret, ...]
    harsanyi: dict[int, float]
    max_regret: float
    witness: tuple[int, Atom, Action] | None
    passed: bool


def _best_response(actions: tuple[Action, ...], values: list[float]) -> BestResponse:
    top = max(values)
    argmax = tuple(a for a, v in zip(actions, values) if v >= top - DERIVED_TOL)
    return BestResponse(values=dict(zip(actions, values)), value=top, actions=argmax)


def best_response_values(
    game: NestedGame, profile: StrategyProfile, player: int
) -> dict[Atom, BestResponse]:
    """Per positive-mass atom of the player's information: conditional
    value of each own action, the others following ``profile``.

    The argmax set collects actions within DERIVED_TOL of the maximum,
    so exact ties survive float noise.
    """
    actions = game.actions_for(player)
    return {
        atom: _best_response(actions, values)
        for atom, _, values in _atom_values(game, profile, player, keep=player)
    }


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
    for bit (see the module docstring).
    """
    others = [j for j in strategies if j != player]
    keys = zip(
        game.classes.ids[positions].tolist(),
        *[strategies[j][1][positions].tolist() for j in others],
    )
    group, first = _group(keys)
    own_rows, own_row_of = strategies[player]
    current, current_first = _group(
        (group * len(own_rows) + own_row_of[positions]).tolist()
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
) -> dict[int, dict[Atom, AtomRegret]]:
    """Exact per-atom regret for every player on their own information.

    The profile's distributions are read once, at every state some
    player weighs.  Per player, the own-action values (as
    ``best_response_values``) and the current values (as
    ``conditional_payoff``) are evaluated once per distinct state key
    (``_state_values``) and folded into one (atoms, actions + 1) array,
    over which the best responses and regrets are taken.

    Regret is mathematically nonnegative; a value below -1e-9 signals a
    broken invariant somewhere and raises rather than being clipped.
    """
    players = range(1, game.n + 1)
    supports = game.supports
    weighed = np.concatenate([support.positions for support in supports])
    strategies = _strategies_at(game, profile, weighed, players)

    out: dict[int, dict[Atom, AtomRegret]] = {}
    for i, support in zip(players, supports):
        by_state = _state_values(game, i, strategies, support.positions)
        table = _fold_atoms(support, by_state)
        values, current = table[:, :-1], table[:, -1]
        # Each value is an fsum divided by a mass, never -0.0, so the
        # row maximum is the float ``max`` over the row would return.
        best = values.max(axis=1)
        regret = best - current
        negative = np.flatnonzero(regret < -CERT_SLACK)
        if negative.size:
            k = int(negative[0])
            raise ConsistencyError(
                f"negative regret {float(regret[k])!r} for player {i} "
                f"at atom {support.atoms[k][0]!r}"
            )
        argmax = (values >= (best - DERIVED_TOL)[:, None]).tolist()
        actions = game.actions_for(i)
        out[i] = {
            atom: AtomRegret(
                player=i,
                atom=atom,
                mass=mass,
                regret=r,
                best_value=b,
                current_value=c,
                best_actions=tuple(a for a, top in zip(actions, tops) if top),
            )
            for (atom, mass, _), r, b, c, tops in zip(
                support.atoms, regret.tolist(), best.tolist(), current.tolist(), argmax
            )
        }
    return out


def certify(game: NestedGame, profile: StrategyProfile, epsilon: float) -> RegretReport:
    """Full regret certificate against a target epsilon: ``regret_report``
    of the profile's ``bayesian_regret`` table."""
    return regret_report(bayesian_regret(game, profile), epsilon)


def regret_report(
    table: dict[int, dict[Atom, AtomRegret]], epsilon: float
) -> RegretReport:
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
    atoms: list[AtomRegret] = []
    for i in sorted(table):
        atoms.extend(table[i].values())
    harsanyi = {
        i: math.fsum(e.mass * max(0.0, e.regret) for e in table[i].values())
        for i in sorted(table)
    }
    max_regret = max((e.regret for e in atoms), default=0.0)
    witness = None
    for e in atoms:
        if e.regret == max_regret and e.best_actions:
            witness = (e.player, e.atom, e.best_actions[0])
            break
    worst_harsanyi = max(harsanyi.values(), default=0.0)
    passed = max_regret <= epsilon + CERT_SLACK and worst_harsanyi <= epsilon + CERT_SLACK
    return RegretReport(
        epsilon=epsilon,
        slack=CERT_SLACK,
        atoms=tuple(atoms),
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
    factorized path used by best_response_values."""
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
    game: NestedGame,
    hierarchy: Hierarchy,
    profile: StrategyProfile,
    player: int,
) -> float:
    """Gap between true conditional action values and their reconstruction
    from the belief centre, maximized over positive-mass atoms and own
    actions.

    The other players' strategies must be measurable with respect to
    their coarse partitions.  The reconstruction weighs, per signal
    support value, the payoff matrix of that value's class against the
    opponents' play on the coarse atoms induced by the value combined
    with the player's own observed belief tuple.  Signal values that
    never co-occur with the observed tuple have no realized coarse atom;
    opponents are assigned uniform play there, which keeps the
    reconstruction bounded by the payoff bound and so preserves the
    guarantee regardless of the convention.
    """
    level = hierarchy.level(player)
    n = game.n
    others = [j for j in range(1, n + 1) if j != player]

    # Opponent strategies as functions of their coarse atoms.
    coarse_strats: dict[int, dict[Atom, dict[Action, float]]] = {}
    for j in others:
        part_j = hierarchy.coarse_partition(j)
        strat: dict[Atom, dict[Action, float]] = {}
        if profile.field_level == "coarse":
            strat = profile.strategies[j]
        else:
            for atom, members in part_j.atoms.items():
                first = profile.distribution(j, game.partitions[j - 1].atom_of[members[0]])
                for s in members[1:]:
                    d = profile.distribution(j, game.partitions[j - 1].atom_of[s])
                    if d != first:
                        raise GameFormatError(
                            f"player {j} strategy is not constant on coarse atoms"
                        )
                strat[atom] = first
        coarse_strats[j] = strat

    # The exact side evaluates opponents at original atoms, so a profile
    # given on coarse atoms is copied down to the original partitions.
    if profile.field_level == "coarse":
        lifted: dict[int, dict[Atom, dict[Action, float]]] = {}
        for j in others:
            part_j = game.partition_for(j)
            coarse_j = hierarchy.coarse_partition(j)
            lifted[j] = {
                part_j.atom_of[s]: profile.distribution(j, coarse_j.atom_of[s])
                for s in game.space.states
            }
        eval_profile = StrategyProfile(strategies=lifted, field_level="original")
    else:
        eval_profile = profile

    uniform = {
        j: {a: 1.0 / len(game.actions_for(j)) for a in game.actions_for(j)}
        for j in others
    }

    own_actions = game.actions_for(player)
    partition = game.partition_for(player)
    position = game.space.position

    # Exact conditional value of each own action, per positive-mass atom.
    exact = best_response_values(game, eval_profile, player)
    # Reconstruction from the belief centre: one row per (atom, centre
    # signal), the signal's class representative against the others'
    # play on the coarse atoms the signal induces.  The own belief tuple
    # at levels player..n is constant on the atom.
    counts: list[int] = []
    weights: list[float] = []
    index: list[int] = []
    rows: dict[int, list[dict[Action, float]]] = {j: [] for j in others}
    for atom in exact:
        at = position[partition.atoms[atom][0]]
        own_tail = tuple(
            int(hierarchy.level(j).beliefs[at]) for j in range(player, n + 1)
        )
        centre = level.belief_support[own_tail[0]]
        counts.append(len(centre))
        for z_idx, weight in centre.items():
            z = level.signal_support[z_idx]
            # z = (belief indices at levels 1..player-1, payoff class).
            weights.append(weight)
            index.append(position[hierarchy.classes.representatives[z[-1]]])
            full_key = z[:-1] + own_tail
            for j in others:
                atom_j = hierarchy.atom_for_key(j, full_key[j - 1 :])
                rows[j].append(
                    uniform[j] if atom_j is None else coarse_strats[j][atom_j]
                )
    dists = [
        np.array(
            [[d.get(a, 0.0) for a in game.actions_for(j)] for d in rows[j]], float
        ).reshape(len(index), len(game.actions_for(j)))
        for j in others
    ]
    values = _expectation_rows(game, player, dists, index, keep=player)
    # Each column: one own action's weighted value at every row.
    columns = (np.array(weights)[:, None] * values).T.tolist()

    worst = 0.0
    start = 0
    for br, count in zip(exact.values(), counts):
        stop = start + count
        for a, col in zip(own_actions, columns):
            worst = max(worst, abs(br.values[a] - math.fsum(col[start:stop])))
        start = stop
    return worst
