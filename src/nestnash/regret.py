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
not on their order, and a zero term never changes it.  The evaluator
(``game._expectations``) forms every term with the same float
multiplications as a plain loop, for a whole array of states at once,
so each certificate is the float that loop gives, bit for bit;
``tests/data/certificates.json`` pins it.  ``brute_force_check``
recomputes regrets from the payoff dict by plain enumeration,
independently of this path.

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
from dataclasses import dataclass

import numpy as np

from .game import (
    DERIVED_TOL,
    Action,
    Atom,
    GameFormatError,
    InformationPartition,
    NestedGame,
    State,
    StrategyProfile,
    _expectations,
    _support,
    conditional_payoff,
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


def _merge(player: int, own: Action, combo: tuple[Action, ...]) -> tuple[Action, ...]:
    return combo[: player - 1] + (own,) + combo[player - 1 :]


def best_response_values(
    game: NestedGame,
    profile: StrategyProfile,
    player: int,
    partition: InformationPartition | None = None,
) -> dict[Atom, BestResponse]:
    """Per positive-mass atom: conditional value of each own action.

    Other players follow ``profile``.  The argmax set collects actions
    within DERIVED_TOL of the maximum, so exact ties survive float noise.
    """
    part = partition if partition is not None else game.partition_for(player)
    prior = game.prior_for(player)
    own_actions = game.actions_for(player)
    support = _support(game, part, player)
    states = [s for _, _, members in support for s in members]
    weights = np.array([prior[s] for s in states])
    by_state = _expectations(game, profile, player, states, keep=player)
    # One list per own action: its prior-weighted value at each state.
    columns = (weights[:, None] * by_state).T.tolist()
    out: dict[Atom, BestResponse] = {}
    start = 0
    for atom, mass, members in support:
        stop = start + len(members)
        values = {
            a: math.fsum(col[start:stop]) / mass
            for a, col in zip(own_actions, columns)
        }
        start = stop
        top = max(values.values())
        argmax = tuple(a for a in own_actions if values[a] >= top - DERIVED_TOL)
        out[atom] = BestResponse(values=values, value=top, actions=argmax)
    return out


def bayesian_regret(
    game: NestedGame, profile: StrategyProfile
) -> dict[int, dict[Atom, AtomRegret]]:
    """Exact per-atom regret for every player on their own information.

    Regret is mathematically nonnegative; a value below -1e-9 signals a
    broken invariant somewhere and raises rather than being clipped.
    """
    out: dict[int, dict[Atom, AtomRegret]] = {}
    for i in range(1, game.n + 1):
        part = game.partition_for(i)
        prior = game.prior_for(i)
        br = best_response_values(game, profile, i)
        current = conditional_payoff(game, profile, i)
        table: dict[Atom, AtomRegret] = {}
        for atom in br:
            regret = br[atom].value - current[atom]
            if regret < -CERT_SLACK:
                raise ConsistencyError(
                    f"negative regret {regret!r} for player {i} at atom {atom!r}"
                )
            members = part.atoms[atom]
            table[atom] = AtomRegret(
                player=i,
                atom=atom,
                mass=math.fsum(prior[s] for s in members),
                regret=regret,
                best_value=br[atom].value,
                current_value=current[atom],
                best_actions=br[atom].actions,
            )
        out[i] = table
    return out


def certify(game: NestedGame, profile: StrategyProfile, epsilon: float) -> RegretReport:
    """Full regret certificate against a target epsilon.

    Passes when both the worst per-atom regret and the worst ex-ante
    regret are within epsilon plus the fixed slack.  The witness names
    the player, atom, and deviating action realizing the worst regret.
    """
    table = bayesian_regret(game, profile)
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

    worst = 0.0
    # Exact conditional value of each own action, per positive-mass atom.
    for atom, exact in best_response_values(game, eval_profile, player).items():
        rep = partition.atoms[atom][0]
        # Reconstruction from the belief centre.  The own belief tuple at
        # levels player..n is constant on the atom.
        own_tail = tuple(
            hierarchy.level(j).belief_of[rep] for j in range(player, n + 1)
        )
        centre = level.belief_support[level.belief_of[rep]]
        recon: dict[Action, list[float]] = {a: [] for a in own_actions}
        for z_idx, weight in centre.items():
            z = level.signal_support[z_idx]
            # z = (belief indices at levels 1..player-1, payoff class).
            class_rep = hierarchy.classes.representatives[z[-1]]
            full_key = z[:-1] + own_tail
            dists = []
            for j in others:
                key_j = full_key[j - 1 :]
                atom_j = hierarchy.atom_for_key(j, key_j)
                if atom_j is None:
                    dists.append(uniform[j])
                else:
                    dists.append(coarse_strats[j][atom_j])
            for a in own_actions:
                acc = []
                for combo in itertools.product(*(game.actions_for(j) for j in others)):
                    p = 1.0
                    for d, act in zip(dists, combo):
                        p *= d.get(act, 0.0)
                        if p == 0.0:
                            break
                    if p != 0.0:
                        acc.append(
                            p
                            * game.payoffs.values[
                                (class_rep, _merge(player, a, combo))
                            ][player - 1]
                        )
                recon[a].append(weight * math.fsum(acc))
        for a in own_actions:
            worst = max(worst, abs(exact.values[a] - math.fsum(recon[a])))
    return worst
