"""The solve pipeline: one call from a finite game to a certified profile.

A coarse profile whose certified regret is rho lifts to a Bayesian
``delta * M * A + rho`` equilibrium of the original game, where ``M`` is
the payoff bound and ``A`` the number of joint action profiles.  By
default ``delta = epsilon / (2 M A)`` and the solver aims for
``rho = epsilon / 2``, which lands the lifted profile at ``epsilon``.
The bound needs one fact from the hierarchy: every original atom's
belief, and hence every coarse atom's mixture of them, lies within
``delta`` (L1) of one cluster centre.  The stages run in order:
validation, belief hierarchy, auxiliary game and its structural audit,
agent-form solve, lift, exact certificate.

The auxiliary game is the quotient of the coarse game: one state per
class of states sharing player 1's coarse atom (and so every player's)
and their payoff class, with each prior summed over the class.  In
player i's conditional value of an action on a coarse atom, each
state's term p_i(s) * sigma_-i(coarse atoms at s) * u_i(s, .) depends
on s only through its class, so summing p_i over the class leaves every
conditional action value, and so rho, unchanged in exact arithmetic.
The final certificate is computed on the original game, so the lifted
profile's guarantee never rests on the quotient.

When the hierarchy merges nothing, the coarse game is the original game
with its atoms renamed, and the solver has already certified the coarse
profile on it.  That is the case when the quotient merged no states (the
coarse game shares the game's state space and payoff array) and every
player's coarse partition has as many atoms as their own; their own
refines the coarse one (the audit checked it), so each coarse atom then
holds exactly the states of one original atom.  The final certificate
is then the coarse one with each atom renamed to the original atom with
the same members, listed in the original game's atom order, and its
witness and verdict taken again against ``epsilon`` (``regret_report``).
This is the certificate ``certify`` gives on the original game, bit for
bit: the two games share the state space, the priors, the payoff array
and the payoff classes; each atom has the same members, and the lift
copies its coarse atom's distribution.  So every kernel row and every
fold sums the same multiset of terms, and ``math.fsum`` is correctly
rounded, so the order of the members does not matter.  In every other
case the lifted profile is certified on the original game anew.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .game import GameFormatError, NestedGame, StrategyProfile, payoff_bound
from .hierarchy import Hierarchy, PropertyReport, build_hierarchy
from .regret import RegretReport, certify, regret_report
from .solver import (
    SolveResult,
    SolverConfig,
    build_auxiliary_game,
    lift_strategy,
    solve_nash,
    to_agent_form,
)


@dataclass(frozen=True)
class Solution:
    """Every stage's output of one ``solve``.

    ``profile`` is the lifted profile on the game's own information and
    ``report`` its exact certificate against ``epsilon``;
    ``result.profile`` is the coarse profile the solver returned and
    ``result.report`` its certificate on the coarse game.  When the
    hierarchy merges nothing, ``report`` is ``result.report`` with its
    atoms renamed and its verdict taken against ``epsilon``, which is
    exactly the original game's certificate (see the module docstring).
    ``transfer_bound`` is ``delta * payoff_bound * action_profiles``
    plus the coarse profile's certified regret.
    """

    delta: float
    target: float
    payoff_bound: float
    action_profiles: int
    hierarchy: Hierarchy
    checks: PropertyReport
    result: SolveResult
    profile: StrategyProfile
    report: RegretReport
    transfer_bound: float


def solve(
    game: NestedGame,
    epsilon: float,
    *,
    delta: float | None = None,
    target: float | None = None,
    seed: int = 0,
) -> Solution:
    """Solve ``game`` to a lifted profile certified against ``epsilon``.

    ``delta`` (belief accuracy) defaults to ``epsilon / (2 M A)``
    and ``target`` (the coarse solver's regret goal) to ``epsilon / 2``.
    Raises InvalidGameError before any arithmetic when the game fails
    validation, and GameFormatError when ``epsilon`` is not finite and
    positive, ``delta`` is not positive, or the default ``delta``
    underflows to 0.
    """
    game.require_valid()
    if not 0.0 < epsilon < math.inf:
        raise GameFormatError("epsilon must be finite and positive")
    bound = payoff_bound(game)
    profiles = math.prod(len(acts) for acts in game.payoffs.actions)
    if delta is None:
        delta = epsilon / (2.0 * bound * profiles)
        if not delta > 0.0:
            raise GameFormatError(
                f"the default delta = epsilon / (2 M A) underflows to 0 at "
                f"epsilon = {epsilon!r}, M = {bound!r}, A = {profiles}"
            )
    elif not delta > 0.0:
        raise GameFormatError("delta must be positive")
    if target is None:
        target = epsilon / 2.0

    hierarchy = build_hierarchy(game, delta)
    aux = build_auxiliary_game(game, hierarchy)
    result = solve_nash(
        to_agent_form(aux), SolverConfig(target_regret=target, seed=seed)
    )
    lifted = lift_strategy(result.profile, game, hierarchy)
    renames = aux.coarse_game.space is game.space and all(
        len(coarse.ids) == len(part.ids)
        for coarse, part in zip(hierarchy.coarse, game.partitions)
    )
    if renames:
        report = _renamed(result.report, game, hierarchy, epsilon)
    else:
        report = certify(game, lifted, epsilon)
    return Solution(
        delta=delta,
        target=target,
        payoff_bound=bound,
        action_profiles=profiles,
        hierarchy=hierarchy,
        checks=aux.checks,
        result=result,
        profile=lifted,
        report=report,
        transfer_bound=delta * bound * profiles + result.certified_regret,
    )


def _renamed(
    report: RegretReport, game: NestedGame, hierarchy: Hierarchy, epsilon: float
) -> RegretReport:
    """The coarse game's certificate ``report`` on the original game, when
    each coarse atom holds exactly the states of one original atom: each
    atom renamed to the original one, in the original game's atom order,
    against ``epsilon``."""
    by_atom = {(e.player, e.atom): e for e in report.atoms}
    table = {}
    for i, (support, coarse) in enumerate(zip(game.supports, hierarchy.coarse), 1):
        parent = coarse.atom_of
        table[i] = {
            atom: dataclasses.replace(by_atom[i, parent[members[0]]], atom=atom)
            for atom, _, members in support.atoms
        }
    return regret_report(table, epsilon)
