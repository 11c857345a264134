"""The solve pipeline: one call from a finite game to a certified profile.

A coarse profile whose certified regret is rho lifts to a Bayesian
``delta * M * A + rho`` equilibrium of the original game, where ``M`` is
the payoff bound and ``A`` the number of joint action profiles.  By
default ``delta = epsilon / (2 M A)`` and the solver aims for
``rho = epsilon / 2``, which lands the lifted profile at ``epsilon``.
The bound needs one fact from the hierarchy: every original atom's
belief, and hence every coarse atom's mixture of them, lies within
``delta`` (L1) of one cluster centre.  The stages run in order:
validation, belief hierarchy, its structural audit, auxiliary game,
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

When the hierarchy merges nothing, every player keeps their own
partition and the quotient keeps every state, so the coarse game is the
original game itself (``build_auxiliary_game`` returns it).  The lift
then copies each atom's distribution onto the same atom, and the
solver's certificate, taken again against ``epsilon``
(``regret_report``), is the final one.  In every other case the lifted
profile is certified on the original game anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .game import GameFormatError, NestedGame, StrategyProfile, payoff_bound
from .hierarchy import Hierarchy, build_hierarchy
from .regret import RegretReport, certify, regret_report
from .solver import (
    SolveResult,
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
    hierarchy merges nothing, the coarse game is the game itself, and
    ``report`` is ``result.report`` with its verdict taken against
    ``epsilon`` (see the module docstring).
    The belief accuracy ``delta`` and the structural audit are read off
    the hierarchy (``hierarchy.delta``, ``hierarchy.audit``), and the
    solver's regret target off its certificate (``result.report.epsilon``).
    ``transfer_bound`` is ``delta * M * A`` plus the coarse profile's
    certified regret, with M the game's ``payoff_bound`` and A its
    number of action profiles.
    """

    hierarchy: Hierarchy
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
    positive, ``delta`` is not positive, the default ``delta``
    underflows to 0, or the belief term ``delta * M * A`` overflows.
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
    elif not delta * bound * profiles < math.inf:
        raise GameFormatError(f"delta * M * A overflows at delta = {delta!r}")
    if target is None:
        target = epsilon / 2.0

    hierarchy = build_hierarchy(game, delta)
    coarse_game = build_auxiliary_game(hierarchy)
    result = solve_nash(to_agent_form(coarse_game), target, seed)
    lifted = lift_strategy(result.profile, hierarchy)
    if coarse_game is game:
        report = regret_report(result.report.players, epsilon)
    else:
        report = certify(game, lifted, epsilon)
    return Solution(
        hierarchy=hierarchy,
        result=result,
        profile=lifted,
        report=report,
        transfer_bound=delta * bound * profiles + result.certified_regret,
    )

