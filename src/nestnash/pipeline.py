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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .game import GameFormatError, NestedGame, StrategyProfile, payoff_bound
from .hierarchy import Hierarchy, PropertyReport, build_hierarchy
from .regret import RegretReport, certify
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
    ``result.profile`` is the coarse profile the solver returned.
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
    validation, and GameFormatError when ``delta`` is not positive.
    """
    game.require_valid()
    bound = payoff_bound(game)
    profiles = math.prod(len(acts) for acts in game.payoffs.actions)
    if delta is None:
        delta = epsilon / (2.0 * bound * profiles)
    if not delta > 0.0:
        raise GameFormatError("delta must be positive")
    if target is None:
        target = epsilon / 2.0

    hierarchy = build_hierarchy(game, delta)
    aux = build_auxiliary_game(game, hierarchy)
    result = solve_nash(
        to_agent_form(aux), SolverConfig(target_regret=target, seed=seed)
    )
    lifted = lift_strategy(result.profile, game, hierarchy)
    return Solution(
        delta=delta,
        target=target,
        payoff_bound=bound,
        action_profiles=profiles,
        hierarchy=hierarchy,
        checks=aux.checks,
        result=result,
        profile=lifted,
        report=certify(game, lifted, epsilon),
        transfer_bound=delta * bound * profiles + result.certified_regret,
    )
