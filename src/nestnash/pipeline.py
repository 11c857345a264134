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

import numpy as np

from .game import GameFormatError, NestedGame, StrategyProfile, payoff_bound
from .hierarchy import Hierarchy, build_hierarchy
from .regret import PlayerRegret, RegretReport, certify, regret_report
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
    hierarchy merges nothing, ``report`` is ``result.report`` with its
    atoms renamed and its verdict taken against ``epsilon``, which is
    exactly the original game's certificate (see the module docstring).
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
    renames = coarse_game.space is game.space and all(
        len(coarse.ids) == len(part.ids)
        for coarse, part in zip(hierarchy.coarse, game.partitions)
    )
    if renames:
        report = _renamed(result.report, hierarchy, epsilon)
    else:
        report = certify(game, lifted, epsilon)
    return Solution(
        hierarchy=hierarchy,
        result=result,
        profile=lifted,
        report=report,
        transfer_bound=delta * bound * profiles + result.certified_regret,
    )


def _renamed(
    report: RegretReport, hierarchy: Hierarchy, epsilon: float
) -> RegretReport:
    """The coarse game's certificate ``report`` on the hierarchy's game, when
    each coarse atom holds exactly the states of one original atom: each
    atom renamed to the original one, in the original game's atom order,
    against ``epsilon``.

    The coarse certificate lists a player's positive-mass atoms in the
    order of their coarse labels, so an original atom's record sits at
    the rank of its coarse atom's label among them."""
    states, supports = hierarchy.game.space.states, hierarchy.game.supports
    table = {}
    for i, (support, coarse) in enumerate(zip(supports, hierarchy.coarse), 1):
        to_coarse = np.empty(len(support.masses), np.intp)
        to_coarse[support.atom_index] = coarse.labels(states)
        index = np.argsort(np.argsort(to_coarse[support.masses > 0.0])).tolist()
        record = report.players[i]
        columns = {
            f.name: tuple(map(getattr(record, f.name).__getitem__, index))
            for f in dataclasses.fields(record)
        }
        columns["atoms"] = support.ids
        table[i] = PlayerRegret(**columns)
    return regret_report(table, epsilon)
