"""Equilibrium search on the coarse auxiliary game.

Replacing each player's information with the coarse partition induced by
a belief hierarchy yields a finite auxiliary game whose equilibria
transfer back to the original game with a quantified regret penalty.
The auxiliary game is solved in agent form: one agent per (player,
positive-mass coarse atom), each choosing a mixed action.

Two-player zero-sum games with a common prior are solved exactly by
linear programming over behavioral strategies.  Everything else runs
alternating predictive regret matching+ (Farina, Kroer & Sandholm,
"Faster Game Solving via Predictive Blackwell Approachability", 2021):
players update in turn against the others' latest strategies, and each
agent plays proportionally to the positive part of its clipped
cumulative regret plus its last instantaneous regret.  Both the last
iterate and a quadratically weighted average are candidates, over
seeded restarts.  Nothing downstream depends on the search converging:
the returned profile always ships with its exact regret, recomputed by
the certification module, and callers decide what to do with a
non-converged result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from . import regret as regret_mod
from .game import (
    Action,
    Atom,
    GameFormatError,
    NestedGame,
    StrategyProfile,
    payoff_bound,
)
from .hierarchy import Hierarchy, PropertyReport, check_properties


@dataclass(frozen=True)
class SolverConfig:
    target_regret: float
    max_restarts: int = 4
    max_iterations: int = 4000
    seed: int = 0


@dataclass(frozen=True)
class AuxGame:
    """The original game with information coarsened to the hierarchy's atoms.

    ``null_atoms`` lists, per player, coarse atoms carrying zero mass
    under that player's prior; they hold no incentive content and are
    pinned to a fixed pure action by the solver.  ``checks`` is the
    hierarchy's structural audit, which passed.
    """

    base: NestedGame
    hierarchy: Hierarchy
    coarse_game: NestedGame
    null_atoms: dict[int, tuple[Atom, ...]]
    checks: PropertyReport


@dataclass(frozen=True)
class SolveResult:
    profile: StrategyProfile
    certified_regret: float
    iterations: int
    restarts: int
    converged: bool
    method: str


def build_auxiliary_game(game: NestedGame, hierarchy: Hierarchy) -> AuxGame:
    """Swap each player's partition for the coarse one."""
    if hierarchy.game is not game and hierarchy.game != game:
        raise GameFormatError("hierarchy was built for a different game")
    report = check_properties(game, hierarchy)
    if not report.ok:
        bad = [c for c in report.checks if not c.ok]
        raise GameFormatError(
            f"hierarchy failed its structural audit: {bad[0].name} for player "
            f"{bad[0].player}"
        )
    coarse_game = NestedGame(
        space=game.space,
        partitions=hierarchy.coarse,
        payoffs=game.payoffs,
    )
    null_atoms: dict[int, tuple[Atom, ...]] = {}
    for i in range(1, game.n + 1):
        prior = game.prior_for(i)
        nulls = [
            atom
            for atom, members in hierarchy.coarse_partition(i).atoms.items()
            if math.fsum(prior[s] for s in members) <= 0.0
        ]
        null_atoms[i] = tuple(nulls)
    return AuxGame(
        base=game,
        hierarchy=hierarchy,
        coarse_game=coarse_game,
        null_atoms=null_atoms,
        checks=report,
    )


class AgentFormGame:
    """Agent-form expansion with a vectorized payoff engine.

    One agent per (player, positive-mass coarse atom).  The engine reads
    the game's payoff array, indexed by player, state and one axis per
    player's actions, so a full sweep of conditional action values for
    every agent is a handful of array operations.  Agent payoffs are the
    player's prior-weighted payoff restricted to the atom; maximizing one
    is equivalent to maximizing the player's conditional payoff there, so
    best-response sets match the underlying game.
    """

    def __init__(self, aux: AuxGame):
        self.aux = aux
        game = aux.coarse_game
        self.n = game.n
        self.states = list(game.space.states)
        self.dims = tuple(len(a) for a in game.payoffs.actions)
        self.actions = game.payoffs.actions
        self.payoff = game.payoff_array

        self.priors = np.array(
            [
                [game.prior_for(i)[s] for s in self.states]
                for i in range(1, self.n + 1)
            ]
        )

        self.atom_ids: list[list[Atom]] = []
        self.atom_index: list[np.ndarray] = []
        self.masses: list[np.ndarray] = []
        self.positive: list[np.ndarray] = []
        # Per player: the (state, own action) -> (atom, own action) cell
        # index used to sum state rows into atom rows, and the einsum
        # contracting the payoff tensor with every other player's
        # per-state strategy.
        self._cells: list[np.ndarray] = []
        self._contraction: list[str] = []
        axes = "abcdefghijklmnopqrtuvwxyz"[: self.n]  # "s" indexes states
        for i in range(1, self.n + 1):
            part = game.partition_for(i)
            ids = list(part.atoms.keys())
            lookup = {a: r for r, a in enumerate(ids)}
            idx = np.array([lookup[part.atom_of[s]] for s in self.states])
            mass = np.zeros(len(ids))
            np.add.at(mass, idx, self.priors[i - 1])
            self.atom_ids.append(ids)
            self.atom_index.append(idx)
            self.masses.append(mass)
            self.positive.append(mass > 0.0)
            d = self.dims[i - 1]
            self._cells.append((idx[:, None] * d + np.arange(d)).ravel())
            others = ",".join("s" + axes[j] for j in range(self.n) if j != i - 1)
            self._contraction.append(f"s{axes},{others}->s{axes[i - 1]}")

        self.agents: tuple[tuple[int, Atom], ...] = tuple(
            (i, atom)
            for i in range(1, self.n + 1)
            for r, atom in enumerate(self.atom_ids[i - 1])
            if self.positive[i - 1][r]
        )
        self.scale = payoff_bound(game)

    # -- strategy containers --------------------------------------------

    def uniform_strategies(self) -> list[np.ndarray]:
        out = []
        for i in range(1, self.n + 1):
            rows = len(self.atom_ids[i - 1])
            d = self.dims[i - 1]
            x = np.full((rows, d), 1.0 / d)
            self._pin_null(i, x)
            out.append(x)
        return out

    def random_strategies(self, rng: np.random.Generator) -> list[np.ndarray]:
        out = []
        for i in range(1, self.n + 1):
            rows = len(self.atom_ids[i - 1])
            d = self.dims[i - 1]
            x = rng.dirichlet(np.ones(d), size=rows)
            self._pin_null(i, x)
            out.append(x)
        return out

    def _pin_null(self, player: int, x: np.ndarray) -> None:
        # Null atoms carry no mass; pin them to the first action so every
        # run and restart agrees on their content.
        rows = ~self.positive[player - 1]
        if rows.any():
            x[rows] = 0.0
            x[rows, 0] = 1.0

    # -- payoff engine ----------------------------------------------------

    def player_action_values(
        self, i: int, strategies: list[np.ndarray]
    ) -> np.ndarray:
        """Player ``i``'s (atoms, own actions) conditional payoff matrix.

        ``i`` is 0-based.  Entry [g, a] is the player's expected payoff
        conditional on coarse atom g when playing a against the others'
        strategies; rows for null atoms are zero.  One contraction of the
        payoff tensor, so it costs 1/n of ``action_values``.
        """
        others = [
            strategies[j][self.atom_index[j]] for j in range(self.n) if j != i
        ]
        by_state = np.einsum(self._contraction[i], self.payoff[i], *others)
        weighted = by_state * self.priors[i][:, None]
        rows, d = len(self.atom_ids[i]), self.dims[i]
        m_atoms = np.bincount(
            self._cells[i], weights=weighted.ravel(), minlength=rows * d
        ).reshape(rows, d)
        pos = self.positive[i]
        m_atoms[pos] /= self.masses[i][pos, None]
        return m_atoms

    def action_values(self, strategies: list[np.ndarray]) -> list[np.ndarray]:
        """``player_action_values`` for every player, in player order."""
        return [self.player_action_values(i, strategies) for i in range(self.n)]

    def regret(
        self, strategies: list[np.ndarray], values: list[np.ndarray] | None = None
    ) -> float:
        """Max conditional regret over agents, up to float rounding."""
        if values is None:
            values = self.action_values(strategies)
        worst = 0.0
        for i in range(self.n):
            pos = self.positive[i]
            if not pos.any():
                continue
            best = values[i][pos].max(axis=1)
            cur = (values[i][pos] * strategies[i][pos]).sum(axis=1)
            worst = max(worst, float((best - cur).max()))
        return worst

    # -- conversions --------------------------------------------------------

    def to_profile(self, strategies: list[np.ndarray]) -> StrategyProfile:
        strat: dict[int, dict[Atom, dict[Action, float]]] = {}
        for i in range(1, self.n + 1):
            table: dict[Atom, dict[Action, float]] = {}
            for r, atom in enumerate(self.atom_ids[i - 1]):
                row = strategies[i - 1][r]
                table[atom] = {
                    a: float(p) for a, p in zip(self.actions[i - 1], row)
                }
            strat[i] = table
        return StrategyProfile(strategies=strat, field_level="coarse")


def to_agent_form(aux: AuxGame) -> AgentFormGame:
    return AgentFormGame(aux)


def _zero_sum_lp_side(kernel: np.ndarray) -> np.ndarray | None:
    """Maximizer's behavioral strategy for one side of a zero-sum game.

    ``kernel[g, a, h, b]`` is the prior-weighted payoff to the
    maximizer from own action a on own atom g against opponent action b
    on opponent atom h.  Solves: maximize sum_h v_h subject to
    v_h <= sum_{g,a} kernel[g,a,h,b] x[g,a] for all (h,b), each row of
    x a distribution.  Returns x or None when the LP fails.
    """
    own_atoms, own_dim, opp_atoms, opp_dim = kernel.shape
    nx = own_atoms * own_dim
    c = np.zeros(nx + opp_atoms)
    c[nx:] = -1.0
    flat = kernel.reshape(nx, opp_atoms * opp_dim)
    a_ub = np.zeros((opp_atoms * opp_dim, nx + opp_atoms))
    a_ub[:, :nx] = -flat.T
    for h in range(opp_atoms):
        a_ub[h * opp_dim : (h + 1) * opp_dim, nx + h] = 1.0
    a_eq = np.zeros((own_atoms, nx + opp_atoms))
    for g in range(own_atoms):
        a_eq[g, g * own_dim : (g + 1) * own_dim] = 1.0
    b_eq = np.ones(own_atoms)
    bounds = [(0.0, 1.0)] * nx + [(None, None)] * opp_atoms
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=np.zeros(opp_atoms * opp_dim),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    if not res.success:
        return None
    x = np.clip(res.x[:nx].reshape(own_atoms, own_dim), 0.0, None)
    return x / x.sum(axis=1, keepdims=True)


def _try_zero_sum_lp(agent_game: AgentFormGame) -> list[np.ndarray] | None:
    """Exact behavioral solve of a two-player zero-sum common-prior game."""
    if agent_game.n != 2:
        return None
    if not np.array_equal(agent_game.priors[0], agent_game.priors[1]):
        return None
    realized = agent_game.priors[0] > 0.0
    total = agent_game.payoff[0] + agent_game.payoff[1]
    if not np.allclose(
        total[realized], 0.0, atol=1e-12 * agent_game.scale, rtol=0.0
    ):
        return None

    g1, g2 = len(agent_game.atom_ids[0]), len(agent_game.atom_ids[1])
    d1, d2 = agent_game.dims
    # ufunc.at adds in index order, so each kernel cell sums its states
    # in state order.
    si = np.nonzero(realized)[0]
    kernel = np.zeros((g1, d1, g2, d2))
    np.add.at(
        kernel,
        (agent_game.atom_index[0][si], slice(None), agent_game.atom_index[1][si]),
        agent_game.priors[0][si, None, None] * agent_game.payoff[0, si],
    )

    x1 = _zero_sum_lp_side(kernel)
    x2 = _zero_sum_lp_side(-kernel.transpose(2, 3, 0, 1))
    if x1 is None or x2 is None:
        return None
    strategies = [x1, x2]
    for i in (1, 2):
        agent_game._pin_null(i, strategies[i - 1])
    return strategies


class _Tracker:
    """Best-profile bookkeeping shared by the search processes."""

    def __init__(self, target: float):
        self.margin = target * (1.0 - 1e-9)
        self.best_regret = math.inf
        self.best: list[np.ndarray] | None = None
        self.method = "none"
        self.iterations = 0

    def offer(
        self, regret_value: float, strategies: list[np.ndarray], method: str
    ) -> bool:
        if regret_value < self.best_regret:
            self.best_regret = regret_value
            self.best = [x.copy() for x in strategies]
            self.method = method
        return self.best_regret <= self.margin


def _predicted_rows(pressure: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Rows proportional to the positive part of ``pressure``.

    A row with no positive entry has no action with positive regret
    under the prediction, so its current play is a best response to the
    last values; it is kept.  Null-atom rows never see regret and so
    stay pinned.
    """
    positive = np.maximum(pressure, 0.0)
    totals = positive.sum(axis=1, keepdims=True)
    return np.where(
        totals > 0.0, positive / np.where(totals > 0.0, totals, 1.0), current
    )


def _run_predictive_rm(
    agent_game: AgentFormGame,
    start: list[np.ndarray],
    tracker: _Tracker,
    max_iterations: int,
) -> bool:
    """Alternating predictive regret matching+ from ``start``.

    Each iteration offers the current profile, then updates the players
    in turn, each against the others' latest strategies: the cumulative
    regret is clipped at zero and the next strategy is proportional to
    the positive part of cumulative plus last instantaneous regret.  The
    average weights iteration t by t^2 and is offered every 10
    iterations and at the end.
    """
    x = [v.copy() for v in start]
    cumulative = [np.zeros_like(v) for v in x]
    average = [v.copy() for v in x]
    weight_sum = 0.0
    label = "predictive-rm+"
    for t in range(1, max_iterations + 1):
        tracker.iterations += 1
        values = agent_game.action_values(x)
        if tracker.offer(agent_game.regret(x, values), x, label):
            return True
        w = float(t) * t
        weight_sum += w
        for i in range(agent_game.n):
            average[i] = average[i] + (x[i] - average[i]) * (w / weight_sum)
        for i in range(agent_game.n):
            # Player 0 faces the profile just evaluated; later players
            # face the updates made earlier in this sweep.
            v = values[0] if i == 0 else agent_game.player_action_values(i, x)
            instant = v - (v * x[i]).sum(axis=1, keepdims=True)
            cumulative[i] = np.maximum(cumulative[i] + instant, 0.0)
            x[i] = _predicted_rows(cumulative[i] + instant, x[i])
        if t % 10 == 0:
            if tracker.offer(agent_game.regret(average), average, label):
                return True
    return tracker.offer(agent_game.regret(average), average, label)


def solve_nash(agent_game: AgentFormGame, config: SolverConfig) -> SolveResult:
    """Search for a low-regret profile of the auxiliary game.

    Deterministic given the seed.  Two-player zero-sum common-prior
    games try the exact LP first.  Otherwise each restart (uniform
    first, then Dirichlet-random starts) runs up to ``max_iterations``
    iterations of alternating predictive regret matching+, breaking out
    as soon as the last iterate or the quadratically weighted average
    meets the target.  The best profile seen anywhere wins, and the
    certification module recomputes its exact regret; ``converged``
    reports whether that certified number meets the target.
    """
    if not (0.0 <= config.target_regret < math.inf):
        raise GameFormatError("target regret must be finite and nonnegative")
    if config.seed < 0:
        raise GameFormatError("seed must be nonnegative")

    tracker = _Tracker(config.target_regret)
    restarts_used = 0

    lp = _try_zero_sum_lp(agent_game)
    if lp is not None:
        tracker.offer(agent_game.regret(lp), lp, "zero-sum-lp")

    if tracker.best is None or tracker.best_regret > tracker.margin:
        rng = np.random.default_rng(config.seed)
        for restart in range(config.max_restarts):
            restarts_used = restart + 1
            if restart == 0:
                start = agent_game.uniform_strategies()
            else:
                start = agent_game.random_strategies(rng)
            if _run_predictive_rm(
                agent_game, start, tracker, config.max_iterations
            ):
                break

    best_strategies = tracker.best
    iterations_used = tracker.iterations
    method = tracker.method

    assert best_strategies is not None
    profile = agent_game.to_profile(best_strategies)
    table = regret_mod.bayesian_regret(agent_game.aux.coarse_game, profile)
    certified = max(
        (e.regret for entries in table.values() for e in entries.values()),
        default=0.0,
    )
    return SolveResult(
        profile=profile,
        certified_regret=certified,
        iterations=iterations_used,
        restarts=restarts_used,
        converged=certified <= config.target_regret + regret_mod.CERT_SLACK,
        method=method,
    )


def lift_strategy(
    aux_profile: StrategyProfile, game: NestedGame, hierarchy: Hierarchy
) -> StrategyProfile:
    """Pull a coarse-measurable profile back to the original information.

    Each original atom sits inside exactly one coarse atom, so the lift
    just copies that atom's distribution.  The result is measurable for
    the original partitions by construction and preserves all payoffs.
    """
    if aux_profile.field_level != "coarse":
        raise GameFormatError("lift expects a coarse-level profile")
    strategies: dict[int, dict[Atom, dict[Action, float]]] = {}
    for i in range(1, game.n + 1):
        coarse = hierarchy.coarse_partition(i)
        table: dict[Atom, dict[Action, float]] = {}
        for atom, members in game.partition_for(i).atoms.items():
            parents = {coarse.atom_of[s] for s in members}
            if len(parents) != 1:
                raise GameFormatError(
                    f"player {i} atom {atom!r} straddles coarse atoms"
                )
            table[atom] = dict(aux_profile.distribution(i, parents.pop()))
        strategies[i] = table
    return StrategyProfile(strategies=strategies, field_level="original")
