"""Equilibrium search on the coarse auxiliary game.

Replacing each player's information with the coarse partition induced by
a belief hierarchy yields a finite auxiliary game whose equilibria
transfer back to the original game with a quantified regret penalty.
No coarse strategy can tell apart two states that share every coarse
atom and their payoff class, so the auxiliary game keeps one state per
such class (``build_auxiliary_game``), which leaves every conditional
action value as it was; the classes, the summed priors and the lift are
read off integer label arrays.  It is solved in agent form: one agent per
(player, positive-mass coarse atom), each choosing a mixed action.

Every coarse game is solved by alternating predictive regret
matching+ (Farina, Kroer & Sandholm, "Faster Game Solving via Predictive
Blackwell Approachability", 2021): players update in turn against the
others' latest strategies, and each agent plays proportionally to the
positive part of its clipped cumulative regret plus its last
instantaneous regret.  Both the last iterate and a quadratically
weighted average are candidates, over seeded restarts.  The pipeline
asks only for an epsilon-equilibrium, so this one method serves
zero-sum and general-sum games alike; a near-exact answer is a matter
of a smaller target regret.  Nothing downstream depends on the search
converging: the returned profile always ships with its exact regret,
recomputed by the certification module, and callers decide what to do
with a non-converged result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import regret as regret_mod
from .game import (
    Action,
    Atom,
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    State,
    StateSpace,
    StrategyProfile,
    _refinement_witness,
    _fsums,
    _group,
    coarsen,
)
from .hierarchy import Hierarchy, PropertyReport, check_properties


# Search budget: restarts (uniform first, then Dirichlet-random starts)
# and predictive RM+ iterations per restart.
MAX_RESTARTS = 4
MAX_ITERATIONS = 4000


@dataclass(frozen=True)
class SolverConfig:
    target_regret: float
    seed: int = 0


@dataclass(frozen=True)
class AuxGame:
    """The original game with information coarsened to the hierarchy's atoms,
    on its quotient state space (see ``build_auxiliary_game``).

    ``checks`` is the hierarchy's structural audit, which passed.
    """

    hierarchy: Hierarchy
    coarse_game: NestedGame
    checks: PropertyReport


@dataclass(frozen=True)
class SolveResult:
    """The solver's profile on the coarse game, with ``report``, its
    certificate on that game against the target regret.

    ``certified_regret`` is the report's worst per-atom regret and
    ``converged`` whether it meets the target.  The pipeline reuses the
    report as the lifted profile's certificate when the coarse game is
    the original game with its atoms renamed (see ``pipeline``).
    """

    profile: StrategyProfile
    report: regret_mod.RegretReport
    iterations: int
    restarts: int
    method: str

    @property
    def certified_regret(self) -> float:
        return self.report.max_regret

    @property
    def converged(self) -> bool:
        return regret_mod.within_bound(self.report.max_regret, self.report.epsilon)


def build_auxiliary_game(game: NestedGame, hierarchy: Hierarchy) -> AuxGame:
    """Swap each player's partition for the coarse one, and merge the states
    no coarse strategy can tell apart.

    Two states fall in one class when they share player 1's coarse atom
    and their payoff class.  Player 1's coarse key is the whole belief
    tuple (b_1, ..., b_n), so it fixes every player's coarse atom.  The
    coarse game keeps one state per class, named by its first member in
    state order, so coarse atoms keep their first-appearance order; its
    common prior and each player prior are summed over the class with
    ``math.fsum``, and its payoff rows are the members' shared rows.

    Every conditional action value of the coarse game is unchanged by
    the merge, in exact arithmetic.  Player i's value of action a on a
    coarse atom g is

        sum over s in g of p_i(s) * sum over a_-i of
            sigma_-i(coarse atoms at s)(a_-i) * u_i(s, a, a_-i),

    divided by the sum of p_i over g.  The factor after p_i(s) depends on
    s only through its class, so summing p_i over each class leaves both
    sums, and so the value, as they were.  In floats the summed priors
    round once more, so values may move by a few ulps; the lifted
    profile's certificate is computed on the original game, so soundness
    never rests on the quotient.  When no two states merge, the coarse
    game shares the game's state space and payoff array.
    """
    if hierarchy.game is not game and hierarchy.game != game:
        raise GameFormatError("hierarchy was built for a different game")
    report = check_properties(game, hierarchy)
    if not report.ok:
        bad = [c for c in report.checks if not c.ok]
        raise GameFormatError(
            f"hierarchy failed its structural audit: {bad[0].name} for player "
            f"{bad[0].player}"
        )
    return AuxGame(
        hierarchy=hierarchy, coarse_game=_quotient(game, hierarchy), checks=report
    )


def _quotient(game: NestedGame, hierarchy: Hierarchy) -> NestedGame:
    """The coarse game on one state per (player 1 coarse atom, payoff class)."""
    states, classes = game.space.states, hierarchy.classes
    labels = hierarchy.coarse[0].labels(states) * classes.count + classes.ids
    merged, first = _group(labels.tolist())
    if len(first) == len(states):
        return coarsen(game, hierarchy.coarse)
    reps = tuple(map(states.__getitem__, first.tolist()))
    grouped = list(map(states.__getitem__, np.argsort(merged, kind="stable").tolist()))
    sizes = np.bincount(merged).tolist()

    def summed(prior) -> dict[State, float]:
        return dict(zip(reps, _fsums(list(map(prior.__getitem__, grouped)), sizes)))

    player_priors = game.space.player_priors
    space = StateSpace(
        states=reps,
        prior=summed(game.space.prior),
        player_priors=None
        if player_priors is None
        else {i: summed(p) for i, p in player_priors.items()},
    )
    partitions = tuple(
        InformationPartition(part.player, dict(zip(reps, map(part.atom_of.get, reps))))
        for part in hierarchy.coarse
    )
    # ``take`` writes a C-ordered table, which ``from_array`` keeps as is.
    table = game.payoff_array.take(first, axis=1)
    payoffs = PayoffTensor.from_array(game.payoffs.actions, reps, table)
    return NestedGame(space=space, partitions=partitions, payoffs=payoffs)


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
        self.dims = tuple(len(a) for a in game.payoffs.actions)
        self.actions = game.payoffs.actions
        self.payoff = game.payoff_array
        supports = game.supports

        # Each player's prior over the states: the weights of the states
        # their prior weighs, +0.0 elsewhere.
        self.priors = np.zeros((self.n, len(game.space.states)))
        for prior, support in zip(self.priors, supports):
            prior[support.positions] = support.weights

        self.atom_ids = [part.ids for part in game.partitions]
        self.atom_index = [support.atom_index for support in supports]
        self.positive = [support.masses > 0.0 for support in supports]
        self.agents: tuple[tuple[int, Atom], ...] = tuple(
            (i, atom)
            for i, support in enumerate(supports, start=1)
            for atom in support.ids
        )
        self._divisors: list[np.ndarray] = []
        # Per player: the (state, own action) -> (atom, own action) cell
        # index used to sum state rows into atom rows, and the einsum
        # contracting the payoff tensor with every other player's
        # per-state strategy.
        self._cells: list[np.ndarray] = []
        self._contraction: list[str] = []
        axes = "abcdefghijklmnopqrtuvwxyz"[: self.n]  # "s" indexes states
        for i, (idx, prior) in enumerate(zip(self.atom_index, self.priors)):
            mass = np.zeros(len(self.atom_ids[i]))
            np.add.at(mass, idx, prior)
            # Null rows sum to +0.0 and are divided by 1, so they stay +0.0.
            self._divisors.append(np.where(mass > 0.0, mass, 1.0)[:, None])
            d = self.dims[i]
            self._cells.append((idx[:, None] * d + np.arange(d)).ravel())
            others = ",".join("s" + axes[j] for j in range(self.n) if j != i)
            self._contraction.append(f"s{axes},{others}->s{axes[i]}")

    # -- strategy containers --------------------------------------------

    def uniform_strategies(self) -> list[np.ndarray]:
        return self._starts(lambda rows, d: np.full((rows, d), 1.0 / d))

    def random_strategies(self, rng: np.random.Generator) -> list[np.ndarray]:
        return self._starts(lambda rows, d: rng.dirichlet(np.ones(d), size=rows))

    def _starts(self, draw) -> list[np.ndarray]:
        """Per player, ``draw(atoms, actions)`` with the null atoms, which
        carry no mass, pinned to the first action so that every run and
        restart agrees on their content."""
        out = []
        for ids, d, positive in zip(self.atom_ids, self.dims, self.positive):
            x = draw(len(ids), d)
            x[~positive] = np.eye(d)[0]
            out.append(x)
        return out

    # -- payoff engine ----------------------------------------------------

    def player_action_values(
        self, i: int, strategies: list[np.ndarray]
    ) -> np.ndarray:
        """Player ``i``'s (atoms, own actions) conditional payoff matrix.

        ``i`` is 0-based.  Entry [g, a] is the player's expected payoff
        conditional on coarse atom g when playing a against the others'
        strategies; rows for null atoms are +0.0.  One contraction of the
        payoff tensor, so it costs 1/n of ``action_values``.  A ``_Play``
        carries the others' per-state rows already gathered.
        """
        gathered = getattr(strategies, "by_state", None)
        others = [
            strategies[j][self.atom_index[j]] if gathered is None else gathered[j]
            for j in range(self.n)
            if j != i
        ]
        by_state = np.einsum(self._contraction[i], self.payoff[i], *others)
        weighted = by_state * self.priors[i][:, None]
        rows, d = len(self.atom_ids[i]), self.dims[i]
        m_atoms = np.bincount(
            self._cells[i], weights=weighted.ravel(), minlength=rows * d
        ).reshape(rows, d)
        m_atoms /= self._divisors[i]
        return m_atoms

    def action_values(self, strategies: list[np.ndarray]) -> list[np.ndarray]:
        """``player_action_values`` for every player, in player order."""
        return [self.player_action_values(i, strategies) for i in range(self.n)]

    def regret(
        self, strategies: list[np.ndarray], values: list[np.ndarray] | None = None
    ) -> float:
        """Max conditional regret over agents, up to float rounding.

        Null-atom rows hold +0.0 values, so their regret is 0.0 and leaves
        the maximum, which starts at 0.0, as it is.
        """
        if values is None:
            values = self.action_values(strategies)
        worst = 0.0
        for v, x in zip(values, strategies):
            gap = v.max(axis=1) - (v * x).sum(axis=1)
            worst = max(worst, float(gap.max()))
        return worst

    # -- conversions --------------------------------------------------------

    def to_profile(self, strategies: list[np.ndarray]) -> StrategyProfile:
        strat = {
            i: {atom: dict(zip(acts, row)) for atom, row in zip(ids, x.tolist())}
            for i, (ids, acts, x) in enumerate(
                zip(self.atom_ids, self.actions, strategies), start=1
            )
        }
        return StrategyProfile(strategies=strat, field_level="coarse")


def to_agent_form(aux: AuxGame) -> AgentFormGame:
    return AgentFormGame(aux)


class _Play(list):
    """One (atoms, actions) strategy array per player, with each player's
    per-state rows (``by_state``) gathered once, whenever the player's
    array is set, instead of once per other player's evaluation."""

    def __init__(self, agent_game: AgentFormGame, strategies: list[np.ndarray]):
        super().__init__(strategies)
        self._index = agent_game.atom_index
        self.by_state = [x[idx] for x, idx in zip(strategies, self._index)]

    def __setitem__(self, j: int, x: np.ndarray) -> None:
        super().__setitem__(j, x)
        self.by_state[j] = x[self._index[j]]


class _Tracker:
    """Best-profile bookkeeping shared by the restarts."""

    def __init__(self, target: float):
        self.margin = target * (1.0 - 1e-9)
        self.best_regret = math.inf
        self.best: list[np.ndarray] | None = None
        self.iterations = 0

    def offer(self, regret_value: float, strategies: list[np.ndarray]) -> bool:
        if regret_value < self.best_regret:
            self.best_regret = regret_value
            self.best = [x.copy() for x in strategies]
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
) -> bool:
    """Alternating predictive regret matching+ from ``start``.

    Each iteration offers the current profile, then updates the players
    in turn, each against the others' latest strategies: the cumulative
    regret is clipped at zero and the next strategy is proportional to
    the positive part of cumulative plus last instantaneous regret.  The
    average weights iteration t by t^2 and is offered every 10
    iterations and at the end.

    A player's action values do not read their own strategy, so the last
    player's values from the end of one sweep are their values at the
    start of the next: each iteration after the first evaluates 2n - 2
    players, not 2n - 1.
    """
    x = _Play(agent_game, [v.copy() for v in start])
    cumulative = [np.zeros_like(v) for v in x]
    average = [v.copy() for v in x]
    weight_sum = 0.0
    last = agent_game.n - 1
    carried = None
    for t in range(1, MAX_ITERATIONS + 1):
        tracker.iterations += 1
        if carried is None:
            values = agent_game.action_values(x)
        else:
            values = [agent_game.player_action_values(i, x) for i in range(last)]
            values.append(carried)
        if tracker.offer(agent_game.regret(x, values), x):
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
        carried = v
        if t % 10 == 0:
            if tracker.offer(agent_game.regret(average), average):
                return True
    return tracker.offer(agent_game.regret(average), average)


def solve_nash(agent_game: AgentFormGame, config: SolverConfig) -> SolveResult:
    """Search for a low-regret profile of the auxiliary game.

    Deterministic given the seed.  Each restart (uniform first, then
    Dirichlet-random starts) runs up to ``MAX_ITERATIONS`` iterations of
    alternating predictive regret matching+, breaking out as soon as the
    last iterate or the quadratically weighted average meets the target.
    The best profile seen anywhere wins, and the certification module
    recomputes its exact regret; ``converged`` reports whether that
    certified number meets the target.  ``method`` is always
    ``"predictive-rm+"``.
    """
    if not (0.0 <= config.target_regret < math.inf):
        raise GameFormatError("target regret must be finite and nonnegative")
    if config.seed < 0:
        raise GameFormatError("seed must be nonnegative")

    tracker = _Tracker(config.target_regret)
    restarts_used = 0
    rng = np.random.default_rng(config.seed)
    for restart in range(MAX_RESTARTS):
        restarts_used = restart + 1
        if restart == 0:
            start = agent_game.uniform_strategies()
        else:
            start = agent_game.random_strategies(rng)
        if _run_predictive_rm(agent_game, start, tracker):
            break

    assert tracker.best is not None
    profile = agent_game.to_profile(tracker.best)
    coarse_game = agent_game.aux.coarse_game
    report = regret_mod.certify(coarse_game, profile, config.target_regret)
    return SolveResult(
        profile=profile,
        report=report,
        iterations=tracker.iterations,
        restarts=restarts_used,
        method="predictive-rm+",
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
    states = game.space.states
    strategies: dict[int, dict[Atom, dict[Action, float]]] = {}
    for i in range(1, game.n + 1):
        part, coarse = game.partition_for(i), hierarchy.coarse_partition(i)
        straddles = _refinement_witness(part, coarse, by_atom=True)
        if straddles is not None:
            raise GameFormatError(
                f"player {i} atom {part.atom_of[straddles[0]]!r} straddles coarse atoms"
            )
        parent = np.empty(len(part.ids), np.intp)
        parent[part.labels(states)] = coarse.labels(states)
        strategies[i] = {
            atom: dict(aux_profile.distribution(i, coarse.ids[p]))
            for atom, p in zip(part.ids, parent.tolist())
        }
    return StrategyProfile(strategies=strategies, field_level="original")
