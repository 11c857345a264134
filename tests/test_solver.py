import dataclasses
import hashlib
import math

import numpy as np
import pytest

from generators import (
    exact_prior,
    noisy_redundant_game,
    random_nested_game,
    random_profile,
    redundant_game,
)
from nestnash import solver
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    expected_payoff,
    payoff_bound,
    validate_profile,
)
from nestnash.hierarchy import Hierarchy, build_hierarchy
from nestnash.pipeline import solve
from nestnash.regret import bayesian_regret, certify
from nestnash.solver import (
    AgentFormGame,
    build_auxiliary_game,
    lift_strategy,
    solve_nash,
    to_agent_form,
)
from test_certificates import _with_player_priors
from test_game import two_state_game


def agent_form_for(game: NestedGame, delta: float) -> AgentFormGame:
    return to_agent_form(build_auxiliary_game(build_hierarchy(game, delta)))


def null_atom_game() -> NestedGame:
    """Player 1's own prior puts no mass on w0, the common prior does.

    The states carry three distinct payoff constants, so their coarse
    atoms stay separate and player 1 ends up with a coarse atom of zero
    mass under their own prior."""
    states = ("w0", "w1", "w2")
    space = StateSpace(
        states=states,
        prior={"w0": 0.2, "w1": 0.4, "w2": 0.4},
        player_priors={1: {"w0": 0.0, "w1": 0.5, "w2": 0.5}},
    )
    partitions = (
        InformationPartition(
            player=1, atom_of={"w0": "a0", "w1": "a1", "w2": "a2"}
        ),
        InformationPartition(
            player=2, atom_of={"w0": "b", "w1": "b", "w2": "b"}
        ),
    )
    values = {}
    for k, s in enumerate(states):
        for a1 in ("x", "y"):
            for a2 in ("x", "y"):
                values[(s, (a1, a2))] = (float(k), 0.0)
    return NestedGame(
        space=space,
        partitions=partitions,
        payoffs=PayoffTensor(actions=(("x", "y"), ("x", "y")), values=values),
    )


class TestAgentForm:
    def test_anchor_layout(self, informed_anchor):
        engine = agent_form_for(informed_anchor, 0.2)
        assert engine.n == 2
        assert len(engine.agents) == 3
        assert [len(ids) for ids in engine.atom_ids] == [2, 1]
        assert all(p.all() for p in engine.positive)

    def test_coarse_game_and_agent_form_share_the_payoff_array(self):
        game = random_nested_game(np.random.default_rng(47), max_states=20)
        engine = agent_form_for(game, 0.2)
        assert engine.game.space is game.space
        assert engine.game.payoff_array is game.payoff_array
        assert engine.payoff is game.payoff_array

    def test_action_values_match_the_certifier(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            game = random_nested_game(rng, max_states=25, players=(2, 3))
            engine = agent_form_for(game, 0.2)
            coarse = engine.game
            profile = random_profile(rng, coarse)
            coarse_profile = type(profile)(
                strategies=profile.strategies, field_level="coarse"
            )
            strategies = [
                np.array(
                    [
                        [coarse_profile.distribution(i, atom).get(a, 0.0) for a in acts]
                        for atom in atoms
                    ]
                )
                for i, (atoms, acts) in enumerate(
                    zip(engine.atom_ids, engine.game.payoffs.actions), start=1
                )
            ]
            values = engine.action_values(strategies)
            table = bayesian_regret(coarse, coarse_profile)
            for i in range(1, engine.n + 1):
                record = table[i]
                own = coarse.actions_for(i)
                for r, atom in enumerate(engine.atom_ids[i - 1]):
                    if not engine.positive[i - 1][r]:
                        continue
                    row = record.values[record.atoms.index(atom)]
                    for c, action in enumerate(engine.game.payoffs.actions[i - 1]):
                        assert values[i - 1][r, c] == pytest.approx(
                            row[own.index(action)], abs=1e-9
                        )

    def test_player_action_values_match_the_full_sweep(self):
        rng = np.random.default_rng(29)
        for players in (2, 3, 4):
            for _ in range(3):
                game = random_nested_game(rng, max_states=20, players=(players,))
                engine = agent_form_for(game, 0.2)
                strategies = engine.random_strategies(rng)
                full = engine.action_values(strategies)
                for i in range(engine.n):
                    one = engine.player_action_values(i, strategies)
                    assert np.allclose(one, full[i], rtol=0.0, atol=1e-12)

    def test_player_action_values_keep_null_rows_zero(self):
        engine = agent_form_for(null_atom_game(), 0.3)
        assert (~engine.positive[0]).sum() == 1
        strategies = engine.random_strategies(np.random.default_rng(4))
        full = engine.action_values(strategies)
        for i in range(engine.n):
            one = engine.player_action_values(i, strategies)
            assert np.allclose(one, full[i], rtol=0.0, atol=1e-12)
            assert np.all(one[~engine.positive[i]] == 0.0)

    def test_regret_agrees_with_certifier_on_anchor(self, informed_anchor):
        engine = agent_form_for(informed_anchor, 0.2)
        strategies = engine.uniform_strategies()
        fast = engine.regret(strategies)
        report = certify(engine.game, engine.to_profile(strategies), epsilon=1.0)
        assert fast == pytest.approx(report.max_regret, abs=1e-9)

    def test_null_atoms_are_pinned(self):
        game = null_atom_game()
        engine = agent_form_for(game, 0.3)
        (row,) = np.flatnonzero(~engine.positive[0])
        strategies = engine.uniform_strategies()
        assert strategies[0][row, 0] == 1.0
        assert strategies[0][row, 1] == 0.0


def signed_zero_twin(game: NestedGame) -> NestedGame:
    """``game`` with every +0.0 prior entry, common or per player,
    written as -0.0."""

    def negated(prior: dict) -> dict:
        return {s: -0.0 if p == 0.0 else p for s, p in prior.items()}

    space = game.space
    player_priors = space.player_priors
    return NestedGame(
        space=StateSpace(
            states=space.states,
            prior=negated(space.prior),
            player_priors=None
            if player_priors is None
            else {i: negated(p) for i, p in player_priors.items()},
        ),
        partitions=game.partitions,
        payoffs=game.payoffs,
    )


def hexed(obj):
    """``obj`` with every float, dataclass fields included, written by
    ``float.hex``, so that -0.0 and +0.0 differ."""
    if isinstance(obj, float):
        return obj.hex()
    if dataclasses.is_dataclass(obj):
        return hexed(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {hexed(k): hexed(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [hexed(x) for x in obj]
    return obj


def sparse_prior_games():
    """Games whose priors put zero mass on some states: the null-atom
    game, and random games with a common and a player-2 prior that each
    skip a third of the states; each also as its -0.0 twin."""
    rng = np.random.default_rng(7)
    games = [null_atom_game()] + [
        _with_player_priors(rng, random_nested_game(rng, max_states=30, players=(n,)))
        for n in (2, 3, 4)
    ]
    return [(game, signed_zero_twin(game)) for game in games]


class TestAgentFormReadsSupports:
    def test_priors_masses_and_agents_come_from_the_supports(self):
        nulls = signed = 0
        for pair in sparse_prior_games():
            for game in pair:
                engine = agent_form_for(game, 0.2)
                coarse = engine.game
                states = coarse.space.states
                for i, support in enumerate(coarse.supports):
                    want = np.zeros(len(states))
                    want[support.positions] = support.weights
                    got = engine.priors[i].tolist()
                    assert list(map(float.hex, got)) == list(
                        map(float.hex, want.tolist())
                    )
                    # Equal by value to the prior dict, whose -0.0 entries
                    # the rows above hold as +0.0.
                    prior = [coarse.prior_for(i + 1)[s] for s in states]
                    assert got == prior
                    signed += int(np.signbit(prior).sum())
                    positive = support.masses > 0.0
                    assert engine.positive[i].tolist() == positive.tolist()
                    nulls += int((~engine.positive[i]).sum())
                assert list(engine.agents) == [
                    (i, atom)
                    for i, support in enumerate(coarse.supports, start=1)
                    for atom in support.ids
                ]
        assert nulls > 0 and signed > 0

    def test_signed_zero_priors_solve_alike(self):
        # A -0.0 prior only makes zero terms, and adding them to
        # ``np.bincount``'s +0.0 start changes no sum.
        for game, twin in sparse_prior_games():
            plus, minus = solve(game, 0.05), solve(twin, 0.05)
            assert minus.result.iterations == plus.result.iterations
            assert minus.result.restarts == plus.result.restarts
            for field in ("profile", "report"):
                assert hexed(getattr(minus.result, field)) == hexed(
                    getattr(plus.result, field)
                )
                assert hexed(getattr(minus, field)) == hexed(getattr(plus, field))


class TestAuxiliaryGame:
    def test_coarse_game_swaps_partitions(self, informed_anchor):
        coarse = build_auxiliary_game(build_hierarchy(informed_anchor, 0.2))
        assert coarse.payoffs is informed_anchor.payoffs
        assert len(coarse.partition_for(1).atoms) == 2
        assert len(coarse.partition_for(2).atoms) == 1

    def test_refuses_a_hierarchy_that_fails_its_audit(self):
        # Player 1's atom {w1, w2} and w3 believe differently, so player
        # 1 has two coarse atoms and player 2 one.  The hand-built
        # partition keeps two atoms, within the finite-support cap, and
        # still refines player 2's, but splits {w1, w2}.
        states = ("w1", "w2", "w3")
        game = NestedGame(
            space=StateSpace(states, {"w1": 0.25, "w2": 0.25, "w3": 0.5}),
            partitions=(
                InformationPartition(1, {"w1": "a", "w2": "a", "w3": "b"}),
                InformationPartition(2, dict.fromkeys(states, "g")),
            ),
            payoffs=PayoffTensor.from_array(
                (("A", "B"), ("A", "B")), states, np.arange(24.0).reshape(2, 3, 2, 2)
            ),
        )
        h = build_hierarchy(game, 0.1)
        assert h.audit.ok and len(h.coarse_partition(1).ids) == 2
        split = InformationPartition(1, {"w1": 0, "w2": 1, "w3": 1})
        bad = Hierarchy(game, h.delta, h.levels, (split, h.coarse_partition(2)))
        message = (
            "hierarchy failed its structural audit: "
            "information-refines-coarse for player 1"
        )
        with pytest.raises(GameFormatError, match=message):
            build_auxiliary_game(bad)


def cloned_game(
    rng: np.random.Generator, game: NestedGame, copies: int, sparse: bool = False
) -> NestedGame:
    """``game`` with each state split into ``copies`` states that share its
    atoms and payoffs, under a fresh random prior.  With ``sparse``, the
    common prior is zero on every copy of about a third of the original
    states and on about a quarter of the other copies, and player 2 gets
    an own prior drawn the same way."""
    states = tuple(f"{s}#{c}" for s in game.space.states for c in range(copies))

    def prior() -> dict:
        weights = rng.random(len(states))
        if sparse:
            dropped = np.repeat(rng.random(len(game.space.states)) < 1 / 3, copies)
            weights[dropped | (rng.random(len(states)) < 1 / 4)] = 0.0
            weights[0] = 1.0
        kept = tuple(s for s, w in zip(states, weights) if w > 0.0)
        out = dict.fromkeys(states, 0.0)
        out.update(exact_prior(weights[weights > 0.0] / weights.sum(), kept))
        return out

    space = StateSpace(
        states=states, prior=prior(), player_priors={2: prior()} if sparse else None
    )
    partitions = tuple(
        InformationPartition(
            part.player, {s: part.atom_of[s.split("#")[0]] for s in states}
        )
        for part in game.partitions
    )
    table = np.repeat(game.payoff_array, copies, axis=1)
    payoffs = PayoffTensor.from_array(game.payoffs.actions, states, table)
    return NestedGame(space=space, partitions=partitions, payoffs=payoffs)


def default_delta(game: NestedGame, epsilon: float = 0.05) -> float:
    """The pipeline's default belief accuracy, epsilon / (2 M A)."""
    profiles = math.prod(len(acts) for acts in game.payoffs.actions)
    return epsilon / (2.0 * payoff_bound(game) * profiles)


class TestQuotient:
    """The coarse game keeps one state per (coarse atom, payoff class)."""

    @staticmethod
    def games():
        """(name, game): games whose coarse game merges states."""
        yield "redundant600", redundant_game(np.random.default_rng(1), 600)
        yield "redundant2400", redundant_game(np.random.default_rng(1), 2400)
        yield "noisy2400", noisy_redundant_game(np.random.default_rng(1), 2400, 1e-3)
        rng = np.random.default_rng(61)
        nested3 = random_nested_game(rng, max_states=30, players=(3,))
        yield "nested3", cloned_game(rng, nested3, 3)
        nested2 = random_nested_game(rng, max_states=30, players=(2,))
        yield "sparse", cloned_game(rng, nested2, 4, sparse=True)

    def test_quotient_state_counts(self):
        counts = {
            name: len(
                build_auxiliary_game(
                    build_hierarchy(game, default_delta(game))
                ).space.states
            )
            for name, game in self.games()
            if name.startswith(("redundant", "noisy"))
        }
        assert counts == {"redundant600": 42, "redundant2400": 45, "noisy2400": 87}

    def test_quotient_is_a_valid_game_on_first_members(self):
        for name, game in self.games():
            hierarchy = build_hierarchy(game, default_delta(game))
            coarse = build_auxiliary_game(hierarchy)
            states = coarse.space.states
            assert len(states) < len(game.space.states), name
            # First members, in state order.
            position = game.space.position
            assert [position[s] for s in states] == sorted(
                position[s] for s in states
            )
            assert coarse.validation.ok, name
            for i in range(1, game.n + 1):
                assert list(coarse.partition_for(i).atoms) == list(
                    hierarchy.coarse_partition(i).atoms
                ), name

    def test_values_and_certificates_match_the_partition_swap(self):
        """Every agent's action values and the certified regret agree with
        the game that keeps every state, within 1e-12 * M."""
        rng = np.random.default_rng(62)
        for name, game in self.games():
            tol = 1e-12 * payoff_bound(game)
            hierarchy = build_hierarchy(game, default_delta(game))
            coarse = build_auxiliary_game(hierarchy)
            swap = NestedGame(game.space, hierarchy.coarse, game.payoffs)
            merged = to_agent_form(coarse)
            full = to_agent_form(swap)
            assert merged.agents == full.agents, name
            for _ in range(3):
                strategies = merged.random_strategies(rng)
                for got, want in zip(
                    merged.action_values(strategies), full.action_values(strategies)
                ):
                    assert np.abs(got - want).max() <= tol, name
                profile = merged.to_profile(strategies)
                got = certify(coarse, profile, 0.05).max_regret
                want = certify(swap, profile, 0.05).max_regret
                assert abs(got - want) <= tol, name


class TestSolver:
    def test_matching_pennies_solved_exactly(self, matching_pennies):
        engine = agent_form_for(matching_pennies, 0.1)
        result = solve_nash(engine, 1e-12)
        assert result.converged
        assert result.iterations <= 200
        assert result.certified_regret <= 1e-9
        for i in (1, 2):
            for dist in result.profile.strategies[i].values():
                for p in dist.values():
                    assert p == pytest.approx(0.5, abs=1e-6)

    def test_informed_anchor_value_and_strategy(self, informed_anchor):
        engine = agent_form_for(informed_anchor, 0.2)
        result = solve_nash(engine, 1e-12)
        assert result.converged
        assert result.iterations <= 200
        assert result.certified_regret <= 1e-9
        value = expected_payoff(engine.game, result.profile)[0]
        assert value == pytest.approx(2 / 3, abs=1e-9)
        column = next(iter(result.profile.strategies[2].values()))
        assert column["L"] == pytest.approx(1 / 3, abs=1e-9)
        assert column["R"] == pytest.approx(2 / 3, abs=1e-9)

    def test_general_sum_converges(self):
        game = two_state_game()
        engine = agent_form_for(game, 0.2)
        result = solve_nash(engine, 0.05)
        assert result.converged

    def test_inconsistent_priors_converge(self, informed_anchor):
        skewed = NestedGame(
            space=StateSpace(
                states=informed_anchor.space.states,
                prior=dict(informed_anchor.space.prior),
                player_priors={1: {"w1": 0.6, "w2": 0.4}},
            ),
            partitions=informed_anchor.partitions,
            payoffs=informed_anchor.payoffs,
        )
        engine = agent_form_for(skewed, 0.2)
        result = solve_nash(engine, 0.05)
        assert result.converged

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(71)
        game = random_nested_game(rng, max_states=20, players=(3,))
        engine = agent_form_for(game, 0.15)
        a = solve_nash(engine, 0.05, seed=9)
        b = solve_nash(engine, 0.05, seed=9)
        assert a.profile == b.profile
        assert a.certified_regret == b.certified_regret
        assert a.method == b.method
        assert a.iterations == b.iterations

    def test_scaling_payoffs_scales_the_solution_exactly(self):
        rng = np.random.default_rng(101)
        games = (
            random_nested_game(rng, max_states=15, players=(3,)),
            redundant_game(rng, 60),  # zero-sum, common prior
        )
        for game in games:
            assert payoff_bound(game) >= 1.0
            doubled = NestedGame(
                space=game.space,
                partitions=game.partitions,
                payoffs=PayoffTensor(
                    actions=game.payoffs.actions,
                    values={
                        k: tuple(2.0 * x for x in v)
                        for k, v in game.payoffs.values.items()
                    },
                ),
            )
            base = solve_nash(agent_form_for(game, 0.15), 0.05, seed=2)
            scaled = solve_nash(agent_form_for(doubled, 0.15), 0.1, seed=2)
            assert scaled.profile == base.profile
            assert scaled.certified_regret == pytest.approx(
                2.0 * base.certified_regret, abs=1e-12
            )

    def test_honest_report_when_budget_is_too_small(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_RESTARTS", 1)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 60)
        rng = np.random.default_rng(55)
        game = random_nested_game(rng, max_states=25, players=(3,))
        engine = agent_form_for(game, 0.15)
        result = solve_nash(engine, 1e-9)
        assert not result.converged
        assert result.certified_regret > 1e-9
        coarse = engine.game
        assert validate_profile(coarse, result.profile) == []

    def test_rejects_negative_target(self, matching_pennies):
        engine = agent_form_for(matching_pennies, 0.2)
        with pytest.raises(GameFormatError):
            solve_nash(engine, -0.1)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_rejects_non_finite_target(self, matching_pennies, target):
        engine = agent_form_for(matching_pennies, 0.2)
        with pytest.raises(GameFormatError, match="finite"):
            solve_nash(engine, target)

    def test_rejects_negative_seed(self):
        engine = agent_form_for(two_state_game(), 0.2)
        with pytest.raises(GameFormatError, match="seed must be a nonnegative integer"):
            solve_nash(engine, 0.05, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, math.nan, True])
    def test_rejects_non_integer_seed(self, seed):
        # ``True`` would otherwise run as seed 1, and a float would reach
        # numpy's generator and fail there with a TypeError.
        engine = agent_form_for(two_state_game(), 0.2)
        with pytest.raises(GameFormatError, match="seed must be a nonnegative integer"):
            solve_nash(engine, 0.05, seed=seed)

    def test_numpy_integer_seed_runs_as_that_seed(self):
        engine = agent_form_for(two_state_game(), 0.2)
        got = solve_nash(engine, 1e-12, seed=np.int64(2))
        assert got.profile == solve_nash(engine, 1e-12, seed=2).profile

    def test_random_games_reach_modest_targets(self):
        rng = np.random.default_rng(88)
        for _ in range(5):
            game = random_nested_game(rng, max_states=30, players=(2, 3))
            engine = agent_form_for(game, 0.1)
            result = solve_nash(engine, 0.05)
            assert result.converged
            assert result.certified_regret <= 0.05 + 1e-9


def solve_digest(game: NestedGame, target: float) -> tuple[int, int, str]:
    """Iterations, restarts and a sha256 prefix of every float the
    solve returns, written with ``float.hex``."""
    result = solve_nash(agent_form_for(game, 1e-9), target, seed=5)
    digest = hashlib.sha256()
    for i, table in result.profile.strategies.items():
        for atom, dist in table.items():
            for a, p in dist.items():
                digest.update(repr((i, atom, a, p.hex())).encode())
    digest.update(
        repr(
            (
                result.iterations,
                result.restarts,
                result.certified_regret.hex(),
                result.converged,
            )
        ).encode()
    )
    return result.iterations, result.restarts, digest.hexdigest()[:16]


class TestSweepReuse:
    @pytest.mark.parametrize(
        "players, seed, target, pinned",
        [
            (2, 63, 1e-6, (244, 1, "e2fe81be2730b39a")),
            (3, 41, 1e-4, (109, 1, "7bdb5f3ded894d98")),
            (4, 42, 1e-4, (145, 1, "b2586fa3d69aecb1")),
        ],
    )
    def test_solver_output_is_pinned(self, players, seed, target, pinned):
        rng = np.random.default_rng(seed)
        game = random_nested_game(rng, max_states=12, players=(players,))
        assert solve_digest(game, target) == pinned

    @pytest.mark.parametrize("players", [2, 3, 4])
    def test_each_later_iteration_evaluates_2n_minus_2_players(
        self, players, monkeypatch
    ):
        rng = np.random.default_rng(70 + players)
        game = random_nested_game(rng, max_states=12, players=(players,))
        agent_game = agent_form_for(game, 1e-9)
        calls = []
        original = AgentFormGame.player_action_values

        def counted(self, i, strategies):
            calls.append(i)
            return original(self, i, strategies)

        monkeypatch.setattr(AgentFormGame, "player_action_values", counted)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 7)
        # A negative target is never met, so every iteration runs.
        tracker = solver._Tracker(-1.0)
        solver._run_predictive_rm(agent_game, agent_game.uniform_strategies(), tracker)
        assert tracker.iterations == 7
        n = players
        # The first iteration evaluates all n players and sweeps n - 1;
        # each later one evaluates n - 1 and sweeps n - 1; the closing
        # average offer evaluates n.
        assert len(calls) == (2 * n - 1) + 6 * (2 * n - 2) + n
        assert calls[2 * n - 1 : 4 * n - 3] == list(range(n - 1)) + list(range(1, n))


class TestLift:
    def test_lift_covers_every_original_atom(self, informed_anchor):
        hierarchy = build_hierarchy(informed_anchor, 0.2)
        engine = to_agent_form(build_auxiliary_game(hierarchy))
        result = solve_nash(engine, 0.025)
        lifted = lift_strategy(result.profile, hierarchy)
        assert lifted.field_level == "original"
        assert validate_profile(informed_anchor, lifted) == []

    def test_lifted_profile_keeps_the_regret_guarantee(self):
        rng = np.random.default_rng(91)
        for _ in range(5):
            game = random_nested_game(rng, max_states=25, players=(2, 3))
            epsilon = 0.1
            bound = payoff_bound(game)
            profiles = 1
            for acts in game.payoffs.actions:
                profiles *= len(acts)
            delta = epsilon / (2.0 * bound * profiles)
            hierarchy = build_hierarchy(game, delta)
            engine = to_agent_form(build_auxiliary_game(hierarchy))
            result = solve_nash(engine, epsilon / 2)
            lifted = lift_strategy(result.profile, hierarchy)
            report = certify(game, lifted, epsilon=epsilon)
            transfer = delta * bound * profiles + result.certified_regret
            assert report.max_regret <= transfer + 1e-9
            if result.converged:
                assert report.max_regret <= epsilon + 1e-9

    def test_lift_constant_across_merged_atoms(self):
        game = null_atom_game()
        hierarchy = build_hierarchy(game, 0.3)
        engine = to_agent_form(build_auxiliary_game(hierarchy))
        result = solve_nash(engine, 0.05)
        lifted = lift_strategy(result.profile, hierarchy)
        assert validate_profile(game, lifted) == []

    def test_lift_rejects_original_level_profiles(self, informed_anchor):
        hierarchy = build_hierarchy(informed_anchor, 0.2)
        profile = random_profile(np.random.default_rng(1), informed_anchor)
        with pytest.raises(GameFormatError, match="coarse"):
            lift_strategy(profile, hierarchy)
