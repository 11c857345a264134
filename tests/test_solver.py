import math

import numpy as np
import pytest

from generators import random_nested_game, random_profile
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
from nestnash.hierarchy import build_hierarchy
from nestnash.regret import best_response_values, certify
from nestnash.solver import (
    AgentFormGame,
    SolverConfig,
    build_auxiliary_game,
    lift_strategy,
    solve_nash,
    to_agent_form,
)
from test_game import two_state_game


def agent_form_for(game: NestedGame, delta: float) -> AgentFormGame:
    return to_agent_form(build_auxiliary_game(game, build_hierarchy(game, delta)))


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
        assert engine.scale == 2.0

    def test_coarse_game_and_agent_form_share_the_payoff_array(self):
        game = random_nested_game(np.random.default_rng(47), max_states=20)
        engine = agent_form_for(game, 0.2)
        assert engine.aux.coarse_game.payoff_array is game.payoff_array
        assert engine.payoff is game.payoff_array

    def test_action_values_match_the_certifier(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            game = random_nested_game(rng, max_states=25, players=(2, 3))
            engine = agent_form_for(game, 0.2)
            coarse = engine.aux.coarse_game
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
                    zip(engine.atom_ids, engine.actions), start=1
                )
            ]
            values = engine.action_values(strategies)
            for i in range(1, engine.n + 1):
                br = best_response_values(coarse, coarse_profile, i)
                for r, atom in enumerate(engine.atom_ids[i - 1]):
                    if not engine.positive[i - 1][r]:
                        continue
                    for c, action in enumerate(engine.actions[i - 1]):
                        assert values[i - 1][r, c] == pytest.approx(
                            br[atom].values[action], abs=1e-9
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
        report = certify(
            engine.aux.coarse_game, engine.to_profile(strategies), epsilon=1.0
        )
        assert fast == pytest.approx(report.max_regret, abs=1e-9)

    def test_null_atoms_are_pinned(self):
        game = null_atom_game()
        engine = agent_form_for(game, 0.3)
        nulls = engine.aux.null_atoms[1]
        assert len(nulls) == 1
        strategies = engine.uniform_strategies()
        row = list(engine.atom_ids[0]).index(nulls[0])
        assert strategies[0][row, 0] == 1.0
        assert strategies[0][row, 1] == 0.0


class TestAuxiliaryGame:
    def test_coarse_game_swaps_partitions(self, informed_anchor):
        aux = build_auxiliary_game(
            informed_anchor, build_hierarchy(informed_anchor, 0.2)
        )
        assert aux.coarse_game.payoffs is informed_anchor.payoffs
        assert len(aux.coarse_game.partition_for(1).atoms) == 2
        assert len(aux.coarse_game.partition_for(2).atoms) == 1

    def test_rejects_foreign_hierarchy(self, informed_anchor, matching_pennies):
        h = build_hierarchy(matching_pennies, 0.2)
        with pytest.raises(GameFormatError, match="different game"):
            build_auxiliary_game(informed_anchor, h)


class TestSolver:
    def test_matching_pennies_solved_exactly(self, matching_pennies):
        engine = agent_form_for(matching_pennies, 0.1)
        result = solve_nash(engine, SolverConfig(target_regret=0.01))
        assert result.method == "zero-sum-lp"
        assert result.converged
        assert result.certified_regret <= 1e-9
        for i in (1, 2):
            for dist in result.profile.strategies[i].values():
                for p in dist.values():
                    assert p == pytest.approx(0.5, abs=1e-6)

    def test_informed_anchor_value_and_strategy(self, informed_anchor):
        engine = agent_form_for(informed_anchor, 0.2)
        result = solve_nash(engine, SolverConfig(target_regret=0.025))
        assert result.method == "zero-sum-lp"
        assert result.converged
        assert result.certified_regret <= 1e-9
        value = expected_payoff(engine.aux.coarse_game, result.profile)[0]
        assert value == pytest.approx(2 / 3, abs=1e-9)
        column = next(iter(result.profile.strategies[2].values()))
        assert column["L"] == pytest.approx(1 / 3, abs=1e-9)
        assert column["R"] == pytest.approx(2 / 3, abs=1e-9)

    def test_lp_skipped_for_general_sum(self):
        game = two_state_game()
        engine = agent_form_for(game, 0.2)
        result = solve_nash(engine, SolverConfig(target_regret=0.05))
        assert result.method != "zero-sum-lp"
        assert result.converged

    def test_lp_skipped_with_inconsistent_priors(self, informed_anchor):
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
        result = solve_nash(engine, SolverConfig(target_regret=0.05))
        assert result.method != "zero-sum-lp"

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(71)
        game = random_nested_game(rng, max_states=20, players=(3,))
        engine = agent_form_for(game, 0.15)
        config = SolverConfig(target_regret=0.05, seed=9)
        a = solve_nash(engine, config)
        b = solve_nash(engine, config)
        assert a.profile == b.profile
        assert a.certified_regret == b.certified_regret
        assert a.method == b.method
        assert a.iterations == b.iterations

    def test_scaling_payoffs_scales_the_solution_exactly(self):
        rng = np.random.default_rng(101)
        game = random_nested_game(rng, max_states=15, players=(3,))
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
        base = solve_nash(
            agent_form_for(game, 0.15), SolverConfig(target_regret=0.05, seed=2)
        )
        scaled = solve_nash(
            agent_form_for(doubled, 0.15), SolverConfig(target_regret=0.1, seed=2)
        )
        assert scaled.profile == base.profile
        assert scaled.certified_regret == pytest.approx(
            2.0 * base.certified_regret, abs=1e-12
        )

    def test_honest_report_when_budget_is_too_small(self):
        rng = np.random.default_rng(55)
        game = random_nested_game(rng, max_states=25, players=(3,))
        engine = agent_form_for(game, 0.15)
        result = solve_nash(
            engine,
            SolverConfig(target_regret=1e-9, max_restarts=1, max_iterations=60),
        )
        assert not result.converged
        assert result.certified_regret > 1e-9
        coarse = engine.aux.coarse_game
        assert validate_profile(coarse, result.profile) == []

    def test_rejects_negative_target(self, matching_pennies):
        engine = agent_form_for(matching_pennies, 0.2)
        with pytest.raises(GameFormatError):
            solve_nash(engine, SolverConfig(target_regret=-0.1))

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_rejects_non_finite_target(self, matching_pennies, target):
        engine = agent_form_for(matching_pennies, 0.2)
        with pytest.raises(GameFormatError, match="finite"):
            solve_nash(engine, SolverConfig(target_regret=target))

    def test_rejects_negative_seed(self):
        engine = agent_form_for(two_state_game(), 0.2)
        with pytest.raises(GameFormatError, match="seed"):
            solve_nash(engine, SolverConfig(target_regret=0.05, seed=-1))

    def test_random_games_reach_modest_targets(self):
        rng = np.random.default_rng(88)
        for _ in range(5):
            game = random_nested_game(rng, max_states=30, players=(2, 3))
            engine = agent_form_for(game, 0.1)
            result = solve_nash(engine, SolverConfig(target_regret=0.05))
            assert result.converged
            assert result.certified_regret <= 0.05 + 1e-9


class TestLift:
    def test_lift_covers_every_original_atom(self, informed_anchor):
        engine = agent_form_for(informed_anchor, 0.2)
        result = solve_nash(engine, SolverConfig(target_regret=0.025))
        lifted = lift_strategy(
            result.profile, informed_anchor, engine.aux.hierarchy
        )
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
            aux = build_auxiliary_game(game, hierarchy)
            engine = to_agent_form(aux)
            result = solve_nash(engine, SolverConfig(target_regret=epsilon / 2))
            lifted = lift_strategy(result.profile, game, hierarchy)
            report = certify(game, lifted, epsilon=epsilon)
            transfer = delta * bound * profiles + result.certified_regret
            assert report.max_regret <= transfer + 1e-9
            if result.converged:
                assert report.max_regret <= epsilon + 1e-9

    def test_lift_constant_across_merged_atoms(self):
        game = null_atom_game()
        hierarchy = build_hierarchy(game, 0.3)
        engine = to_agent_form(build_auxiliary_game(game, hierarchy))
        result = solve_nash(engine, SolverConfig(target_regret=0.05))
        lifted = lift_strategy(result.profile, game, hierarchy)
        assert validate_profile(game, lifted) == []

    def test_lift_rejects_original_level_profiles(self, informed_anchor):
        hierarchy = build_hierarchy(informed_anchor, 0.2)
        profile = random_profile(np.random.default_rng(1), informed_anchor)
        with pytest.raises(GameFormatError, match="coarse"):
            lift_strategy(profile, informed_anchor, hierarchy)
