import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_compact_game
from nestnash.discretize import (
    CompactGameSpec,
    build_hat_game,
    certify_sup_gap,
    eta_net,
    floor_to_multiple,
    net_spacing,
    poly_eval,
    poly_lipschitz_bound,
    poly_value_bound,
    probe_harsanyi_regret,
    truncate_states,
)
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    StateSpace,
    StrategyProfile,
    expected_payoff,
    payoff_bound,
    validate_profile,
)
from nestnash.hierarchy import build_hierarchy
from nestnash.solver import (
    SolverConfig,
    build_auxiliary_game,
    lift_strategy,
    solve_nash,
    to_agent_form,
)


def solve_hat(disc, target: float):
    """Solve the finite companion and lift back to its original atoms."""
    hierarchy = build_hierarchy(disc.game, 0.01)
    aux = build_auxiliary_game(disc.game, hierarchy)
    result = solve_nash(to_agent_form(aux), SolverConfig(target_regret=target))
    return lift_strategy(result.profile, disc.game, hierarchy), result


class TestPolynomials:
    def test_eval_and_bounds(self):
        poly = ((2.0, (2, 0)), (-1.0, (0, 1)))
        assert poly_eval(poly, (0.5, 0.25)) == pytest.approx(0.25, abs=1e-15)
        assert poly_value_bound(poly) == 3.0
        assert poly_lipschitz_bound(poly) == 5.0

    def test_constant_poly_has_zero_slope(self):
        poly = ((0.7, (0, 0)),)
        assert poly_eval(poly, (0.3, 0.9)) == 0.7
        assert poly_lipschitz_bound(poly) == 0.0


class TestActionNets:
    def test_grid_shape_and_spacing(self):
        net = eta_net(2, 0.3)
        assert len(net) == 25
        axis = sorted({pt[0] for pt in net})
        assert axis == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert net_spacing(0.3) == 0.25
        assert net_spacing(0.3) <= 0.3

    def test_coarse_resolution_keeps_both_endpoints(self):
        assert eta_net(1, 2.0) == ((0.0,), (1.0,))

    def test_covering_radius(self):
        rng = np.random.default_rng(19)
        net = eta_net(2, 0.3)
        radius = net_spacing(0.3) / 2.0
        for _ in range(200):
            x = rng.uniform(0.0, 1.0, size=2)
            dist = min(max(abs(x[0] - p[0]), abs(x[1] - p[1])) for p in net)
            assert dist <= radius + 1e-12

    def test_rejects_bad_arguments(self):
        with pytest.raises(GameFormatError):
            eta_net(0, 0.5)
        with pytest.raises(GameFormatError):
            eta_net(1, 0.0)


class TestFloorToMultiple:
    def test_hand_cases(self):
        assert floor_to_multiple(0.37, 0.25, 10.0) == 0.25
        assert floor_to_multiple(0.5, 0.25, 10.0) == 0.5
        assert floor_to_multiple(-0.1, 0.25, 10.0) == -0.25
        assert floor_to_multiple(15.0, 0.25, 10.0) == 10.0
        assert floor_to_multiple(-15.0, 0.25, 10.0) == -10.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(GameFormatError):
            floor_to_multiple(1.0, 0.0, 1.0)
        with pytest.raises(GameFormatError):
            floor_to_multiple(1.0, 0.1, 0.0)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(1e-9, 1e3),
        st.floats(1e-6, 1e6),
    )
    @settings(max_examples=400, deadline=None)
    def test_window_is_exact(self, value, step, bound):
        g = floor_to_multiple(value, step, bound)
        z = min(max(value, -bound), bound)
        diff = Fraction(z) - Fraction(g)
        assert 0 <= diff < Fraction(step)


class TestTruncation:
    def test_no_cap_keeps_everything(self):
        trunc = truncate_states(
            {"w1": 3.0, "w2": 0.5}, {"w1": 0.5, "w2": 0.5}, epsilon=0.1
        )
        assert trunc.omega_double_prime == ("w1", "w2")
        assert trunc.bound_m == 3.0
        assert trunc.tail_out == 0.0
        assert trunc.kept_mass == 1.0

    def test_cap_drops_heavy_states_within_budget(self):
        prior = {"w1": 1.0 - 1e-4, "w2": 1e-4}
        trunc = truncate_states(
            {"w1": 1.0, "w2": 100.0}, prior, epsilon=0.1, cap=10.0
        )
        assert trunc.omega_double_prime == ("w1",)
        assert trunc.bound_m == 1.0
        assert trunc.tail_out == pytest.approx(0.01)
        assert trunc.kept_mass == pytest.approx(1.0 - 1e-4)

    def test_cap_rejects_heavy_mass_loss(self):
        with pytest.raises(GameFormatError, match="discards prior mass"):
            truncate_states(
                {"w1": 1.0, "w2": 100.0},
                {"w1": 0.8, "w2": 0.2},
                epsilon=0.1,
                cap=10.0,
            )

    def test_cap_rejects_heavy_payoff_tail(self):
        with pytest.raises(GameFormatError, match="payoff tail"):
            truncate_states(
                {"w1": 1.0, "w2": 1000.0},
                {"w1": 0.999, "w2": 0.001},
                epsilon=0.1,
                cap=10.0,
            )


def one_state_linear_spec() -> CompactGameSpec:
    """Each player's payoff is their own coordinate, so 1.0 dominates."""
    return CompactGameSpec(
        space=StateSpace(states=("w",), prior={"w": 1.0}),
        partitions=(
            InformationPartition(player=1, atom_of={"w": "a"}),
            InformationPartition(player=2, atom_of={"w": "b"}),
        ),
        box_dims=(1, 1),
        payoffs={
            ("w", 1): ((1.0, (1, 0)),),
            ("w", 2): ((1.0, (0, 1)),),
        },
        lipschitz=1.0,
    )


def scaled_distance_spec() -> CompactGameSpec:
    """Zero sum: player 1 earns scale(s) * (a - b)^2, player 2 pays it.

    Player 1 sees the state (scale 0.5 at w1, 1.0 at w2), player 2 does
    not.  Player 2's best column is b = 1/2, leaving value
    0.75 * (1/2)^2 = 0.1875.
    """
    polys = {}
    for s, scale in (("w1", 0.5), ("w2", 1.0)):
        p1 = ((scale, (2, 0)), (-2.0 * scale, (1, 1)), (scale, (0, 2)))
        polys[(s, 1)] = p1
        polys[(s, 2)] = tuple((-c, e) for c, e in p1)
    return CompactGameSpec(
        space=StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.5}),
        partitions=(
            InformationPartition(player=1, atom_of={"w1": "a1", "w2": "a2"}),
            InformationPartition(player=2, atom_of={"w1": "b", "w2": "b"}),
        ),
        box_dims=(1, 1),
        payoffs=polys,
        lipschitz=8.0,
    )


class TestSpecValidation:
    def test_random_specs_build(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            spec = random_compact_game(rng)
            disc = build_hat_game(spec, 0.2)
            assert disc.eta0 == pytest.approx(0.2 / spec.lipschitz)

    def test_understated_lipschitz_rejected(self):
        spec = scaled_distance_spec()
        bad = CompactGameSpec(
            space=spec.space,
            partitions=spec.partitions,
            box_dims=spec.box_dims,
            payoffs=spec.payoffs,
            lipschitz=6.0,
        )
        with pytest.raises(GameFormatError, match="below the coefficient bound"):
            build_hat_game(bad, 0.1)

    def test_wrong_exponent_arity_rejected(self):
        spec = one_state_linear_spec()
        bad = CompactGameSpec(
            space=spec.space,
            partitions=spec.partitions,
            box_dims=spec.box_dims,
            payoffs={("w", 1): ((1.0, (1,)),), ("w", 2): ((1.0, (0, 1)),)},
            lipschitz=1.0,
        )
        with pytest.raises(GameFormatError, match="length 2"):
            build_hat_game(bad, 0.1)

    def test_missing_polynomial_rejected(self):
        spec = one_state_linear_spec()
        bad = CompactGameSpec(
            space=spec.space,
            partitions=spec.partitions,
            box_dims=spec.box_dims,
            payoffs={("w", 1): ((1.0, (1, 0)),)},
            lipschitz=1.0,
        )
        with pytest.raises(GameFormatError, match="missing payoff"):
            build_hat_game(bad, 0.1)


class TestHatGame:
    def test_linear_payoffs_are_exact_on_the_grid(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        assert disc.eta0 == 0.25
        assert [len(n) for n in disc.nets] == [5, 5]
        # 0.25-lattice values of a linear payoff on the 0.25 grid are exact.
        assert disc.game.payoffs.values[("w", ((1.0,), (0.5,)))] == (1.0, 0.5)
        assert disc.game.payoffs.values[("w", ((0.75,), (0.0,)))] == (0.75, 0.0)
        assert payoff_bound(disc.game) == 1.0

    def test_quantization_never_exceeds_the_true_value(self):
        rng = np.random.default_rng(47)
        spec = random_compact_game(rng)
        disc = build_hat_game(spec, 0.15)
        for (s, profile), vals in list(disc.game.payoffs.values.items())[:200]:
            point = tuple(x for block in profile for x in block)
            for i in range(1, 3):
                true = poly_eval(spec.payoffs[(s, i)], point)
                assert vals[i - 1] <= true + 1e-12
                assert true - vals[i - 1] < 0.15 + 1e-12

    def test_capped_spec_zeroes_dropped_states(self):
        spec = scaled_distance_spec()
        prior = {"w1": 1.0 - 1e-4, "w2": 1e-4}
        heavy = CompactGameSpec(
            space=StateSpace(states=("w1", "w2"), prior=prior),
            partitions=spec.partitions,
            box_dims=spec.box_dims,
            payoffs={
                ("w1", 1): ((1.0, (1, 0)),),
                ("w1", 2): ((1.0, (0, 1)),),
                ("w2", 1): ((50.0, (1, 0)),),
                ("w2", 2): ((50.0, (0, 1)),),
            },
            lipschitz=50.0,
            payoff_cap=10.0,
        )
        disc = build_hat_game(heavy, 0.5)
        assert disc.truncation.omega_double_prime == ("w1",)
        profile = next(iter(disc.game.payoffs.profiles()))
        assert disc.game.payoffs.values[("w2", profile)] == (0.0, 0.0)
        cert = certify_sup_gap(disc)
        assert cert.players[0].tail_out == pytest.approx(1e-4 * 50.0)
        assert cert.ok

    def test_gap_certificate_terms(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        cert = certify_sup_gap(disc)
        assert cert.budget == 0.75
        for gap in cert.players:
            assert gap.rounding == pytest.approx(0.25)
            assert gap.net == pytest.approx(0.125)
            assert gap.tail_out == 0.0
            assert gap.total == pytest.approx(0.375)
        assert cert.ok

    def test_gap_certificate_on_random_specs(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            spec = random_compact_game(rng)
            eps = 0.1
            disc = build_hat_game(spec, eps)
            cert = certify_sup_gap(disc)
            assert cert.ok
            for gap in cert.players:
                assert gap.rounding <= eps + 1e-12
                assert gap.net <= spec.lipschitz * disc.eta0 / 2.0 + 1e-12
                assert gap.total <= 3.0 * eps + 1e-9


class TestProbeAudit:
    def test_dominant_action_equilibrium_probes_clean(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        profile = StrategyProfile(
            strategies={1: {"a": {(1.0,): 1.0}}, 2: {"b": {(1.0,): 1.0}}}
        )
        audit = probe_harsanyi_regret(disc, profile)
        assert audit.budget == pytest.approx(5 * 0.25 + 0.125)
        assert audit.max_regret == 0.0
        assert audit.ok

    def test_probe_measures_true_continuous_regret(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        profile = StrategyProfile(
            strategies={1: {"a": {(0.5,): 1.0}}, 2: {"b": {(1.0,): 1.0}}}
        )
        audit = probe_harsanyi_regret(disc, profile)
        assert audit.entries[0].regret == pytest.approx(0.5)
        assert audit.entries[1].regret == 0.0

    def test_off_grid_support_rejected(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        profile = StrategyProfile(
            strategies={1: {"a": {(0.3,): 1.0}}, 2: {"b": {(1.0,): 1.0}}}
        )
        with pytest.raises(GameFormatError, match="off-grid"):
            probe_harsanyi_regret(disc, profile)

    def test_custom_budget_controls_the_verdict(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        profile = StrategyProfile(
            strategies={1: {"a": {(0.5,): 1.0}}, 2: {"b": {(1.0,): 1.0}}}
        )
        audit = probe_harsanyi_regret(disc, profile, budget=0.1)
        assert not audit.ok


class TestEndToEnd:
    def test_scaled_distance_anchor_value(self):
        spec = scaled_distance_spec()
        eps = 0.1
        disc = build_hat_game(spec, eps)
        assert disc.eta0 == pytest.approx(0.0125)
        lifted, result = solve_hat(disc, target=eps / 2)
        assert result.converged
        assert validate_profile(disc.game, lifted) == []
        audit = probe_harsanyi_regret(disc, lifted)
        assert audit.ok
        assert audit.max_regret <= 5 * eps + spec.lipschitz * disc.eta0 / 2.0
        value = expected_payoff(disc.game, lifted)[0]
        assert abs(value - 0.1875) <= 5 * eps

    def test_random_specs_certify_end_to_end(self):
        rng = np.random.default_rng(67)
        for _ in range(3):
            spec = random_compact_game(rng)
            eps = 0.1
            disc = build_hat_game(spec, eps)
            assert certify_sup_gap(disc).ok
            lifted, result = solve_hat(disc, target=eps / 2)
            audit = probe_harsanyi_regret(disc, lifted)
            assert audit.ok
