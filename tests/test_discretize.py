import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestnash.discretize
from generators import (
    exact_prior,
    nested_partitions,
    random_box_spec,
    random_compact_game,
    random_profile,
)
from nestnash.discretize import (
    CompactGameSpec,
    build_hat_game,
    certify_box,
    certify_sup_gap,
    coarse_to_fine,
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
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    expected_payoff,
    payoff_bound,
    validate_profile,
)
from nestnash.hierarchy import build_hierarchy
from nestnash.pipeline import solve
from nestnash.solver import (
    build_auxiliary_game,
    lift_strategy,
    solve_nash,
    to_agent_form,
)
from oracles import brute_force_check


def solve_hat(disc, target: float):
    """Solve the finite companion and lift back to its original atoms."""
    hierarchy = build_hierarchy(disc.game, 0.01)
    result = solve_nash(to_agent_form(build_auxiliary_game(hierarchy)), target)
    return lift_strategy(result.profile, hierarchy), result


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
        for dim in (0, -1, 1.0, 2.0, True):
            with pytest.raises(GameFormatError, match="net dimension"):
                eta_net(dim, 0.5)
        assert eta_net(np.int64(2), 0.5) == eta_net(2, 0.5)
        with pytest.raises(GameFormatError):
            eta_net(1, 0.0)
        # Positive, but the reciprocal overflows.
        with pytest.raises(GameFormatError, match="and its reciprocal must be"):
            eta_net(1, 5e-324)
        with pytest.raises(GameFormatError, match="and its reciprocal must be"):
            net_spacing(5e-324)


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
        with pytest.raises(GameFormatError, match="step must be finite and positive"):
            floor_to_multiple(1.0, math.inf, 1.0)
        with pytest.raises(GameFormatError, match="step must be finite and positive"):
            floor_to_multiple(1.0, math.nan, 1.0)
        with pytest.raises(GameFormatError, match="bound must be finite and positive"):
            floor_to_multiple(1.0, 0.1, math.inf)
        with pytest.raises(GameFormatError, match="value must not be NaN"):
            floor_to_multiple(math.nan, 0.1, 1.0)

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

    @pytest.mark.parametrize("e", [0.5, 2.0, True])
    def test_exponents_that_are_not_integers_rejected(self, e):
        # The Lipschitz bound sums the exponents, which bounds the slope
        # of x**e on [0, 1] only for integers: sqrt(x) has no bound.
        spec = one_state_linear_spec()
        bad = dataclasses.replace(
            spec, payoffs={**spec.payoffs, ("w", 1): ((1.0, (e, 0)),)}, lipschitz=2.0
        )
        message = "monomial exponents must be nonnegative integers"
        with pytest.raises(GameFormatError, match=message):
            build_hat_game(bad, 0.1)

    @pytest.mark.parametrize("e", [0, np.int64(2)])
    def test_integer_exponents_accepted(self, e):
        spec = one_state_linear_spec()
        good = dataclasses.replace(
            spec, payoffs={**spec.payoffs, ("w", 1): ((1.0, (e, 0)),)}, lipschitz=2.0
        )
        disc = build_hat_game(good, 0.5, mesh=0.5)
        assert disc.true_game.payoff_array[0, 0].tolist() == [
            [0.0**e] * 3,
            [0.5**e] * 3,
            [1.0**e] * 3,
        ]

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
        assert [len(net) for net in disc.game.payoffs.actions] == [5, 5]
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
        disc = assert_matches_scalar_oracle(heavy, 0.5)
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


def assert_matches_scalar_oracle(spec: CompactGameSpec, eps: float):
    """Every value of the grid game is bit-identical to the scalar
    floor of the scalar evaluation, in ``itertools.product`` order."""
    disc = build_hat_game(spec, eps)
    values = disc.game.payoffs.values
    profiles = list(itertools.product(*disc.game.payoffs.actions))
    assert list(values) == [(s, p) for s in spec.space.states for p in profiles]
    kept = set(disc.truncation.omega_double_prime)
    m = disc.truncation.bound_m
    for (s, profile), vals in values.items():
        point = tuple(x for block in profile for x in block)
        want = (0.0,) * spec.n
        if s in kept:
            want = tuple(
                floor_to_multiple(poly_eval(spec.payoffs[(s, i)], point), eps, m)
                for i in range(1, spec.n + 1)
            )
        assert [v.hex() for v in vals] == [w.hex() for w in want], (s, profile)
    return disc


def two_state_spec(polys, lipschitz: float) -> CompactGameSpec:
    """Two players on [0, 1], states w1 and w2, given polynomials."""
    return CompactGameSpec(
        space=StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.5}),
        partitions=(
            InformationPartition(player=1, atom_of={"w1": "a1", "w2": "a2"}),
            InformationPartition(player=2, atom_of={"w1": "b", "w2": "b"}),
        ),
        box_dims=(1, 1),
        payoffs=polys,
        lipschitz=lipschitz,
    )


class TestHatGameOracle:
    """``build_hat_game`` against the scalar path it vectorises."""

    def test_random_specs(self):
        rng = np.random.default_rng(83)
        for _ in range(6):
            spec = random_compact_game(rng)
            for eps in (0.5, 0.1, 0.07):
                assert_matches_scalar_oracle(spec, eps)

    @pytest.mark.parametrize("box_dims", [(2, 1), (1, 2), (1, 1, 1)])
    def test_multi_dimensional_boxes_and_three_players(self, box_dims):
        rng = np.random.default_rng(89)
        spec = random_box_spec(rng, box_dims)
        disc = assert_matches_scalar_oracle(spec, spec.lipschitz / 6.0)
        assert list(map(len, disc.game.payoffs.actions)) == [7**d for d in box_dims]

    @pytest.mark.parametrize("eps", [0.25, 0.1])
    def test_values_on_the_lattice(self, eps):
        # A constant k * eps at x = 0, monomials vanishing on the axes,
        # and values equal to +-bound_m at the far corner.
        spec = two_state_spec(
            {
                ("w1", 1): ((3 * eps, (0, 0)), (0.5, (1, 0))),
                ("w1", 2): ((1.0, (1, 1)),),
                ("w2", 1): ((1.0, (1, 0)), (0.5, (0, 1))),
                ("w2", 2): ((-1.0, (1, 0)), (-0.5, (0, 1))),
            },
            lipschitz=2.0,
        )
        disc = assert_matches_scalar_oracle(spec, eps)
        m = disc.truncation.bound_m
        assert m == 1.5
        assert poly_eval(spec.payoffs[("w2", 1)], (1.0, 1.0)) == m
        assert poly_eval(spec.payoffs[("w2", 2)], (1.0, 1.0)) == -m
        assert disc.game.payoffs.values[("w1", ((0.0,), (0.0,)))][1] == 0.0

    @pytest.mark.parametrize("scale", [1e13, 1e16])
    def test_guard_band_falls_back_to_the_scalar_path(self, monkeypatch, scale):
        # A large constant makes eps tiny relative to the payoff bound:
        # at 1e13 the guard band holds a share of the entries, at 1e16
        # every entry.
        calls = []
        scalar = nestnash.discretize.floor_to_multiple

        def counting(*args):
            calls.append(args)
            return scalar(*args)

        monkeypatch.setattr(nestnash.discretize, "floor_to_multiple", counting)
        spec = two_state_spec(
            {
                (s, i): ((scale, (0, 0)), (0.3, (1, 0)), (-0.7, (0, 1)), (0.4, (1, 1)))
                for s in ("w1", "w2")
                for i in (1, 2)
            },
            lipschitz=2.0,
        )
        disc = build_hat_game(spec, 0.1)
        entries = 2 * len(disc.game.payoffs.values)
        fallback = len(calls)
        monkeypatch.setattr(nestnash.discretize, "floor_to_multiple", scalar)
        assert_matches_scalar_oracle(spec, 0.1)
        if scale == 1e13:
            assert 0 < fallback < entries
        else:
            assert fallback == entries


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
        assert audit.certificate.harsanyi[1] == pytest.approx(0.5)
        assert audit.certificate.harsanyi[2] == 0.0

    def test_off_grid_support_rejected(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        profile = StrategyProfile(
            strategies={1: {"a": {(0.3,): 1.0}}, 2: {"b": {(1.0,): 1.0}}}
        )
        with pytest.raises(GameFormatError, match="player 1 plays unknown action"):
            probe_harsanyi_regret(disc, profile)

    def test_nan_off_the_grid_rejected(self):
        # NaN is not > 0, so the probe's own off-grid walk let it through.
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        bad = StrategyProfile(
            strategies={
                1: {"a": {(1.0,): 1.0}},
                2: {"b": {(1.0,): 1.0, (0.3,): math.nan}},
            }
        )
        match = r"player 2 plays unknown action \(0.3,\)"
        with pytest.raises(GameFormatError, match=match):
            probe_harsanyi_regret(disc, bad)
        with pytest.raises(GameFormatError, match=match):
            certify_box(disc, bad)


def capped_spec(rng: np.random.Generator) -> CompactGameSpec:
    """A random spec plus a state of prior 1e-4 whose payoffs exceed the
    cap by a constant 50, so truncation drops it."""
    base = random_compact_game(rng)
    states = base.space.states + ("heavy",)
    weights = [base.space.prior[s] * (1.0 - 1e-4) for s in base.space.states]
    payoffs = dict(base.payoffs)
    for i in (1, 2):
        payoffs[("heavy", i)] = base.payoffs[(states[0], i)] + ((50.0, (0, 0)),)
    return CompactGameSpec(
        space=StateSpace(
            states=states, prior=exact_prior(np.array(weights + [1e-4]), states)
        ),
        partitions=nested_partitions(rng, states, 2),
        box_dims=base.box_dims,
        payoffs=payoffs,
        lipschitz=base.lipschitz,
        payoff_cap=10.0,
    )


def true_value_game(disc) -> NestedGame:
    """The grid game with ``poly_eval`` of every state's polynomials at
    every joint grid point, dropped states included."""
    spec = disc.spec
    values = {}
    for s in spec.space.states:
        for prof in itertools.product(*disc.game.payoffs.actions):
            point = tuple(itertools.chain.from_iterable(prof))
            values[(s, prof)] = tuple(
                poly_eval(spec.payoffs[(s, i)], point) for i in (1, 2)
            )
    return NestedGame(
        space=disc.game.space,
        partitions=disc.game.partitions,
        payoffs=PayoffTensor(actions=disc.game.payoffs.actions, values=values),
    )


def dyadic_capped_spec() -> CompactGameSpec:
    """Two states, w2 of prior 1e-4 with payoffs over the cap, so
    truncation drops it.  Coefficients and the points of a 0.25 grid are
    dyadic with few bits, so every term and partial sum is exact and any
    summation order gives ``poly_eval``'s float."""
    spec = two_state_spec(
        {
            ("w1", 1): ((1.0, (1, 0)), (0.5, (0, 1)), (-0.25, (1, 1))),
            ("w1", 2): ((0.75, (0, 2)), (-0.5, (1, 0)), (0.125, (0, 0))),
            ("w2", 1): ((50.0, (1, 0)), (0.5, (0, 2))),
            ("w2", 2): ((-50.0, (0, 1)), (0.25, (1, 0))),
        },
        lipschitz=52.0,
    )
    space = StateSpace(states=("w1", "w2"), prior={"w1": 1.0 - 1e-4, "w2": 1e-4})
    return dataclasses.replace(spec, space=space, payoff_cap=10.0)


class TestTrueValueGame:
    def test_each_polynomial_is_evaluated_once_per_mesh(self, monkeypatch):
        calls = []
        values = nestnash.discretize._net_values

        def counted(poly, *args):
            calls.append(poly)
            return values(poly, *args)

        monkeypatch.setattr(nestnash.discretize, "_net_values", counted)
        spec = dyadic_capped_spec()
        disc = build_hat_game(spec, 0.5, mesh=0.25)
        probe_harsanyi_regret(disc, random_profile(np.random.default_rng(3), disc.game))
        assert len(calls) == spec.n * len(spec.space.states)
        assert sorted(map(id, calls)) == sorted(map(id, spec.payoffs.values()))

    def test_holds_every_states_true_values(self):
        spec = dyadic_capped_spec()
        disc = build_hat_game(spec, 0.5, mesh=0.25)
        assert disc.truncation.omega_double_prime == ("w1",)
        assert [len(net) for net in disc.game.payoffs.actions] == [5, 5]
        true_game = disc.true_game
        assert (true_game.space, true_game.partitions) == (
            disc.game.space,
            disc.game.partitions,
        )
        # One tuple of nets, shared by both games.
        nets = disc.game.payoffs.actions
        assert true_game.payoffs.actions is nets
        table = true_game.payoff_array
        floored = disc.game.payoff_array
        for k, s in enumerate(spec.space.states):
            for c, prof in enumerate(itertools.product(*nets)):
                point = tuple(itertools.chain.from_iterable(prof))
                cell = np.unravel_index(c, table.shape[2:])
                for i in (1, 2):
                    want = poly_eval(spec.payoffs[(s, i)], point)
                    assert table[(i - 1, k) + cell].hex() == want.hex()
                    if s == "w2":
                        assert floored[(i - 1, k) + cell] == 0.0
        assert np.abs(table[:, 1]).max() > 10.0


class TestProbeOracle:
    """The probe audit against plain enumeration of grid deviations."""

    def test_matches_brute_force_on_the_true_value_game(self):
        rng = np.random.default_rng(71)
        specs = [random_compact_game(rng) for _ in range(3)] + [capped_spec(rng)]
        for spec in specs:
            disc = build_hat_game(spec, 0.3)
            truth = true_value_game(disc)
            for _ in range(3):
                profile = random_profile(rng, disc.game)
                audit = probe_harsanyi_regret(disc, profile)
                plain = brute_force_check(truth, profile)
                for i, regret in audit.certificate.harsanyi.items():
                    prior = spec.space.prior_for(i)
                    expected = math.fsum(
                        math.fsum(prior[s] for s in members)
                        * max(0.0, plain[(i, atom)])
                        for atom, members in spec.partitions[i - 1].atoms.items()
                    )
                    assert regret == pytest.approx(expected, rel=0, abs=1e-12)
                assert audit.max_regret == max(audit.certificate.harsanyi.values())
        assert "heavy" not in disc.truncation.omega_double_prime

    def test_other_players_off_grid_mass_is_rejected(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        profile = StrategyProfile(
            strategies={
                1: {"a": {(1.0,): 1.0}},
                2: {"b": {(1.0,): 0.5, (0.3,): 0.5}},
            }
        )
        with pytest.raises(GameFormatError, match="player 2 plays unknown action"):
            probe_harsanyi_regret(disc, profile)


class TestAPrioriMesh:
    def test_default_mesh_is_epsilon_over_lipschitz(self):
        # The a-priori chain at mesh epsilon / L, as library callers get it.
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        assert [len(net) for net in disc.game.payoffs.actions] == [5, 5]
        assert disc.eta0 == 0.25
        assert certify_sup_gap(disc).ok
        lifted, _ = solve_hat(disc, target=0.125)
        assert probe_harsanyi_regret(disc, lifted).ok

    def test_mesh_sets_the_grid_not_the_lattice(self):
        spec = one_state_linear_spec()
        disc = build_hat_game(spec, 0.25, mesh=0.5)
        assert [len(net) for net in disc.game.payoffs.actions] == [3, 3]
        assert (disc.epsilon, disc.eta0) == (0.25, 0.5)
        # The linear payoffs sit on the 0.25 lattice at 0, 0.5 and 1.
        assert disc.game.payoffs.values[("w", ((0.5,), (1.0,)))] == (0.5, 1.0)

    @pytest.mark.parametrize("mesh", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_meshes(self, mesh):
        with pytest.raises(GameFormatError, match="mesh"):
            build_hat_game(one_state_linear_spec(), 0.25, mesh=mesh)

    @pytest.mark.parametrize("mesh", [5e-324, 1e-310])
    def test_rejects_meshes_whose_reciprocal_overflows(self, mesh):
        with pytest.raises(GameFormatError, match="and its reciprocal must be"):
            build_hat_game(one_state_linear_spec(), 0.25, mesh=mesh)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_an_epsilon_not_finite_and_positive(self, epsilon):
        spec = one_state_linear_spec()
        message = "epsilon must be finite and positive"
        with pytest.raises(GameFormatError, match=message):
            build_hat_game(spec, epsilon, mesh=0.5)
        with pytest.raises(GameFormatError, match=message):
            build_hat_game(spec, epsilon)
        with pytest.raises(GameFormatError, match=message):
            coarse_to_fine(spec, epsilon)


def unit_lipschitz_spec(rng, box_dims: tuple[int, ...], states: int):
    """Two players, random sparse polynomials scaled so every coefficient
    bound is at most the declared Lipschitz constant 1."""
    names = tuple(f"w{k}" for k in range(states))
    dims = sum(box_dims)
    payoffs = {}
    for s in names:
        for i in (1, 2):
            mono = []
            for _ in range(int(rng.integers(2, 5))):
                exps = [0] * dims
                for _ in range(int(rng.integers(1, 4))):
                    exps[int(rng.integers(0, dims))] += 1
                mono.append((float(rng.uniform(-1.0, 1.0)), tuple(exps)))
            mono.append((float(rng.uniform(-0.5, 0.5)), (0,) * dims))
            payoffs[(s, i)] = tuple(mono)
    scale = max(poly_lipschitz_bound(p) for p in payoffs.values())
    payoffs = {k: tuple((c / scale, e) for c, e in p) for k, p in payoffs.items()}
    return CompactGameSpec(
        space=StateSpace(
            states=names, prior=exact_prior(rng.dirichlet(np.ones(states)), names)
        ),
        partitions=nested_partitions(rng, names, 2),
        box_dims=box_dims,
        payoffs=payoffs,
        lipschitz=1.0,
    )


def sparse_profile(rng, game: NestedGame) -> StrategyProfile:
    """Per atom, one to three grid actions with nonnegative weights."""
    strategies = {}
    for i in (1, 2):
        actions = game.actions_for(i)
        table = {}
        for atom in game.partition_for(i).atoms:
            picks = rng.choice(len(actions), size=int(rng.integers(1, 4)))
            weights = rng.dirichlet(np.ones(len(picks)))
            dist = {}
            for k, w in zip(picks.tolist(), (weights / weights.sum()).tolist()):
                dist[actions[k]] = dist.get(actions[k], 0.0) + w
            table[atom] = dist
        strategies[i] = table
    return StrategyProfile(strategies=strategies, field_level="original")


def oracle_box_regrets(spec, profile, axis) -> dict:
    """Per (player, positive-mass atom): the best value over the own-action
    points ``itertools.product(axis, repeat=d)`` minus the profile's value,
    both by ``poly_eval`` and ``math.fsum`` over the supports."""
    out = {}
    for i, j in ((1, 2), (2, 1)):
        prior = spec.space.prior_for(i)
        for atom, members in spec.partitions[i - 1].atoms.items():
            members = [s for s in members if prior[s] > 0.0]
            mass = math.fsum(prior[s] for s in members)
            if not mass > 0.0:
                continue

            def value(own, s, theirs):
                point = own + theirs if i == 1 else theirs + own
                return poly_eval(spec.payoffs[(s, i)], point)

            def against(own_dist, s):
                other = profile.distribution(j, spec.partitions[j - 1].atom_of[s])
                return math.fsum(
                    p * q * value(own, s, theirs)
                    for own, p in own_dist.items()
                    for theirs, q in other.items()
                )

            mine = profile.distribution(i, atom)
            current = math.fsum(prior[s] * against(mine, s) for s in members) / mass
            best = max(
                math.fsum(prior[s] * against({own: 1.0}, s) for s in members) / mass
                for own in itertools.product(axis, repeat=spec.box_dims[i - 1])
            )
            out[(i, atom)] = best - current
    return out


class TestBoxCertificate:
    """``certify_box`` against plain enumeration of own deviations."""

    @pytest.mark.parametrize(
        "box_dims, states, seed",
        [
            ((1, 1), 1, 1),
            ((1, 1), 2, 2),
            ((1, 1), 3, 3),
            ((2, 1), 2, 4),
            ((2, 2), 3, 5),
        ],
    )
    def test_bounds_the_regret_on_a_fine_own_axis(self, box_dims, states, seed):
        # L = 1 and epsilon = 1/8 give the own net spacing 1/32 and the
        # covering term 1/64.  The oracle axis (4001 points in one
        # dimension, 65 per coordinate in two) contains every net point,
        # so the certificate can exceed it by at most the covering term
        # and the rounding allowance.
        rng = np.random.default_rng(seed)
        spec = unit_lipschitz_spec(rng, box_dims, states)
        disc = build_hat_game(spec, 0.125)
        profile = sparse_profile(rng, disc.game)
        cert = certify_box(disc, profile)
        assert (cert.spacing, cert.covering) == (1 / 32, 1 / 64)
        width = 4001 if max(box_dims) == 1 else 65
        axis = tuple(k / (width - 1) for k in range(width))
        oracle = oracle_box_regrets(spec, profile, axis)
        assert [p.player for p in cert.players] == [1, 2]
        columns = cert.audit.certificate.players
        assert set(oracle) == {(i, atom) for i in columns for atom in columns[i].atoms}
        for p in cert.players:
            atoms, mass = columns[p.player].atoms, columns[p.player].mass
            assert len(p.regret) == len(atoms)
            for atom, r in zip(atoms, p.regret):
                want = oracle[(p.player, atom)]
                assert want - 1e-12 <= r <= want + cert.covering + 1e-9
            assert p.bayesian == max(p.regret)
            harsanyi = math.fsum(m * max(0.0, r) for m, r in zip(mass, p.regret))
            assert p.harsanyi == harsanyi

    def test_dominant_corner_is_certified_at_the_coarsest_grid(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25, mesh=1.0)
        profile = StrategyProfile(
            strategies={1: {"a": {(1.0,): 1.0}}, 2: {"b": {(1.0,): 1.0}}}
        )
        cert = certify_box(disc, profile)
        assert cert.ok
        for p in cert.players:
            assert cert.covering <= p.harsanyi <= cert.covering + 1e-9

    def test_interior_deviation_counts(self):
        # Playing 0 against a payoff x(1 - x) forgoes 1/4 at x = 1/2,
        # which the two-point grid does not hold.
        spec = CompactGameSpec(
            space=StateSpace(states=("w",), prior={"w": 1.0}),
            partitions=one_state_linear_spec().partitions,
            box_dims=(1, 1),
            payoffs={
                ("w", 1): ((1.0, (1, 0)), (-1.0, (2, 0))),
                ("w", 2): ((1.0, (0, 1)),),
            },
            lipschitz=3.0,
        )
        disc = build_hat_game(spec, 0.25, mesh=1.0)
        profile = StrategyProfile(
            strategies={1: {"a": {(0.0,): 1.0}}, 2: {"b": {(1.0,): 1.0}}}
        )
        cert = certify_box(disc, profile)
        assert cert.audit.max_regret == 0.0
        first = cert.players[0]
        assert 0.25 <= first.bayesian <= 0.25 + cert.covering + 1e-9
        assert not cert.ok

    def test_probes_the_profile_it_certifies(self):
        # Each payoff is the player's own coordinate.  Playing 0 forgoes 1,
        # plus the covering term 2 * 0.0125 / 2, and fails; playing 1
        # forgoes only the covering term.  The audit is the certified
        # profile's own, so the second profile's cannot pass the first.
        spec = dataclasses.replace(one_state_linear_spec(), lipschitz=2.0)
        disc = build_hat_game(spec, 0.1, mesh=0.5)

        def corner(x: float) -> StrategyProfile:
            return StrategyProfile(
                strategies={1: {"a": {(x,): 1.0}}, 2: {"b": {(x,): 1.0}}}
            )

        bad, good = certify_box(disc, corner(0.0)), certify_box(disc, corner(1.0))
        assert bad.max_regret == pytest.approx(1.0125, abs=1e-9)
        assert not bad.ok
        assert bad.audit == probe_harsanyi_regret(disc, corner(0.0))
        assert bad.audit.max_regret == 1.0
        assert good.max_regret == pytest.approx(0.0125, abs=1e-9)
        assert good.ok
        assert good.audit.max_regret == 0.0

    def test_a_box_pass_implies_a_probe_pass(self):
        # Criterion 6's specs, solved on every coarse-to-fine mesh.  Every
        # grid deviation is a box deviation, so each atom's box regret is
        # at least its probe regret, and the box budget epsilon is below
        # the probe's.
        rng = np.random.default_rng(6)
        epsilon = 0.1
        for idx in range(20):
            spec = random_compact_game(rng)
            for mesh in coarse_to_fine(spec, epsilon):
                disc = build_hat_game(spec, epsilon, mesh)
                profile = solve(disc.game, epsilon, seed=idx).profile
                box = certify_box(disc, profile)
                probe = box.audit.certificate.players
                for p in box.players:
                    assert len(p.regret) == len(probe[p.player].regret)
                    for r, q in zip(p.regret, probe[p.player].regret):
                        assert r >= q, (idx, mesh, p.player)
                assert box.audit.ok or not box.ok, (idx, mesh)

    def test_rejects_rows_that_are_not_distributions(self):
        disc = build_hat_game(one_state_linear_spec(), 0.25)
        profile = StrategyProfile(
            strategies={1: {"a": {(1.0,): 1.0}}, 2: {"b": {(1.0,): 0.9}}}
        )
        # The probe audit, which ``certify_box`` runs, already refuses it.
        for certificate in (probe_harsanyi_regret, certify_box):
            with pytest.raises(GameFormatError, match="player 2 plays a distribution"):
                certificate(disc, profile)


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
