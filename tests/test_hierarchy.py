import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_nested_game
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    InvalidGameError,
    NestedGame,
    PayoffTensor,
    StateSpace,
)
from nestnash.hierarchy import (
    GRID_TOL,
    SimplexGrid,
    SimplexPoint,
    approx_expectation,
    build_hierarchy,
    check_properties,
    expectation_gap,
    grid_for,
)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


class TestSimplexGrid:
    def test_size_counts_compositions(self):
        grid = SimplexGrid(dim=3, resolution=8)
        assert grid.size() == math.comb(10, 2) == 45
        assert grid.size() == len(list(compositions(8, 3)))

    def test_covering_bound_formula(self):
        assert SimplexGrid(dim=3, resolution=8).covering_bound == 0.5
        assert SimplexGrid(dim=1, resolution=1).covering_bound == 0.0

    def test_round_matches_brute_force_nearest(self):
        grid = SimplexGrid(dim=3, resolution=8)
        coords = (1 / 3, 1 / 3, 1 / 3)
        nums = grid.round(coords)
        mine = math.fsum(abs(c - n / 8) for c, n in zip(coords, nums))
        best = min(
            math.fsum(abs(c - n / 8) for c, n in zip(coords, cand))
            for cand in compositions(8, 3)
        )
        assert mine <= best + 1e-12

    def test_round_tie_breaks_to_lexicographically_smallest(self):
        grid = SimplexGrid(dim=2, resolution=1)
        assert grid.round((0.5, 0.5)) == (0, 1)
        grid3 = SimplexGrid(dim=3, resolution=1)
        assert grid3.round((1 / 3, 1 / 3, 1 / 3)) == (0, 0, 1)

    def test_round_handles_mass_excess(self):
        # Defensive path: input above the simplex still lands on the grid.
        grid = SimplexGrid(dim=2, resolution=2)
        nums = grid.round((1.0, 1.0))
        assert sum(nums) == 2

    def test_round_rejects_dimension_mismatch(self):
        with pytest.raises(GameFormatError):
            SimplexGrid(dim=2, resolution=2).round((1.0,))

    def test_point_reconstructs_coordinates(self):
        grid = SimplexGrid(dim=3, resolution=4)
        point = grid.point((1, 0, 3))
        assert point.coords == (0.25, 0.0, 0.75)
        with pytest.raises(GameFormatError):
            grid.point((1, 1, 1))

    def test_degenerate_dimensions_rejected(self):
        with pytest.raises(GameFormatError):
            SimplexGrid(dim=0, resolution=1)
        with pytest.raises(GameFormatError):
            SimplexGrid(dim=2, resolution=0)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(
            lambda xs: sum(xs) > 1e-6
        ),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_is_a_grid_point_within_the_covering_bound(self, raw, k):
        total = math.fsum(raw)
        coords = tuple(x / total for x in raw)
        grid = SimplexGrid(dim=len(coords), resolution=k)
        nums = grid.round(coords)
        assert len(nums) == grid.dim
        assert sum(nums) == k
        assert all(n >= 0 for n in nums)
        gap = math.fsum(abs(c - n / k) for c, n in zip(coords, nums))
        assert gap < grid.covering_bound + GRID_TOL

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3).filter(
            lambda xs: sum(xs) > 1e-6
        ),
        st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_is_l1_optimal(self, raw, k):
        total = math.fsum(raw)
        coords = tuple(x / total for x in raw)
        grid = SimplexGrid(dim=len(coords), resolution=k)
        nums = grid.round(coords)
        mine = math.fsum(abs(c - n / k) for c, n in zip(coords, nums))
        best = min(
            math.fsum(abs(c - n / k) for c, n in zip(coords, cand))
            for cand in compositions(k, len(coords))
        )
        assert mine <= best + 1e-12


class TestGridSelection:
    def test_resolution_formula(self):
        assert grid_for(3, 0.5).resolution == 8
        assert grid_for(2, 0.2).resolution == 10
        assert grid_for(1, 0.01).resolution == 1
        assert grid_for(5, 0.05).resolution == 160

    def test_rounding_error_stays_strictly_below_delta(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(2, 6))
            delta = float(rng.uniform(0.02, 0.8))
            coords = rng.dirichlet(np.ones(dim))
            grid = grid_for(dim, delta)
            nums = grid.round(tuple(coords))
            gap = math.fsum(
                abs(c - n / grid.resolution) for c, n in zip(coords, nums)
            )
            assert gap < delta

    def test_bad_arguments_rejected(self):
        with pytest.raises(GameFormatError):
            grid_for(2, 0.0)
        with pytest.raises(GameFormatError):
            grid_for(0, 0.5)


class TestSimplexPoint:
    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(GameFormatError):
            SimplexPoint(coords=(-0.1, 1.1))
        with pytest.raises(GameFormatError):
            SimplexPoint(coords=(0.5, 0.6))
        with pytest.raises(GameFormatError):
            SimplexPoint(coords=())

    def test_l1_distance(self):
        p = SimplexPoint(coords=(0.25, 0.75))
        assert p.l1_distance((0.75, 0.25)) == pytest.approx(1.0)
        with pytest.raises(GameFormatError):
            p.l1_distance((1.0,))


def anchor_with_prior(base: NestedGame, prior: dict) -> NestedGame:
    return NestedGame(
        space=StateSpace(states=base.space.states, prior=prior),
        partitions=base.partitions,
        payoffs=base.payoffs,
    )


class TestBuildHierarchy:
    def test_two_state_anchor_structure(self, informed_anchor):
        h = build_hierarchy(informed_anchor, 0.2)
        assert h.classes.count == 2
        lvl1 = h.level(1)
        assert lvl1.signal_support == ((0,), (1,))
        assert lvl1.grid.resolution == 10
        assert set(lvl1.belief_numerators) == {(10, 0), (0, 10)}
        assert lvl1.max_l1_gap == 0.0
        lvl2 = h.level(2)
        assert lvl2.signal_support == ((0, 0), (1, 1))
        assert lvl2.belief_numerators == ((5, 5),)
        assert lvl2.max_l1_gap == 0.0
        assert len(h.coarse_partition(1).atoms) == 2
        assert len(h.coarse_partition(2).atoms) == 1
        assert check_properties(informed_anchor, h).ok

    def test_atom_for_key_lookup(self, informed_anchor):
        h = build_hierarchy(informed_anchor, 0.2)
        key = h.coarse_keys[1][next(iter(h.coarse_partition(2).atoms))]
        assert h.atom_for_key(2, key) is not None
        assert h.atom_for_key(2, (99,)) is None

    def test_skewed_prior_rounding_gap(self, informed_anchor):
        skewed = anchor_with_prior(
            informed_anchor, {"w1": 1 / 3, "w2": 2 / 3}
        )
        h = build_hierarchy(skewed, 0.2)
        # Exact conditional (1/3, 2/3) rounds to (3, 7) on the k=10 grid.
        assert h.level(2).belief_numerators == ((3, 7),)
        assert h.level(2).max_l1_gap == pytest.approx(1 / 15, abs=1e-12)
        assert h.level(2).max_l1_gap < 0.2

    def test_identical_beliefs_collapse_coarse_atoms(self):
        # Two informative atoms with the same payoff class and belief merge.
        space = StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.5})
        partitions = (
            InformationPartition(player=1, atom_of={"w1": "a1", "w2": "a2"}),
            InformationPartition(player=2, atom_of={"w1": "b", "w2": "b"}),
        )
        values = {
            (s, p): (1.0, -1.0)
            for s in ("w1", "w2")
            for p in itertools.product(("L", "R"), ("L", "R"))
        }
        game = NestedGame(
            space=space,
            partitions=partitions,
            payoffs=PayoffTensor(actions=(("L", "R"), ("L", "R")), values=values),
        )
        h = build_hierarchy(game, 0.25)
        assert h.classes.count == 1
        assert len(game.partition_for(1).atoms) == 2
        assert len(h.coarse_partition(1).atoms) == 1
        assert check_properties(game, h).ok

    def test_zero_mass_states_get_unrealized_signal(self, informed_anchor):
        degenerate = anchor_with_prior(informed_anchor, {"w1": 1.0, "w2": 0.0})
        h = build_hierarchy(degenerate, 0.2)
        assert h.level(1).signal_of["w2"] == -1
        assert h.level(1).signal_support == ((0,),)
        assert h.level(1).max_l1_gap == 0.0
        assert check_properties(degenerate, h).ok

    def test_rejects_invalid_game(self, informed_anchor):
        bad = anchor_with_prior(informed_anchor, {"w1": 0.7, "w2": 0.7})
        with pytest.raises(InvalidGameError):
            build_hierarchy(bad, 0.2)

    def test_rejects_nonpositive_delta(self, informed_anchor):
        with pytest.raises(GameFormatError):
            build_hierarchy(informed_anchor, 0.0)

    def test_construction_is_deterministic(self):
        games = [
            random_nested_game(np.random.default_rng(11), max_states=60)
            for _ in range(2)
        ]
        for game in games:
            a = build_hierarchy(game, 0.07)
            b = build_hierarchy(game, 0.07)
            for i in range(1, game.n + 1):
                assert a.level(i).signal_support == b.level(i).signal_support
                assert a.level(i).belief_numerators == b.level(i).belief_numerators
                assert a.level(i).max_l1_gap == b.level(i).max_l1_gap
            assert a.coarse_keys == b.coarse_keys

    def test_gap_respects_delta_on_random_games(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            game = random_nested_game(rng, max_states=50)
            for delta in (0.3, 0.08):
                h = build_hierarchy(game, delta)
                for i in range(1, game.n + 1):
                    assert h.level(i).max_l1_gap < delta
                assert check_properties(game, h).ok


class TestExpectations:
    def test_approx_expectation_uses_rounded_belief(self, informed_anchor):
        skewed = anchor_with_prior(informed_anchor, {"w1": 1 / 3, "w2": 2 / 3})
        h = build_hierarchy(skewed, 0.2)
        f = {(0, 0): 1.0, (1, 1): -1.0}
        assert approx_expectation(h.level(2), f, "w1") == pytest.approx(-0.4)

    def test_expectation_gap_hand_computed(self, informed_anchor):
        skewed = anchor_with_prior(informed_anchor, {"w1": 1 / 3, "w2": 2 / 3})
        h = build_hierarchy(skewed, 0.2)
        f = {(0, 0): 1.0, (1, 1): -1.0}
        gap = expectation_gap(skewed, h, 2, f, 1.0)
        assert gap == pytest.approx(1 / 15, abs=1e-12)
        assert gap < 1.0 * 0.2

    def test_expectation_gap_bound_guarantee_random(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            game = random_nested_game(rng, max_states=40)
            delta = 0.11
            h = build_hierarchy(game, delta)
            for i in range(1, game.n + 1):
                support = h.level(i).signal_support
                bound = 2.5
                f = {z: float(rng.uniform(-bound, bound)) for z in support}
                gap = expectation_gap(game, h, i, f, bound)
                assert gap < bound * delta + GRID_TOL

    def test_expectation_gap_validates_inputs(self, informed_anchor):
        h = build_hierarchy(informed_anchor, 0.2)
        f = {(0, 0): 1.0, (1, 1): -1.0}
        with pytest.raises(GameFormatError):
            expectation_gap(informed_anchor, h, 2, f, 0.0)
        with pytest.raises(GameFormatError):
            expectation_gap(informed_anchor, h, 2, {(0, 0): 1.0}, 1.0)
        with pytest.raises(GameFormatError):
            expectation_gap(informed_anchor, h, 2, {(0, 0): 5.0, (1, 1): 0.0}, 1.0)

    def test_approx_expectation_requires_full_support(self, informed_anchor):
        h = build_hierarchy(informed_anchor, 0.2)
        with pytest.raises(GameFormatError):
            approx_expectation(h.level(1), {(0,): 1.0}, "w1")
