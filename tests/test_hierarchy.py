import itertools

import numpy as np
import pytest

from generators import noisy_redundant_game, random_nested_game
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    InvalidGameError,
    NestedGame,
    PayoffTensor,
    StateSpace,
)
from nestnash.hierarchy import (
    approx_expectation,
    build_hierarchy,
    check_properties,
    expectation_gap,
)


def anchor_with_prior(base: NestedGame, prior: dict) -> NestedGame:
    return NestedGame(
        space=StateSpace(states=base.space.states, prior=prior),
        partitions=base.partitions,
        payoffs=base.payoffs,
    )


def anchor_copies(base: NestedGame, *first: float) -> NestedGame:
    """The informed anchor repeated once per entry of ``first``.

    Copy j has states ``w1.j`` and ``w2.j`` with the anchor's payoffs.
    Player 1 observes the state; player 2 observes only the copy, in
    which ``w1.j`` has conditional weight ``first[j]``.  The copies
    split the prior equally.
    """
    share = 1.0 / len(first)
    prior: dict[str, float] = {}
    atoms1: dict[str, str] = {}
    atoms2: dict[str, str] = {}
    twin: dict[str, str] = {}
    for j, p in enumerate(first):
        for name, weight in (("w1", p), ("w2", 1.0 - p)):
            s = f"{name}.{j}"
            prior[s] = share * weight
            atoms1[s] = f"a{name[1]}.{j}"
            atoms2[s] = f"b.{j}"
            twin[s] = name
    states = tuple(prior)
    return NestedGame(
        space=StateSpace(states=states, prior=prior),
        partitions=(
            InformationPartition(player=1, atom_of=atoms1),
            InformationPartition(player=2, atom_of=atoms2),
        ),
        payoffs=PayoffTensor(
            actions=base.payoffs.actions,
            values={
                (s, prof): base.payoffs.values[(twin[s], prof)]
                for s in states
                for prof in base.payoffs.profiles()
            },
        ),
    )


class TestBuildHierarchy:
    def test_two_state_anchor_structure(self, informed_anchor):
        # Player 2's second atom, (0.45, 0.55), is 0.1 from the first.
        game = anchor_copies(informed_anchor, 0.5, 0.45)
        h = build_hierarchy(game, 0.2)
        assert h.classes.count == 2
        lvl1 = h.level(1)
        assert lvl1.signal_support == ((0,), (1,))
        assert lvl1.belief_support == ({0: 1.0}, {1: 1.0})
        assert lvl1.max_l1_gap == 0.0
        lvl2 = h.level(2)
        assert lvl2.signal_support == ((0, 0), (1, 1))
        assert lvl2.belief_support == ({0: 0.5, 1: 0.5},)
        assert lvl2.max_l1_gap == pytest.approx(0.1, abs=1e-12)
        assert len(h.coarse_partition(1).atoms) == 2
        assert len(h.coarse_partition(2).atoms) == 1
        assert check_properties(game, h).ok

    def test_atom_for_key_lookup(self, informed_anchor):
        h = build_hierarchy(informed_anchor, 0.2)
        key = h.coarse_keys[1][next(iter(h.coarse_partition(2).atoms))]
        assert h.atom_for_key(2, key) is not None
        assert h.atom_for_key(2, (99,)) is None

    def test_skewed_prior_rounding_gap(self, informed_anchor):
        skewed = anchor_copies(informed_anchor, 1 / 3, 0.3)
        h = build_hierarchy(skewed, 0.2)
        # (0.3, 0.7) lies 1/15 from the (1/3, 2/3) centre and joins it.
        (centre,) = h.level(2).belief_support
        assert centre == pytest.approx({0: 1 / 3, 1: 2 / 3}, abs=1e-15)
        assert h.level(2).max_l1_gap == pytest.approx(1 / 15, abs=1e-12)
        assert h.level(2).max_l1_gap < 0.2
        assert len(h.coarse_partition(2).atoms) == 1
        # Below the 1/15 gap each belief is its own centre.
        tight = build_hierarchy(skewed, 0.05)
        assert len(tight.level(2).belief_support) == 2
        assert tight.level(2).max_l1_gap == 0.0
        assert len(tight.coarse_partition(2).atoms) == 2

    def test_beliefs_join_the_first_centre_within_delta(self, informed_anchor):
        # 0.58 and 0.42 are each 0.16 from the 0.5 centre but 0.32 apart.
        # 0.7 is 0.4 from it and opens a second centre.  0.66 is 0.08 from
        # the second centre, yet joins the first, 0.32 away.
        game = anchor_copies(informed_anchor, 0.5, 0.58, 0.42, 0.7, 0.66)
        level = build_hierarchy(game, 0.35).level(2)
        assert [level.atom_belief[f"b.{j}"] for j in range(5)] == [0, 0, 0, 1, 0]
        assert level.belief_support[1] == pytest.approx({0: 0.7, 1: 0.3})
        assert level.max_l1_gap == pytest.approx(0.32, abs=1e-12)

    def test_delta_above_two_merges_disjoint_beliefs(self, informed_anchor):
        # Player 1's point masses on the two classes are exactly 2 apart.
        assert len(build_hierarchy(informed_anchor, 2.0).level(1).belief_support) == 2
        level = build_hierarchy(informed_anchor, 2.5).level(1)
        assert level.belief_support == ({0: 1.0},)
        assert level.max_l1_gap == 2.0

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
                assert a.level(i).belief_support == b.level(i).belief_support
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

    def test_centres_are_delta_apart_and_cover_every_belief(self):
        # Noisy priors put beliefs near, but not at, each other, so the
        # clustering has real merges to make.  Distances here are plain
        # sums over a plainly recomputed conditional.
        def l1(p, q):
            return sum(abs(p.get(z, 0.0) - q.get(z, 0.0)) for z in p.keys() | q)

        rng = np.random.default_rng(5)
        for nu in (1e-2, 1e-1):
            game = noisy_redundant_game(rng, 300, nu)
            for delta in (0.3, 0.05):
                h = build_hierarchy(game, delta)
                assert len(h.level(1).belief_support) < 100
                for i in range(1, game.n + 1):
                    level = h.level(i)
                    for a, b in itertools.combinations(level.belief_support, 2):
                        assert l1(a, b) >= delta - 1e-12
                    prior = game.prior_for(i)
                    for atom, members in game.partition_for(i).atoms.items():
                        mass = sum(prior[s] for s in members)
                        exact: dict[int, float] = {}
                        for s in members:
                            z = level.signal_of[s]
                            exact[z] = exact.get(z, 0.0) + prior[s] / mass
                        centre = level.belief_support[level.atom_belief[atom]]
                        assert l1(exact, centre) < delta + 1e-12


class TestExpectations:
    def test_approx_expectation_uses_rounded_belief(self, informed_anchor):
        skewed = anchor_copies(informed_anchor, 1 / 3, 0.3)
        h = build_hierarchy(skewed, 0.2)
        f = {(0, 0): 1.0, (1, 1): -1.0}
        # The second atom's own belief gives -0.4; its centre gives -1/3.
        assert approx_expectation(h.level(2), f, "w1.1") == pytest.approx(-1 / 3)

    def test_expectation_gap_hand_computed(self, informed_anchor):
        skewed = anchor_copies(informed_anchor, 1 / 3, 0.3)
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
                assert gap < bound * delta + 1e-12

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
