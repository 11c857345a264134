import itertools
import math

import numpy as np
import pytest

from generators import exact_prior, nested_partitions, random_nested_game
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    InvalidGameError,
    NestedGame,
    PayoffClasses,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    conditional_payoff,
    expected_payoff,
    from_type_space,
    payoff_bound,
    payoff_classes,
    refines,
    validate_game,
    validate_profile,
)


def two_state_game(player_priors=None) -> NestedGame:
    space = StateSpace(
        states=("w1", "w2"),
        prior={"w1": 0.25, "w2": 0.75},
        player_priors=player_priors,
    )
    partitions = (
        InformationPartition(player=1, atom_of={"w1": "f1", "w2": "f2"}),
        InformationPartition(player=2, atom_of={"w1": "g", "w2": "g"}),
    )
    actions = (("A", "B"), ("A", "B"))
    values = {
        ("w1", ("A", "A")): (1.0, 0.0),
        ("w1", ("A", "B")): (2.0, 1.0),
        ("w1", ("B", "A")): (0.0, 3.0),
        ("w1", ("B", "B")): (1.0, 1.0),
        ("w2", ("A", "A")): (0.0, 2.0),
        ("w2", ("A", "B")): (1.0, 0.0),
        ("w2", ("B", "A")): (2.0, 1.0),
        ("w2", ("B", "B")): (3.0, 0.0),
    }
    return NestedGame(
        space=space,
        partitions=partitions,
        payoffs=PayoffTensor(actions=actions, values=values),
    )


def mixed_profile() -> StrategyProfile:
    return StrategyProfile(
        strategies={
            1: {"f1": {"A": 0.5, "B": 0.5}, "f2": {"A": 1.0}},
            2: {"g": {"A": 0.25, "B": 0.75}},
        }
    )


class TestValidation:
    def test_valid_game_passes(self):
        assert validate_game(two_state_game()).ok

    def test_prior_sum_violation(self):
        game = two_state_game()
        bad = NestedGame(
            space=StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.6}),
            partitions=game.partitions,
            payoffs=game.payoffs,
        )
        report = validate_game(bad)
        assert not report.ok
        assert any(v.code == "prior" for v in report.violations)
        assert any("sums to 1.1" in v.message for v in report.violations)

    def test_negative_prior_rejected(self):
        game = two_state_game()
        bad = NestedGame(
            space=StateSpace(states=("w1", "w2"), prior={"w1": 1.2, "w2": -0.2}),
            partitions=game.partitions,
            payoffs=game.payoffs,
        )
        assert not validate_game(bad).ok

    def test_nestedness_violation_names_the_pair(self):
        # Player 2 distinguishes the states, player 1 does not.
        space = StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.5})
        partitions = (
            InformationPartition(player=1, atom_of={"w1": "a", "w2": "a"}),
            InformationPartition(player=2, atom_of={"w1": "b1", "w2": "b2"}),
        )
        actions = (("A",), ("A",))
        values = {
            ("w1", ("A", "A")): (0.0, 0.0),
            ("w2", ("A", "A")): (0.0, 0.0),
        }
        game = NestedGame(
            space=space,
            partitions=partitions,
            payoffs=PayoffTensor(actions=actions, values=values),
        )
        report = validate_game(game)
        assert not report.ok
        bad = [v for v in report.violations if v.code == "nestedness"]
        assert len(bad) == 1
        assert "nestedness fails at player 1" in bad[0].message

    def test_missing_payoff_entry(self):
        game = two_state_game()
        values = dict(game.payoffs.values)
        values.pop(("w2", ("B", "B")))
        bad = NestedGame(
            space=game.space,
            partitions=game.partitions,
            payoffs=PayoffTensor(actions=game.payoffs.actions, values=values),
        )
        report = validate_game(bad)
        assert not report.ok
        assert any(v.code == "payoffs" for v in report.violations)

    def test_partition_must_cover_states(self):
        game = two_state_game()
        partitions = (
            InformationPartition(player=1, atom_of={"w1": "f1"}),
            game.partitions[1],
        )
        bad = NestedGame(
            space=game.space, partitions=partitions, payoffs=game.payoffs
        )
        report = validate_game(bad)
        assert not report.ok
        assert any(v.code == "partition" for v in report.violations)

    def test_invalid_game_error_message(self):
        game = two_state_game()
        bad = NestedGame(
            space=StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.6}),
            partitions=game.partitions,
            payoffs=game.payoffs,
        )
        report = validate_game(bad)
        err = InvalidGameError(report)
        assert "invalid game" in str(err)

    def test_random_corpus_always_validates(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            game = random_nested_game(rng, max_states=40)
            assert validate_game(game).ok


def with_values(game: NestedGame, values: dict) -> NestedGame:
    return NestedGame(
        space=game.space,
        partitions=game.partitions,
        payoffs=PayoffTensor(actions=game.payoffs.actions, values=values),
    )


def payoff_messages(game: NestedGame) -> list[str]:
    return [v.message for v in validate_game(game).violations if v.code == "payoffs"]


class TestPayoffArray:
    def test_entries_follow_state_and_action_order(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            game = random_nested_game(rng, max_states=12)
            table = game.payoff_array
            dims = tuple(len(a) for a in game.payoffs.actions)
            assert table.shape == (game.n, len(game.space.states)) + dims
            for (s, prof), vals in game.payoffs.values.items():
                si = game.space.states.index(s)
                cell = tuple(
                    acts.index(a) for acts, a in zip(game.payoffs.actions, prof)
                )
                assert tuple(table[(slice(None), si) + cell]) == vals

    def test_entry_order_of_the_dict_does_not_matter(self):
        game = two_state_game()
        shuffled = with_values(game, dict(reversed(game.payoffs.values.items())))
        assert np.array_equal(shuffled.payoff_array, game.payoff_array)

    def test_built_once_and_read_only(self):
        game = two_state_game()
        table = game.payoff_array
        assert game.payoffs.array(game.space.states) is table
        assert not table.flags.writeable
        assert table.flags.c_contiguous

    def test_array_backed_tensor_matches_its_dict(self):
        game = two_state_game()
        states = game.space.states
        table = np.array(game.payoff_array)
        tensor = PayoffTensor.from_array(game.payoffs.actions, states, table)
        assert tensor.array(states) is table
        assert not table.flags.writeable
        assert tensor.entry_count == 8
        assert tensor == game.payoffs
        assert list(tensor.values) == list(
            itertools.product(states, game.payoffs.profiles())
        )
        assert validate_game(
            NestedGame(game.space, game.partitions, tensor)
        ).ok

    def test_array_backed_tensor_restacks_for_another_state_order(self):
        game = two_state_game()
        tensor = PayoffTensor.from_array(
            game.payoffs.actions, game.space.states, np.array(game.payoff_array)
        )
        flipped = StateSpace(states=("w2", "w1"), prior=game.space.prior)
        table = NestedGame(flipped, game.partitions, tensor).payoff_array
        assert np.array_equal(table, game.payoff_array[:, ::-1])

    def test_missing_entry_keeps_the_count_message(self):
        game = two_state_game()
        values = dict(game.payoffs.values)
        del values[("w2", ("B", "B"))]
        messages = payoff_messages(with_values(game, values))
        assert messages[0] == "payoff tensor has 7 entries, expected 8"
        assert "('w2', ('B', 'B'))" in messages[1]

    def test_entry_replaced_by_an_unknown_profile_is_caught(self):
        game = two_state_game()
        values = dict(game.payoffs.values)
        values[("w2", ("B", "C"))] = values.pop(("w2", ("B", "B")))
        messages = payoff_messages(with_values(game, values))
        assert messages == [
            "payoff tensor misses the entry at ('w2', ('B', 'B'))"
        ]

    def test_entry_for_an_unknown_state(self):
        game = two_state_game()
        values = dict(game.payoffs.values)
        values[("w9", ("A", "A"))] = (0.0, 0.0)
        assert payoff_messages(with_values(game, values)) == [
            "payoff tensor has 9 entries, expected 8",
            "payoff entry for unknown state 'w9'",
        ]

    def test_entry_of_the_wrong_length(self):
        game = two_state_game()
        values = dict(game.payoffs.values)
        values[("w2", ("A", "B"))] = (1.0,)
        assert payoff_messages(with_values(game, values)) == [
            "payoff entry at ('w2', ('A', 'B')) has 1 values"
        ]
        with pytest.raises(GameFormatError, match="has 1 values"):
            with_values(game, values).payoff_array

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_entry(self, bad):
        game = two_state_game()
        values = dict(game.payoffs.values)
        values[("w2", ("B", "A"))] = (1.0, bad)
        assert payoff_messages(with_values(game, values)) == [
            "non-finite payoff at ('w2', ('B', 'A'))"
        ]

    def test_payoff_bound_is_the_largest_absolute_value(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            game = random_nested_game(rng, max_states=10)
            top = max(abs(x) for vals in game.payoffs.values.values() for x in vals)
            assert payoff_bound(game) == max(1.0, top)
        game = two_state_game()
        values = dict(game.payoffs.values)
        values[("w1", ("B", "A"))] = (-7.5, 0.5)
        bound = payoff_bound(with_values(game, values))
        assert bound == 7.5
        assert type(bound) is float

    def test_signed_zeros_share_a_payoff_class(self):
        game = two_state_game()
        values = {
            (s, prof): (0.0 if s == "w1" else -0.0, 1.0)
            for s, prof in game.payoffs.values
        }
        classes = payoff_classes(with_values(game, values))
        assert classes.count == 1
        assert classes.representatives == ("w1",)


class TestRefinement:
    def test_refines_accepts_chain(self):
        fine = InformationPartition(
            player=1, atom_of={"w1": "x", "w2": "y", "w3": "y"}
        )
        coarse = InformationPartition(
            player=2, atom_of={"w1": "u", "w2": "u", "w3": "u"}
        )
        assert refines(fine, coarse)
        assert not refines(coarse, fine)

    def test_refines_requires_same_states(self):
        a = InformationPartition(player=1, atom_of={"w1": "x"})
        b = InformationPartition(player=2, atom_of={"w2": "y"})
        with pytest.raises(GameFormatError):
            refines(a, b)


class TestPayoffs:
    def test_payoff_bound_floors_at_one(self):
        game = two_state_game()
        assert payoff_bound(game) == 3.0
        small = NestedGame(
            space=game.space,
            partitions=game.partitions,
            payoffs=PayoffTensor(
                actions=game.payoffs.actions,
                values={k: (0.1, -0.2) for k in game.payoffs.values},
            ),
        )
        assert payoff_bound(small) == 1.0

    def test_payoff_classes_group_identical_tables(self):
        game = two_state_game()
        classes = payoff_classes(game)
        assert classes.count == 2
        space = StateSpace(
            states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.5}
        )
        values = {}
        for s in ("w1", "w2"):
            for k, v in two_state_game().payoffs.values.items():
                if k[0] == "w1":
                    values[(s, k[1])] = v
        same = NestedGame(
            space=space,
            partitions=two_state_game().partitions,
            payoffs=PayoffTensor(actions=(("A", "B"), ("A", "B")), values=values),
        )
        merged = payoff_classes(same)
        assert merged.count == 1
        assert merged.ids.tolist() == [0, 0]

    @pytest.mark.parametrize("seed", range(12))
    def test_payoff_classes_match_the_per_state_loop(self, seed):
        rng = np.random.default_rng(seed)
        game = array_game(rng, players=2 + seed % 3, width=seed % 4 == 3)
        assert_same_classes(payoff_classes(game), classes_oracle(game))

    def test_rows_with_one_checksum_split_exactly(self):
        # The checksum folds each entry's bit pattern x to x ^ (x >> 32)
        # and weighs the k-th entry of a row by 2k + 1.  For patterns with
        # all-zero low halves, such as those of 1.0 and 2.0, raising entry
        # 0's pattern by 3 << 32 and lowering entry 1's by 1 << 32 keeps
        # it, so w1 and w2 share w0's checksum without sharing its row; w2
        # repeats w1 and must find w1's class past w0's.
        def shifted(x: float, by: int) -> float:
            return float((np.array([x]).view(np.int64) + by).view(np.float64)[0])

        base = [1.0, 2.0, -0.0, 3.0]
        rows = [
            base,
            [shifted(1.0, 3 << 32), shifted(2.0, -1 << 32), 0.0, 3.0],
            [shifted(1.0, 3 << 32), shifted(2.0, -1 << 32), 0.0, 3.0],
            [1.0, 2.0, 0.0, 3.0],
        ]
        states = ("w0", "w1", "w2", "w3")
        table = np.array(rows).reshape(4, 2, 2).transpose(1, 0, 2).reshape(2, 4, 2, 1)
        game = NestedGame(
            space=StateSpace(states, dict.fromkeys(states, 0.25)),
            partitions=(
                InformationPartition(1, {s: s for s in states}),
                InformationPartition(2, dict.fromkeys(states, "all")),
            ),
            payoffs=PayoffTensor.from_array((("x", "y"), ("z",)), states, table),
        )
        bits = (np.array(rows) + 0.0).view(np.uint64)
        bits ^= bits >> np.uint64(32)
        weights = np.arange(1, 8, 2, dtype=np.uint64)
        assert len(set((bits[:3] @ weights).tolist())) == 1
        classes = payoff_classes(game)
        assert_same_classes(classes, classes_oracle(game))
        assert classes.ids.tolist() == [0, 1, 1, 0]

    def test_classes_are_cached_on_the_game(self):
        game = two_state_game()
        assert game.classes is game.classes
        assert game.classes == payoff_classes(game)

    def test_expected_payoff_hand_computed(self):
        game = two_state_game()
        u = expected_payoff(game, mixed_profile())
        assert u[0] == pytest.approx(0.875, abs=1e-12)
        assert u[1] == pytest.approx(0.65625, abs=1e-12)

    def test_conditional_payoff_hand_computed(self):
        game = two_state_game()
        profile = mixed_profile()
        cond1 = conditional_payoff(game, profile, 1)
        assert cond1["f1"] == pytest.approx(1.25, abs=1e-12)
        assert cond1["f2"] == pytest.approx(0.75, abs=1e-12)
        cond2 = conditional_payoff(game, profile, 2)
        assert cond2["g"] == pytest.approx(0.65625, abs=1e-12)

    def test_player_priors_drive_each_players_expectation(self):
        priors = {
            1: {"w1": 1.0, "w2": 0.0},
            2: {"w1": 0.0, "w2": 1.0},
        }
        game = two_state_game(player_priors=priors)
        assert validate_game(game).ok
        profile = StrategyProfile(
            strategies={
                1: {"f1": {"A": 1.0}, "f2": {"A": 1.0}},
                2: {"g": {"B": 1.0}},
            }
        )
        u = expected_payoff(game, profile)
        # Player 1 believes w1 surely: payoff of (A, B) there is 2.
        assert u[0] == pytest.approx(2.0, abs=1e-12)
        # Player 2 believes w2 surely: payoff of (A, B) there is 0.
        assert u[1] == pytest.approx(0.0, abs=1e-12)


class TestProfiles:
    def test_distribution_missing_atom_raises(self):
        profile = mixed_profile()
        with pytest.raises(GameFormatError, match="no strategy for atom"):
            profile.distribution(1, "nope")

    def test_validate_profile_accepts_good_profile(self):
        assert validate_profile(two_state_game(), mixed_profile()) == []

    def test_validate_profile_flags_bad_sum(self):
        bad = StrategyProfile(
            strategies={
                1: {"f1": {"A": 0.5, "B": 0.6}, "f2": {"A": 1.0}},
                2: {"g": {"A": 1.0}},
            }
        )
        problems = validate_profile(two_state_game(), bad)
        assert any("sums to" in p for p in problems)

    def test_validate_profile_flags_missing_atom(self):
        bad = StrategyProfile(
            strategies={1: {"f1": {"A": 1.0}}, 2: {"g": {"A": 1.0}}}
        )
        problems = validate_profile(two_state_game(), bad)
        assert any("f2" in p for p in problems)

    def test_validate_profile_flags_unknown_action(self):
        bad = StrategyProfile(
            strategies={
                1: {"f1": {"Z": 1.0}, "f2": {"A": 1.0}},
                2: {"g": {"A": 1.0}},
            }
        )
        problems = validate_profile(two_state_game(), bad)
        assert any("Z" in p for p in problems)

    def test_validate_profile_flags_unknown_player(self):
        bad = StrategyProfile(
            strategies={**mixed_profile().strategies, 7: {"zz": {"Q": 1.0}}}
        )
        problems = validate_profile(two_state_game(), bad)
        assert problems == ["strategies given for unknown player 7"]


class TestTypeSpace:
    def test_states_are_positive_mass_profiles_in_product_order(
        self, type_space_game
    ):
        assert type_space_game.space.states == (
            "t1|s1",
            "t1|s2",
            "t2|s2",
        )
        assert validate_game(type_space_game).ok

    def test_partitions_join_type_suffixes(self, type_space_game):
        part1 = type_space_game.partition_for(1)
        part2 = type_space_game.partition_for(2)
        assert part1.atom_of["t1|s1"] == "t1|s1"
        assert part2.atom_of["t1|s1"] == "s1"
        assert part2.atom_of["t1|s2"] == "s2"
        assert part2.atom_of["t2|s2"] == "s2"

    def test_joint_must_be_normalized(self):
        with pytest.raises(GameFormatError, match="joint not normalized"):
            from_type_space(
                (("t1",), ("s1",)),
                {("t1", "s1"): 0.9},
                {(("t1", "s1"), ("A", "A")): (0.0, 0.0)},
                actions=(("A",), ("A",)),
            )

    def test_overflowing_joint_sum_is_rejected(self):
        with pytest.raises(GameFormatError, match="sums to inf"):
            from_type_space(
                (("t1", "t2"), ("s1",)),
                {("t1", "s1"): 1e308, ("t2", "s1"): 1e308},
                {(("t1", "s1"), ("A", "A")): (0.0, 0.0)},
                actions=(("A",), ("A",)),
            )

    def test_labels_with_separator_rejected(self):
        with pytest.raises(GameFormatError, match="\\|"):
            from_type_space(
                (("t|1",), ("s1",)),
                {("t|1", "s1"): 1.0},
                {(("t|1", "s1"), ("A", "A")): (0.0, 0.0)},
                actions=(("A",), ("A",)),
            )

    def test_payoffs_must_cover_realized_profiles(self):
        with pytest.raises(GameFormatError):
            from_type_space(
                (("t1", "t2"), ("s1",)),
                {("t1", "s1"): 0.5, ("t2", "s1"): 0.5},
                {(("t1", "s1"), ("A", "A")): (0.0, 0.0)},
                actions=(("A",), ("A",)),
            )

    def test_actions_inferred_from_payoff_keys(self):
        game = from_type_space(
            (("t1",), ("s1",)),
            {("t1", "s1"): 1.0},
            {
                (("t1", "s1"), ("A", "C")): (0.0, 0.0),
                (("t1", "s1"), ("A", "D")): (1.0, 0.0),
                (("t1", "s1"), ("B", "C")): (0.0, 1.0),
                (("t1", "s1"), ("B", "D")): (0.0, 0.0),
            },
        )
        assert game.actions_for(1) == ("A", "B")
        assert game.actions_for(2) == ("C", "D")

    def test_needs_at_least_two_players(self):
        with pytest.raises(GameFormatError):
            from_type_space(
                (("t1",),),
                {("t1",): 1.0},
                {(("t1",), ("A",)): (0.0,)},
                actions=(("A",),),
            )


class TestSpaces:
    def test_prior_for_defaults_to_common_prior(self):
        game = two_state_game()
        assert game.prior_for(1) == game.space.prior
        assert game.prior_for(2) == game.space.prior

    def test_profiles_iterate_in_product_order(self):
        game = two_state_game()
        profiles = list(game.payoffs.profiles())
        assert profiles == [
            ("A", "A"),
            ("A", "B"),
            ("B", "A"),
            ("B", "B"),
        ]

    def test_atoms_preserve_state_order(self):
        part = InformationPartition(
            player=1, atom_of={"w3": "x", "w1": "x", "w2": "y"}
        )
        assert list(part.atoms.keys()) == ["x", "y"]
        assert part.atoms["x"] == ("w3", "w1")


def classes_oracle(game: NestedGame) -> PayoffClasses:
    """Plain reference: one dict lookup per state on its row's bytes."""
    table = game.payoff_array
    ids, reps, keys = [], [], {}
    for k, s in enumerate(game.space.states):
        key = (table[:, k] + 0.0).tobytes()
        if key not in keys:
            keys[key] = len(reps)
            reps.append(s)
        ids.append(keys[key])
    return PayoffClasses(
        count=len(reps), representatives=tuple(reps), ids=np.array(ids, np.intp)
    )


def assert_same_classes(got: PayoffClasses, want: PayoffClasses) -> None:
    assert got == want
    assert got.ids.dtype == want.ids.dtype
    assert got.ids.tolist() == want.ids.tolist()


def array_game(rng, players: int, width: bool) -> NestedGame:
    """An array-backed game whose payoff rows come from a small pool, with
    every zero given a random sign, so classes repeat and some rows
    differ only by -0.0 against 0.0.  With ``width`` the rows are as
    wide as a continuous grid game's, read in several chunks, and some
    differ from their pool row only in an entry the checksum skips."""
    s_count = int(rng.integers(20, 60)) if width else int(rng.integers(2, 300))
    states = tuple(f"w{k}" for k in range(s_count))
    if width:
        dims = (100, 100)
    else:
        dims = tuple(int(rng.integers(1, 4)) for _ in range(players))
    n = len(dims)
    pool = rng.integers(-1, 2, size=(int(rng.integers(1, 6)), n, *dims)).astype(float)
    table = pool[rng.integers(0, len(pool), size=s_count)]
    if width:
        # Rows that differ only off the entries the checksum samples.
        table[rng.random(s_count) < 0.3, 0, 0, 1] = 7.0
    table[(table == 0.0) & (rng.random(table.shape) < 0.5)] = -0.0
    actions = tuple(tuple(f"a{i}x{j}" for j in range(d)) for i, d in enumerate(dims))
    prior = exact_prior(rng.dirichlet(np.ones(s_count)), states)
    table = np.moveaxis(table, 1, 0).copy()
    return NestedGame(
        space=StateSpace(states, prior),
        partitions=nested_partitions(rng, states, n),
        payoffs=PayoffTensor.from_array(actions, states, table),
    )
