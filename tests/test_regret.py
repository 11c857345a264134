import itertools
import math

import numpy as np
import pytest

import nestnash.regret
from generators import exact_prior, random_nested_game, random_profile, redundant_game
from nestnash.game import (
    DERIVED_TOL,
    GameFormatError,
    InformationPartition,
    InvalidGameError,
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
    conditional_payoff,
    payoff_bound,
)
from nestnash.hierarchy import build_hierarchy
from nestnash.pipeline import solve
from nestnash.regret import (
    CERT_SLACK,
    bayesian_regret,
    brute_force_check,
    certify,
    coarse_best_response_gap,
    regret_report,
)
from nestnash.solver import lift_strategy
from test_certificates import _with_player_priors
from test_game import mixed_profile, two_state_game
from test_hierarchy import anchor_copies


def atom_values(game: NestedGame, table: dict, player: int, atom) -> dict:
    """``player``'s own-action values on ``atom`` in a ``bayesian_regret``
    table, by action."""
    record = table[player]
    row = record.values[record.atoms.index(atom)]
    return dict(zip(game.actions_for(player), row))


def atom_entry(table: dict, player: int, atom, column: str):
    """One column's entry for ``atom`` in a ``bayesian_regret`` table."""
    record = table[player]
    return getattr(record, column)[record.atoms.index(atom)]


class TestBestResponse:
    def test_hand_computed_action_values(self):
        game = two_state_game()
        table = bayesian_regret(game, mixed_profile())
        f1 = atom_values(game, table, 1, "f1")
        assert f1["A"] == pytest.approx(1.75, abs=1e-12)
        assert f1["B"] == pytest.approx(0.75, abs=1e-12)
        assert atom_entry(table, 1, "f1", "best_actions") == ("A",)
        assert atom_values(game, table, 1, "f2")["B"] == pytest.approx(2.75, abs=1e-12)
        g = atom_values(game, table, 2, "g")
        assert g["A"] == pytest.approx(1.875, abs=1e-12)
        assert g["B"] == pytest.approx(0.25, abs=1e-12)

    def test_ties_collect_all_argmax_actions(self, matching_pennies):
        uniform = StrategyProfile(
            strategies={
                1: {"a": {"H": 0.5, "T": 0.5}},
                2: {"b": {"H": 0.5, "T": 0.5}},
            }
        )
        table = bayesian_regret(matching_pennies, uniform)
        assert atom_entry(table, 1, "a", "best_actions") == ("H", "T")

    @pytest.mark.parametrize("kind", ["nested", "redundant", "priors"])
    @pytest.mark.parametrize("seed", range(6))
    def test_one_evaluator(self, kind, seed):
        # conditional_payoff and the certificate's current values are one
        # table, float for float, and each best action attains the best value.
        rng = np.random.default_rng(700 + seed)
        if kind == "nested":
            game = random_nested_game(rng, max_states=30)
        else:
            game = oracle_game(rng, "redundant" if kind == "redundant" else "nested")
        profile = signed_zero_profile(rng, game)
        table = bayesian_regret(game, profile)
        for i, record in table.items():
            current = conditional_payoff(game, profile, i)
            assert list(current) == list(record.atoms)
            assert [v.hex() for v in current.values()] == [
                v.hex() for v in record.current_value
            ]
            actions = game.actions_for(i)
            for row, best, tops in zip(
                record.values, record.best_value, record.best_actions
            ):
                assert best == max(row)
                assert abs(row[actions.index(tops[0])] - best) <= DERIVED_TOL


class TestBayesianRegret:
    def test_hand_computed_atom_regrets(self):
        game = two_state_game()
        table = bayesian_regret(game, mixed_profile())
        assert atom_entry(table, 1, "f1", "regret") == pytest.approx(0.5, abs=1e-12)
        assert atom_entry(table, 1, "f2", "regret") == pytest.approx(2.0, abs=1e-12)
        assert atom_entry(table, 2, "g", "regret") == pytest.approx(
            1.21875, abs=1e-12
        )
        assert atom_entry(table, 1, "f1", "mass") == pytest.approx(0.25)
        assert atom_entry(table, 1, "f2", "best_actions") == ("B",)

    def test_zero_mass_atoms_are_skipped(self, informed_anchor):
        degenerate = NestedGame(
            space=StateSpace(
                states=("w1", "w2"), prior={"w1": 1.0, "w2": 0.0}
            ),
            partitions=informed_anchor.partitions,
            payoffs=informed_anchor.payoffs,
        )
        profile = StrategyProfile(
            strategies={1: {"a1": {"L": 1.0}}, 2: {"b": {"L": 1.0}}}
        )
        table = bayesian_regret(degenerate, profile)
        assert table[1].atoms == ("a1",)

    @pytest.mark.parametrize("seed", range(16))
    def test_distinct_rows_match_the_per_state_oracle(self, seed):
        rng = np.random.default_rng(900 + seed)
        game = oracle_game(rng, "redundant" if seed % 4 == 0 else "nested")
        profile = signed_zero_profile(rng, game)
        got = {i: atom_hex(r) for i, r in bayesian_regret(game, profile).items()}
        assert got == regret_oracle(game, profile)

    def test_inflated_distribution_trips_the_consistency_guard(self):
        # The row check refuses the inflated row before any regret is
        # formed; ``test_verdicts.py`` reaches the guard itself.
        game = two_state_game()
        broken = StrategyProfile(
            strategies={
                1: {"f1": {"A": 2.0}, "f2": {"A": 1.0}},
                2: {"g": {"A": 0.25, "B": 0.75}},
            }
        )
        with pytest.raises(GameFormatError, match="player 1 plays a distribution"):
            bayesian_regret(game, broken)


class TestCertify:
    def test_report_fields_and_witness(self):
        game = two_state_game()
        report = certify(game, mixed_profile(), epsilon=2.1)
        assert report.max_regret == pytest.approx(2.0, abs=1e-12)
        assert report.witness == (1, "f2", "B")
        assert report.harsanyi[1] == pytest.approx(1.625, abs=1e-12)
        assert report.harsanyi[2] == pytest.approx(1.21875, abs=1e-12)
        assert report.passed

    # ``informed_anchor`` is the README tour game.  Neither profile
    # below is a probability vector on every atom, and each certified
    # as passing when the certifier read its rows unchecked.
    def test_refuses_nan_play(self, informed_anchor):
        profile = StrategyProfile(
            strategies={
                1: {"a1": {"L": 1.0}, "a2": {"L": math.nan, "R": 1.0}},
                2: {"b": {"L": 0.5, "R": 0.5}},
            }
        )
        with pytest.raises(GameFormatError, match="player 1 plays a distribution"):
            certify(informed_anchor, profile, epsilon=0.05)

    def test_refuses_play_short_of_unit_mass(self, informed_anchor):
        def profile(p: float) -> StrategyProfile:
            return StrategyProfile(
                strategies={
                    1: {"a1": {"R": 1.0}, "a2": {"L": 1.0}},
                    2: {"b": {"L": p, "R": p}},
                }
            )

        # Scaled to unit mass the same play has regret 0.5.
        assert certify(informed_anchor, profile(0.5), epsilon=0.05).max_regret == 0.5
        with pytest.raises(GameFormatError, match="player 2 plays a distribution"):
            certify(informed_anchor, profile(0.005), epsilon=0.05)

    def test_fails_below_the_worst_regret(self):
        game = two_state_game()
        assert not certify(game, mixed_profile(), epsilon=1.9).passed

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, -1.0, -1e-300])
    def test_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        # An infinite epsilon would pass the worst profile unseen.
        game = two_state_game()
        match = "epsilon must be finite and nonnegative"
        with pytest.raises(GameFormatError, match=match):
            certify(game, mixed_profile(), epsilon)
        with pytest.raises(GameFormatError, match=match):
            regret_report(bayesian_regret(game, mixed_profile()), epsilon)

    def test_invalid_game_is_rejected_before_any_arithmetic(self):
        # One player: the evaluator's joint distribution over the others
        # would have no factor to start from.
        game = NestedGame(
            space=StateSpace(states=("s",), prior={"s": 1.0}),
            partitions=(InformationPartition(1, {"s": "a"}),),
            payoffs=PayoffTensor(
                actions=(("L", "R"),),
                values={("s", ("L",)): (1.0,), ("s", ("R",)): (0.0,)},
            ),
        )
        profile = StrategyProfile(strategies={1: {"a": {"L": 1.0}}})
        with pytest.raises(InvalidGameError, match="need at least 2 players, got 1"):
            certify(game, profile, 0.1)
        with pytest.raises(InvalidGameError, match="need at least 2 players, got 1"):
            bayesian_regret(game, profile)

    def test_exact_equilibrium_passes_at_zero(self, informed_anchor):
        profile = StrategyProfile(
            strategies={
                1: {
                    "a1": {"L": 1 / 3, "R": 2 / 3},
                    "a2": {"L": 2 / 3, "R": 1 / 3},
                },
                2: {"b": {"L": 1 / 3, "R": 2 / 3}},
            }
        )
        report = certify(informed_anchor, profile, epsilon=0.0)
        assert report.max_regret <= 1e-15
        assert report.passed
        assert max(report.harsanyi.values()) <= 1e-15

    def test_uniform_matching_pennies_has_zero_regret(self, matching_pennies):
        uniform = StrategyProfile(
            strategies={
                1: {"a": {"H": 0.5, "T": 0.5}},
                2: {"b": {"H": 0.5, "T": 0.5}},
            }
        )
        report = certify(matching_pennies, uniform, epsilon=0.0)
        assert report.max_regret == 0.0
        assert report.passed

    def test_witness_action_attains_best_value(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            game = random_nested_game(rng, max_states=20, players=(2, 3))
            profile = random_profile(rng, game)
            report = certify(game, profile, epsilon=0.0)
            if report.witness is None:
                continue
            player, atom, action = report.witness
            table = bayesian_regret(game, profile)
            assert atom_values(game, table, player, atom)[action] == pytest.approx(
                atom_entry(table, player, atom, "best_value"), abs=1e-12
            )

    def test_harsanyi_never_exceeds_worst_interim_regret(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            game = random_nested_game(rng, max_states=30)
            report = certify(game, random_profile(rng, game), epsilon=1.0)
            assert max(report.harsanyi.values()) <= report.max_regret + 1e-12


class TestBruteForce:
    def test_matches_the_factorized_path_on_random_games(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            game = random_nested_game(rng, max_states=25, players=(2, 3))
            profile = random_profile(rng, game)
            table = bayesian_regret(game, profile)
            brute = brute_force_check(game, profile)
            for i, record in table.items():
                for atom, regret in zip(record.atoms, record.regret):
                    assert brute[(i, atom)] == pytest.approx(regret, abs=1e-9)

    def test_mixed_grid_deviations_never_beat_pure_ones(self):
        game = two_state_game()
        profile = mixed_profile()
        pure = brute_force_check(game, profile)
        gridded = brute_force_check(game, profile, mixed_resolution=6)
        for key in pure:
            assert gridded[key] <= pure[key] + 1e-9
            assert gridded[key] >= pure[key] - 1e-9

    def test_refuses_oversized_enumerations(self):
        game = two_state_game()
        with pytest.raises(GameFormatError, match="exceed"):
            brute_force_check(
                game, mixed_profile(), mixed_resolution=200, max_evaluations=10
            )


def collapse_game() -> NestedGame:
    """Player 1 privately learns the state, but payoffs never depend on it,
    so the coarse hierarchy merges player 1's two atoms into one."""
    space = StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.5})
    partitions = (
        InformationPartition(player=1, atom_of={"w1": "a1", "w2": "a2"}),
        InformationPartition(player=2, atom_of={"w1": "b", "w2": "b"}),
    )
    values = {
        (s, p): (float(p[0] == p[1]), -float(p[0] == p[1]))
        for s in ("w1", "w2")
        for p in itertools.product(("L", "R"), ("L", "R"))
    }
    return NestedGame(
        space=space,
        partitions=partitions,
        payoffs=PayoffTensor(actions=(("L", "R"), ("L", "R")), values=values),
    )


# coarse_best_response_gap per player, as float.hex, for the seeded games
# of ``gap_cases``.  Every reconstructed value is an fsum of p * u terms,
# so these floats hold however the evaluator forms and orders the terms.
GAP_HEX = {
    "nested2": ["0x1.0000000000000p-53", "0x1.0000000000000p-54"],
    "nested3": ["0x1.0000000000000p-56", "0x1.0000000000000p-52", "0x0.0p+0"],
    "nested4": [
        "0x1.0000000000000p-52",
        "0x1.0000000000000p-52",
        "0x1.0000000000000p-53",
        "0x0.0p+0",
    ],
    "redundant@0.6": ["0x1.2000000000000p-49", "0x1.e6fc94d217fe8p-2"],
    "redundant@0.3": ["0x1.2000000000000p-49", "0x1.0000000000000p-53"],
}


def gap_cases():
    """(name, game, delta): 2-4-player random games and a redundant game."""
    for n in (2, 3, 4):
        rng = np.random.default_rng(n)
        yield f"nested{n}", random_nested_game(rng, max_states=30, players=(n,)), 0.6
    for delta in (0.6, 0.3):
        game = redundant_game(np.random.default_rng(5), 48)
        yield f"redundant@{delta}", game, delta


class TestCoarseReconstruction:
    def test_gap_floats_are_pinned(self):
        for name, game, delta in gap_cases():
            solution = solve(game, 0.05, delta=delta)
            for profile in (solution.profile, solution.result.profile):
                gaps = [
                    coarse_best_response_gap(game, solution.hierarchy, profile, i)
                    for i in range(1, game.n + 1)
                ]
                assert [g.hex() for g in gaps] == GAP_HEX[name], name

    def test_coarse_profile_gap_is_its_lift_gap(self):
        # The exact side lifts every player's coarse play to the original
        # atoms, the player's own included.
        for name, game, delta in gap_cases():
            h = build_hierarchy(game, delta)
            rng = np.random.default_rng(len(name))
            strategies = {}
            for i, acts in enumerate(game.payoffs.actions, start=1):
                strategies[i] = {
                    atom: dict(zip(acts, rng.dirichlet(np.ones(len(acts))).tolist()))
                    for atom in h.coarse_partition(i).atoms
                }
            coarse = StrategyProfile(strategies, field_level="coarse")
            lifted = lift_strategy(coarse, game, h)
            for i in range(1, game.n + 1):
                got = coarse_best_response_gap(game, h, coarse, i)
                want = coarse_best_response_gap(game, h, lifted, i)
                assert got.hex() == want.hex(), (name, i)

    def test_one_player_is_evaluated(self, monkeypatch):
        # The gap reads the profile on its player's support alone, with
        # one ``_state_values`` call; reading it at every state some
        # player weighs, as ``bayesian_regret`` does, gives the same gap.
        calls = []
        state_values = nestnash.regret._state_values
        strategies_at = nestnash.regret._strategies_at

        def counted(*args):
            calls.append(args[1])
            return state_values(*args)

        def everywhere(game, profile, positions, players):
            weighed = np.concatenate([s.positions for s in game.supports])
            return strategies_at(game, profile, weighed, players)

        cases = list(gap_cases())
        rng = np.random.default_rng(23)
        cases += [
            (f"{name}-priors", _with_player_priors(rng, game), delta)
            for name, game, delta in cases
        ]
        for name, game, delta in cases:
            h = build_hierarchy(game, delta)
            rng = np.random.default_rng(len(name))
            strategies = {}
            for i, acts in enumerate(game.payoffs.actions, start=1):
                strategies[i] = {
                    atom: dict(zip(acts, rng.dirichlet(np.ones(len(acts))).tolist()))
                    for atom in h.coarse_partition(i).atoms
                }
            coarse = StrategyProfile(strategies, field_level="coarse")
            for profile in (coarse, lift_strategy(coarse, game, h)):
                for i in range(1, game.n + 1):
                    with monkeypatch.context() as patch:
                        patch.setattr(nestnash.regret, "_state_values", counted)
                        got = coarse_best_response_gap(game, h, profile, i)
                    assert calls == [i], (name, i)
                    calls.clear()
                    with monkeypatch.context() as patch:
                        patch.setattr(nestnash.regret, "_strategies_at", everywhere)
                        want = coarse_best_response_gap(game, h, profile, i)
                    assert got.hex() == want.hex(), (name, i)

    def test_exact_beliefs_reconstruct_exactly(self, informed_anchor):
        h = build_hierarchy(informed_anchor, 0.2)
        profile = StrategyProfile(
            strategies={
                1: {"a1": {"L": 1.0}, "a2": {"R": 1.0}},
                2: {"b": {"L": 1 / 3, "R": 2 / 3}},
            }
        )
        for player in (1, 2):
            gap = coarse_best_response_gap(informed_anchor, h, profile, player)
            assert gap <= 1e-12

    def test_rounded_belief_gap_hand_computed(self, informed_anchor):
        # Player 2's atoms hold (1/3, 2/3) and (0.3, 0.7); the second joins
        # the first's centre.  Against L, action L is worth -0.6 on the
        # second atom and -2/3 at the centre.
        skewed = anchor_copies(informed_anchor, 1 / 3, 0.3)
        h = build_hierarchy(skewed, 0.2)
        profile = StrategyProfile(
            strategies={
                1: {atom: {"L": 1.0} for atom in skewed.partition_for(1).atoms},
                2: {"b.0": {"L": 1.0}, "b.1": {"L": 1.0}},
            }
        )
        gap = coarse_best_response_gap(skewed, h, profile, 2)
        assert gap == pytest.approx(1 / 15, abs=1e-12)
        assert gap <= payoff_bound(skewed) * 0.2

    def test_gap_within_transfer_bound_on_random_games(self):
        rng = np.random.default_rng(37)
        done = 0
        for _ in range(20):
            game = random_nested_game(rng, max_states=20, players=(2, 3))
            delta = 0.15
            h = build_hierarchy(game, delta)
            # Constant play per coarse atom, copied down to original atoms.
            strategies: dict[int, dict] = {}
            for i in range(1, game.n + 1):
                coarse = h.coarse_partition(i)
                original = game.partition_for(i)
                actions = game.actions_for(i)
                table = {}
                for members in coarse.atoms.values():
                    weights = rng.dirichlet(np.ones(len(actions)))
                    head = [float(w) for w in weights[:-1]]
                    dist = dict(zip(actions, head + [1.0 - math.fsum(head)]))
                    for s in members:
                        table[original.atom_of[s]] = dist
                strategies[i] = table
            profile = StrategyProfile(strategies=strategies)
            bound = payoff_bound(game)
            for i in range(1, game.n + 1):
                gap = coarse_best_response_gap(game, h, profile, i)
                assert gap <= bound * delta + 1e-9
            done += 1
        assert done == 20

    def test_rejects_profiles_not_constant_on_coarse_atoms(self):
        game = collapse_game()
        h = build_hierarchy(game, 0.25)
        assert len(h.coarse_partition(1).atoms) == 1
        profile = StrategyProfile(
            strategies={
                1: {"a1": {"L": 1.0}, "a2": {"R": 1.0}},
                2: {"b": {"L": 1.0}},
            }
        )
        with pytest.raises(GameFormatError, match="not constant"):
            coarse_best_response_gap(game, h, profile, 2)

    def test_accepts_coarse_level_profiles(self):
        game = collapse_game()
        h = build_hierarchy(game, 0.25)
        atom1 = next(iter(h.coarse_partition(1).atoms))
        atom2 = next(iter(h.coarse_partition(2).atoms))
        profile = StrategyProfile(
            strategies={
                1: {atom1: {"L": 1.0}},
                2: {atom2: {"R": 1.0}},
            },
            field_level="coarse",
        )
        gap = coarse_best_response_gap(game, h, profile, 2)
        assert gap <= 1e-12

    def test_play_is_compared_as_rows(self):
        # An action at probability 0 is the same play as a missing one,
        # as the certifier reads it.
        game = collapse_game()
        h = build_hierarchy(game, 0.25)
        profile = StrategyProfile(
            strategies={
                1: {"a1": {"L": 1.0}, "a2": {"L": 1.0, "R": 0.0}},
                2: {"b": {"L": 1.0}},
            }
        )
        assert coarse_best_response_gap(game, h, profile, 2).hex() == "0x0.0p+0"

    def test_original_profile_lacking_an_atom_is_rejected(self):
        game = collapse_game()
        h = build_hierarchy(game, 0.25)
        profile = StrategyProfile({1: {"a1": {"L": 1.0}}, 2: {"b": {"L": 1.0}}})
        with pytest.raises(GameFormatError, match="no strategy for atom"):
            coarse_best_response_gap(game, h, profile, 2)

    def test_coarse_profile_lacking_an_atom_is_rejected(self):
        game = collapse_game()
        h = build_hierarchy(game, 0.25)
        atom2 = next(iter(h.coarse_partition(2).atoms))
        profile = StrategyProfile(
            strategies={1: {}, 2: {atom2: {"L": 1.0}}}, field_level="coarse"
        )
        with pytest.raises(GameFormatError, match="no strategy for atom"):
            coarse_best_response_gap(game, h, profile, 2)


def oracle_game(rng, kind: str) -> NestedGame:
    """A game with repeated payoff classes and signed zero payoffs; a
    nested one also has zero-prior states and a player-2 prior."""
    if kind == "redundant":
        # Zero-sum: a zero payoff u comes as the pair (0.0, -0.0).
        return redundant_game(rng, 36)
    game = random_nested_game(rng, max_states=30)
    states = game.space.states
    table = game.payoff_array.copy()
    for k in range(len(states)):
        if rng.random() < 0.5:
            table[:, k] = table[:, int(rng.integers(0, len(states)))]
    table[(table == 0.0) & (rng.random(table.shape) < 0.5)] = -0.0

    def sparse_prior() -> dict:
        kept = tuple(s for s in states if rng.random() < 0.7) or states[:1]
        prior = dict.fromkeys(states, 0.0)
        prior.update(exact_prior(rng.dirichlet(np.ones(len(kept))), kept))
        return prior

    space = StateSpace(states, sparse_prior(), player_priors={2: sparse_prior()})
    payoffs = PayoffTensor.from_array(game.payoffs.actions, states, table)
    return NestedGame(space, game.partitions, payoffs)


def signed_zero_profile(rng, game: NestedGame) -> StrategyProfile:
    """``random_profile`` with many atoms copying an earlier atom's
    distribution and pure distributions listing the other actions at
    -0.0 or 0.0."""
    strategies = {}
    for i, table in random_profile(rng, game).strategies.items():
        seen = []
        out = {}
        for atom, dist in table.items():
            if seen and rng.random() < 0.5:
                dist = dict(seen[int(rng.integers(0, len(seen)))])
            if len(dist) == 1:
                for a in game.actions_for(i):
                    dist.setdefault(a, -0.0 if rng.random() < 0.5 else 0.0)
            seen.append(dist)
            out[atom] = dist
        strategies[i] = out
    return StrategyProfile(strategies)


def atom_hex(record) -> dict:
    """Each atom's columns of a ``PlayerRegret``, floats as ``float.hex``."""
    return {
        atom: (
            m.hex(),
            r.hex(),
            b.hex(),
            c.hex(),
            tuple(map(float.hex, values)),
            best,
        )
        for atom, m, r, b, c, values, best in zip(
            record.atoms,
            record.mass,
            record.regret,
            record.best_value,
            record.current_value,
            record.values,
            record.best_actions,
        )
    }


def regret_oracle(game: NestedGame, profile: StrategyProfile) -> dict:
    """Plain per-state reference for ``bayesian_regret``: every state's
    value is one fsum over the joint actions of p * u, p multiplying the
    probabilities left to right in player order; per atom, the fsum of
    the prior-weighted state values over the mass."""
    out = {}
    for i in range(1, game.n + 1):
        prior = game.prior_for(i)
        own = game.actions_for(i)

        def value(s, fixed):
            terms = []
            for prof in game.payoffs.profiles():
                if fixed is not None and prof[i - 1] != fixed:
                    continue
                p = None
                for j, a in enumerate(prof, start=1):
                    if j == i and fixed is not None:
                        continue
                    atom_j = game.partitions[j - 1].atom_of[s]
                    q = profile.strategies[j][atom_j].get(a, 0.0)
                    p = q if p is None else p * q
                terms.append(p * game.payoffs.values[(s, prof)][i - 1])
            return math.fsum(terms)

        table = {}
        for atom, members in game.partition_for(i).atoms.items():
            mass = math.fsum(prior[s] for s in members)
            if mass <= 0.0:
                continue
            weighed = [s for s in members if prior[s] > 0.0]
            columns = [
                [prior[s] * value(s, fixed) for s in weighed]
                for fixed in own + (None,)
            ]
            *values, current = [math.fsum(col) / mass for col in columns]
            best = max(values)
            table[atom] = (
                mass.hex(),
                (best - current).hex(),
                best.hex(),
                current.hex(),
                tuple(map(float.hex, values)),
                tuple(a for a, v in zip(own, values) if v >= best - DERIVED_TOL),
            )
        out[i] = table
    return out
