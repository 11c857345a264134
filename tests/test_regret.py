import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    validate_profile,
)
from nestnash.gamefile import parse_game
from nestnash.pipeline import solve
from nestnash.regret import CERT_SLACK, bayesian_regret, certify, regret_report
from oracles import brute_force_check, ref_coarse_gap, ref_hierarchy
from test_finite_fuzz import game_docs
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

    @pytest.mark.parametrize("mass", [math.nan, 5.0, -1.0, 0.0])
    def test_refuses_actions_the_game_does_not_have(self, informed_anchor, mass):
        # Even at zero mass: the reader reads a row only at the game's own
        # actions, so mass anywhere else would go unseen.
        profile = StrategyProfile(
            strategies={
                1: {"a1": {"L": 1.0}, "a2": {"L": 1.0}},
                2: {"b": {"L": 1.0, "X": mass}},
            }
        )
        with pytest.raises(GameFormatError, match="player 2 plays unknown action 'X'"):
            certify(informed_anchor, profile, epsilon=0.05)

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


# One edit of a played row: the action it touches (None for one the game
# does not have) and the mass it sets there.
_EDITS = st.one_of(
    st.tuples(
        st.none(),
        st.sampled_from([0.0, -0.0, 5e-324, 0.5, 5.0, -1.0, math.nan, math.inf]),
    ),
    st.tuples(
        st.integers(0, 2),
        st.sampled_from(
            [math.nan, math.inf, -math.inf, -5e-324, -1e-13, -0.5, -0.0, 5e-324]
            + [1.0 + 1e-13, 1.0 - 1e-13, 1.0 + 2e-12, 1.0 - 2e-12, 0.5, 2.0]
        ),
    ),
)


@settings(max_examples=150, deadline=None)
@given(doc=game_docs(), data=st.data())
def test_validate_profile_flags_exactly_the_rows_certify_refuses(doc, data):
    # Every state of a drawn game has positive mass, so every atom is
    # played: the certifier reads each atom's row.
    game = parse_game(doc).game
    strategies = {}
    for i in (1, 2):
        first, *rest = game.actions_for(i)
        zeros = st.sampled_from([0.0, -0.0, 5e-324])
        strategies[i] = {
            atom: {first: 1.0} | {a: data.draw(zeros) for a in rest}
            for atom in game.partition_for(i).atoms
        }
    player = data.draw(st.sampled_from([1, 2]))
    atom = data.draw(st.sampled_from(sorted(strategies[player])))
    k, mass = data.draw(_EDITS)
    actions = game.actions_for(player)
    action = "zz" if k is None else actions[k % len(actions)]
    strategies[player][atom][action] = mass
    profile = StrategyProfile(strategies=strategies)

    problems = validate_profile(game, profile)
    assert all(p.startswith(f"player {player} atom {atom!r} ") for p in problems)
    try:
        certify(game, profile, 0.1)
    except GameFormatError:
        refused = True
    else:
        refused = False
    assert bool(problems) == refused


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


# ``oracles.ref_coarse_gap`` of the solver's coarse profile per player,
# as float.hex, for the seeded games of ``gap_cases``.  Every value is an
# fsum of p * u terms, so these floats hold however the terms are ordered.
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


def pure_coarse_profile(game: NestedGame, ref, action: str) -> StrategyProfile:
    """Every player plays ``action`` on each coarse atom of ``ref``
    (``oracles.ref_hierarchy``), listing their other actions at 0.0."""
    strategies = {}
    for i, coarse in enumerate(ref[1], start=1):
        dist = {a: float(a == action) for a in game.actions_for(i)}
        strategies[i] = {atom: dist for atom in dict.fromkeys(coarse.values())}
    return StrategyProfile(strategies, field_level="coarse")


class TestCoarseReconstruction:
    def test_gap_floats_are_pinned(self):
        for name, game, delta in gap_cases():
            profile = solve(game, 0.05, delta=delta).result.profile
            ref = ref_hierarchy(game, delta)
            gaps = [ref_coarse_gap(game, ref, profile, i) for i in range(1, game.n + 1)]
            assert [g.hex() for g in gaps] == GAP_HEX[name], name

    def test_exact_beliefs_reconstruct_exactly(self, informed_anchor):
        ref = ref_hierarchy(informed_anchor, 0.2)
        # Nothing merges, so the coarse atoms are the game's own.
        assert ref[1] == [part.atom_of for part in informed_anchor.partitions]
        profile = StrategyProfile(
            strategies={
                1: {"a1": {"L": 1.0, "R": 0.0}, "a2": {"L": 0.0, "R": 1.0}},
                2: {"b": {"L": 1 / 3, "R": 2 / 3}},
            },
            field_level="coarse",
        )
        for player in (1, 2):
            gap = ref_coarse_gap(informed_anchor, ref, profile, player)
            assert gap <= 1e-12

    def test_rounded_belief_gap_hand_computed(self, informed_anchor):
        # Player 2's atoms hold (1/3, 2/3) and (0.3, 0.7); the second joins
        # the first's centre.  Against L, action L is worth -0.6 on the
        # second atom and -2/3 at the centre.
        skewed = anchor_copies(informed_anchor, 1 / 3, 0.3)
        ref = ref_hierarchy(skewed, 0.2)
        gap = ref_coarse_gap(skewed, ref, pure_coarse_profile(skewed, ref, "L"), 2)
        assert gap == pytest.approx(1 / 15, abs=1e-12)
        assert gap <= payoff_bound(skewed) * 0.2

    def test_gap_within_transfer_bound_on_random_games(self):
        rng = np.random.default_rng(37)
        done = 0
        for _ in range(20):
            game = random_nested_game(rng, max_states=20, players=(2, 3))
            delta = 0.15
            ref = ref_hierarchy(game, delta)
            # One distribution per coarse atom.
            strategies: dict[int, dict] = {}
            for i, coarse in enumerate(ref[1], start=1):
                actions = game.actions_for(i)
                table = {}
                for atom in dict.fromkeys(coarse.values()):
                    weights = rng.dirichlet(np.ones(len(actions)))
                    head = [float(w) for w in weights[:-1]]
                    table[atom] = dict(zip(actions, head + [1.0 - math.fsum(head)]))
                strategies[i] = table
            profile = StrategyProfile(strategies, field_level="coarse")
            bound = payoff_bound(game)
            for i in range(1, game.n + 1):
                gap = ref_coarse_gap(game, ref, profile, i)
                assert gap <= bound * delta + 1e-9
            done += 1
        assert done == 20

    def test_accepts_coarse_level_profiles(self):
        # Payoffs never depend on the state, so every reconstruction is exact.
        game = collapse_game()
        ref = ref_hierarchy(game, 0.25)
        assert len(set(ref[1][0].values())) == 1
        profile = pure_coarse_profile(game, ref, "L")
        assert ref_coarse_gap(game, ref, profile, 2) <= 1e-12


@pytest.mark.parametrize("player", [0, -1, 3, 1.0, 2.0, True])
def test_per_player_readers_refuse_a_player_the_game_lacks(player):
    # ``conditional_payoff`` reads per-player columns at index player - 1,
    # where 0 would silently read the last player's.  A player is an
    # integer: 1.0 used to end in a TypeError and True to read player 1.
    game = random_nested_game(np.random.default_rng(3), max_states=12, players=(2,))
    solution = solve(game, 0.05)
    with pytest.raises(GameFormatError, match=f"the game has no player {player}"):
        conditional_payoff(game, solution.profile, player)


def test_per_player_readers_take_numpy_integers():
    game = random_nested_game(np.random.default_rng(3), max_states=12, players=(2,))
    profile = solve(game, 0.05).profile
    for i in (1, 2):
        want = conditional_payoff(game, profile, i)
        assert conditional_payoff(game, profile, np.int64(i)) == want


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
