import dataclasses
import math

import numpy as np
import pytest

from generators import random_nested_game, redundant_game
from nestnash import game as game_module
from nestnash import regret as regret_module
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    InvalidGameError,
    NestedGame,
    PayoffTensor,
)
from nestnash.pipeline import solve
from nestnash.regret import certify
from nestnash.solver import build_auxiliary_game
from test_game import two_state_game

CORPUS_SEED = 20260819


def test_player_without_actions_is_an_invalid_game():
    # Validation runs before the budget split, whose A = 0 would divide by zero.
    game = dataclasses.replace(
        two_state_game(), payoffs=PayoffTensor(actions=(("A", "B"), ()), values={})
    )
    with pytest.raises(InvalidGameError, match="player 2 has no actions"):
        solve(game, 0.1)


def test_nonpositive_delta_is_rejected():
    with pytest.raises(GameFormatError, match="delta must be positive"):
        solve(two_state_game(), 0.1, delta=0.0)


def test_underflowing_default_delta_names_epsilon_and_m():
    with pytest.raises(GameFormatError, match="default delta") as err:
        solve(two_state_game(), 5e-324)
    assert "epsilon = 5e-324, M = " in str(err.value)


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.inf, math.nan])
def test_epsilon_must_be_finite_and_positive(epsilon):
    # Named before delta is derived from it, and also with delta given: a
    # certificate against an infinite epsilon would pass any profile.
    with pytest.raises(GameFormatError, match="epsilon must be finite and positive"):
        solve(two_state_game(), epsilon)
    with pytest.raises(GameFormatError, match="epsilon must be finite and positive"):
        solve(two_state_game(), epsilon, delta=0.01, target=0.01)


def test_one_solve_computes_the_payoff_classes_once_per_game(monkeypatch):
    calls = []
    original = game_module.payoff_classes

    def counted(game):
        calls.append(game)
        return original(game)

    monkeypatch.setattr(game_module, "payoff_classes", counted)
    game = redundant_game(np.random.default_rng(3), 120)
    solution = solve(game, 0.05)
    assert sum(g is game for g in calls) == 1
    assert len({id(g) for g in calls}) == len(calls)
    assert solution.hierarchy.classes is game.classes


@pytest.mark.parametrize("shuffle", [False, True])
def test_a_solve_that_merges_nothing_builds_each_support_once(shuffle, monkeypatch):
    # No corpus game merges anything.  Each coarse partition then labels
    # the states as the game's own does, up to the atom ids, so the coarse
    # game's supports are the game's renamed; with shuffled partitions the
    # atoms come in another order, and the coarse supports are built anew.
    calls = []
    original = game_module._support

    def counted(space, player, part):
        calls.append(player)
        return original(space, player, part)

    monkeypatch.setattr(game_module, "_support", counted)
    rng, order = np.random.default_rng(CORPUS_SEED), np.random.default_rng(7)
    for idx in range(30):
        game = random_nested_game(rng)
        if shuffle:
            game = shuffled_atoms(order, game)
        calls.clear()
        solution = solve(game, 0.05, seed=idx)
        players = list(range(1, game.n + 1))
        assert calls[: game.n] == players, idx
        if shuffle:
            continue
        assert calls == players, idx
        coarse = build_auxiliary_game(game, solution.hierarchy).coarse_game
        for i, support in enumerate(coarse.supports, start=1):
            fresh = original(coarse.space, i, coarse.partition_for(i))
            assert support.atoms == fresh.atoms
            for name in ("atom_index", "masses", "positions", "weights"):
                assert np.array_equal(getattr(support, name), getattr(fresh, name))


def shuffled_atoms(rng, game: NestedGame) -> NestedGame:
    """``game`` with each partition's ``atom_of`` in a random insertion
    order, so atoms and their members come in another order."""
    partitions = []
    for part in game.partitions:
        items = list(part.atom_of.items())
        order = rng.permutation(len(items)).tolist()
        partitions.append(
            InformationPartition(part.player, dict(items[k] for k in order))
        )
    return dataclasses.replace(game, partitions=tuple(partitions))


@pytest.fixture
def regret_calls(monkeypatch):
    calls = []
    original = regret_module.bayesian_regret

    def counted(game, profile):
        calls.append(game)
        return original(game, profile)

    monkeypatch.setattr(regret_module, "bayesian_regret", counted)
    return calls


@pytest.mark.parametrize("shuffle", [False, True])
def test_renamed_coarse_certificate_is_the_fresh_one(shuffle, regret_calls):
    rng = np.random.default_rng(CORPUS_SEED)
    order = np.random.default_rng(7)
    epsilon = 0.05
    for idx in range(100):
        game = random_nested_game(rng)
        if shuffle:
            game = shuffled_atoms(order, game)
        regret_calls.clear()
        solution = solve(game, epsilon, seed=idx)
        # No corpus game merges anything, so the solver's certificate is
        # the only one computed.
        assert len(regret_calls) == 1, idx
        fresh = certify(game, solution.profile, epsilon)
        assert solution.report == fresh, idx
        assert repr(solution.report) == repr(fresh), idx
        assert solution.result.certified_regret == solution.result.report.max_regret


def test_merging_hierarchy_certifies_the_original_game(regret_calls):
    game = redundant_game(np.random.default_rng(1), 120)
    solution = solve(game, 0.05)
    assert len(solution.hierarchy.coarse[0].atoms) < len(game.partitions[0].atoms)
    assert len(regret_calls) == 2 and regret_calls[1] is game


def test_hierarchy_merging_atoms_alone_certifies_anew(regret_calls):
    # Every belief lies within L1 distance 2 < delta of the first centre,
    # so each player keeps one coarse atom, while the payoff classes keep
    # every state apart in the quotient.
    game = random_nested_game(np.random.default_rng(5))
    solution = solve(game, 0.05, delta=3.0)
    aux = build_auxiliary_game(game, solution.hierarchy)
    assert aux.coarse_game.space is game.space
    assert len(solution.hierarchy.coarse[0].atoms) < len(game.partitions[0].atoms)
    assert len(regret_calls) == 2 and regret_calls[1] is game
    assert solution.report == certify(game, solution.profile, 0.05)


def test_quotient_merging_states_alone_certifies_anew(regret_calls):
    # Both states share every atom and one payoff row: the quotient keeps
    # one state, though no atom merges.
    base = two_state_game()
    table = np.array(base.payoff_array)
    table[:, 1] = table[:, 0]
    game = NestedGame(
        space=base.space,
        partitions=(
            InformationPartition(player=1, atom_of={"w1": "f", "w2": "f"}),
            base.partitions[1],
        ),
        payoffs=PayoffTensor.from_array(
            base.payoffs.actions, base.space.states, table
        ),
    )
    solution = solve(game, 0.05)
    aux = build_auxiliary_game(game, solution.hierarchy)
    assert len(aux.coarse_game.space.states) == 1
    assert len(regret_calls) == 2 and regret_calls[1] is game
    assert solution.report == certify(game, solution.profile, 0.05)


def test_solve_does_not_depend_on_the_payoff_array_layout():
    # The solver's sums follow the payoff array's memory layout, so
    # ``from_array`` keeps a strided table as a C-ordered copy.
    rng = np.random.default_rng(2)
    for idx in range(20):
        game = random_nested_game(rng, 30, (2,))
        table = np.asfortranarray(game.payoff_array)
        actions, states = game.payoffs.actions, game.space.states
        payoffs = PayoffTensor.from_array(actions, states, table)
        strided = NestedGame(game.space, game.partitions, payoffs)
        assert strided.payoff_array.flags.c_contiguous
        got, want = solve(strided, 0.05), solve(game, 0.05)
        assert repr(got.report) == repr(want.report), idx
        assert repr(got.profile) == repr(want.profile), idx
