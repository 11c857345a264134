import dataclasses
import gc
import math
import operator
import weakref

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
from test_certificates import _with_player_priors
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


def test_overflowing_belief_term_is_rejected():
    # The transfer bound delta * M * A + rho would be inf, which no report
    # can hold; a large finite term still solves.
    game = two_state_game()
    with pytest.raises(GameFormatError, match="delta \\* M \\* A overflows") as err:
        solve(game, 0.1, delta=1e308)
    assert "delta = 1e+308" in str(err.value)
    assert math.isfinite(solve(game, 0.1, delta=1e300).transfer_bound)


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
    assert solution.hierarchy.game is game


@pytest.mark.parametrize("shuffle", [False, True])
def test_a_solve_that_merges_nothing_builds_each_support_once(
    shuffle, monkeypatch, regret_calls
):
    # No corpus game merges anything, in any atom order: every player keeps
    # their own partition and the coarse game is the game itself, so each
    # player's support is built once, the game is validated once and the
    # solver's certificate is the final one.
    supports, validations = [], []
    support, validate_game = game_module._support, game_module.validate_game

    def counted_support(space, player, part):
        supports.append(player)
        return support(space, player, part)

    def counted_validation(game):
        validations.append(game)
        return validate_game(game)

    monkeypatch.setattr(game_module, "_support", counted_support)
    monkeypatch.setattr(game_module, "validate_game", counted_validation)
    rng, order = np.random.default_rng(CORPUS_SEED), np.random.default_rng(7)
    for idx in range(30):
        game = random_nested_game(rng)
        if shuffle:
            game = shuffled_atoms(order, game)
        supports.clear()
        validations.clear()
        regret_calls.clear()
        h = solve(game, 0.05, seed=idx).hierarchy
        assert all(map(operator.is_, h.coarse, game.partitions)), idx
        assert build_auxiliary_game(h) is game, idx
        assert supports == list(range(1, game.n + 1)), idx
        assert validations == [game], idx
        assert regret_calls == [game], idx


def test_a_solve_leaves_nothing_behind_on_its_game():
    # Each game keeps what it derives, so a merged player's coarse
    # partition dies with the solution that holds it.
    game = redundant_game(np.random.default_rng(1), 120)
    solution = solve(game, 0.05, seed=0)
    assert len(solution.hierarchy.coarse[0].ids) < len(game.partitions[0].ids)
    coarse = weakref.ref(solution.hierarchy.coarse[0])
    del solution
    gc.collect()
    assert coarse() is None


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


@pytest.mark.parametrize(
    "shuffle, priors",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "priors", "priors-shuffled"],
)
def test_renamed_coarse_certificate_is_the_fresh_one(shuffle, priors, regret_calls):
    rng = np.random.default_rng(CORPUS_SEED)
    order = np.random.default_rng(7)
    prior_rng = np.random.default_rng(11)
    epsilon = 0.05
    skipping = 0
    for idx in range(100):
        game = random_nested_game(rng)
        if shuffle:
            game = shuffled_atoms(order, game)
        if priors:
            # Zero-mass atoms have no record in either certificate.
            game = _with_player_priors(prior_rng, game)
        regret_calls.clear()
        solution = solve(game, epsilon, seed=idx)
        # No corpus game merges anything, so the solver's certificate is
        # the only one computed; with sparse priors a few games merge.
        reused = len(regret_calls) == 1
        assert reused or priors, idx
        skipping += reused and any(
            len(support.ids) < len(part.ids)
            for support, part in zip(game.supports, game.partitions)
        )
        fresh = certify(game, solution.profile, epsilon)
        assert solution.report == fresh, idx
        assert repr(solution.report) == repr(fresh), idx
        assert solution.result.certified_regret == solution.result.report.max_regret
    assert skipping >= 20 if priors else skipping == 0


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
    coarse = build_auxiliary_game(solution.hierarchy)
    assert coarse is not game and coarse.space == game.space
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
    assert len(build_auxiliary_game(solution.hierarchy).space.states) == 1
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
