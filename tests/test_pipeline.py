import dataclasses

import numpy as np
import pytest

from generators import redundant_game
from nestnash import game as game_module
from nestnash.game import GameFormatError, InvalidGameError, PayoffTensor
from nestnash.pipeline import solve
from test_game import two_state_game


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
