import dataclasses

import pytest

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
