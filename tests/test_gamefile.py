import itertools
import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_nested_game, redundant_game
from nestnash import gamefile
from nestnash.game import PayoffTensor


def finite_doc(game, keys, ints: bool) -> dict:
    """Game file for ``game`` with its payoff entries in the order of
    ``keys``; with ``ints``, nonzero whole values are written as JSON
    integers."""

    def number(v):
        return int(v) if ints and v == int(v) and v != 0 else v

    return {
        "version": 1,
        "mode": "finite",
        "states": [{"id": s, "prob": game.space.prior[s]} for s in game.space.states],
        "partitions": {str(p.player): dict(p.atom_of) for p in game.partitions},
        "actions": {
            str(i): list(acts) for i, acts in enumerate(game.payoffs.actions, start=1)
        },
        "payoffs": [
            {
                "state": s,
                "profile": list(prof),
                "values": [number(v) for v in game.payoffs.values[(s, prof)]],
            }
            for s, prof in keys
        ],
    }


class TestFinitePayoffs:
    @given(
        kind=st.sampled_from(["nested", "redundant"]),
        seed=st.integers(0, 2**32 - 1),
        ints=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_shuffled_file_loads_the_dict_array(self, kind, seed, ints):
        rng = np.random.default_rng(seed)
        if kind == "nested":
            game = random_nested_game(rng, max_states=30)
        else:
            # Zero-sum: a zero payoff u gives the pair (0.0, -0.0).
            game = redundant_game(rng, 12 * int(rng.integers(1, 4)))
        source = game.payoffs.values
        keys = list(source)
        keys = [keys[k] for k in rng.permutation(len(keys))]
        text = json.dumps(finite_doc(game, keys, ints))
        # A well-formed complete file never takes the entry-by-entry path.
        with mock.patch.object(gamefile, "_payoff_dict", side_effect=AssertionError):
            loaded = gamefile.parse_game(json.loads(text)).game

        table = loaded.payoff_array
        expected = PayoffTensor(game.payoffs.actions, source).array(game.space.states)
        assert np.array_equal(table, expected)
        assert np.array_equal(np.signbit(table), np.signbit(expected))
        assert loaded.payoffs.values == source
        # Same entries and signs, in array order whatever the file order.
        order = itertools.product(game.space.states, game.payoffs.profiles())
        assert repr(loaded.payoffs.values) == repr({k: source[k] for k in order})
