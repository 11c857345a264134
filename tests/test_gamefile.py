import gc
import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_nested_game, redundant_game
from nestnash import gamefile
from nestnash.game import PayoffTensor, StateSpace, StrategyProfile


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


def drawn_game(kind: str, rng):
    if kind == "nested":
        return random_nested_game(rng, max_states=30)
    # Zero-sum: a zero payoff u gives the pair (0.0, -0.0).
    return redundant_game(rng, 12 * int(rng.integers(1, 4)))


def table_keys(game) -> list:
    """Every (state, profile) cell of ``game`` in table order."""
    return list(itertools.product(game.space.states, game.payoffs.profiles()))


def entry_outcome(doc: dict):
    """What the loader makes of ``doc``: its payoff array's bytes, or the
    SchemaError's text, and the number of ``space.position`` reads."""
    reads = []

    def position(space):
        reads.append(space)
        return dict(zip(space.states, range(len(space.states))))

    with mock.patch.object(StateSpace, "position", property(position)):
        try:
            table = gamefile.parse_game(doc).game.payoff_array
        except gamefile.SchemaError as err:
            return str(err), len(reads)
    return table.tobytes(), len(reads)


def entry_reference(doc: dict):
    """The same, from the entries checked one by one in file order."""
    states = tuple(row["id"] for row in doc["states"])
    actions = tuple(map(tuple, doc["actions"].values()))
    prior = dict.fromkeys(states)
    try:
        values = gamefile._payoff_dict(doc["payoffs"], prior, actions)
    except gamefile.SchemaError as err:
        return str(err)
    return PayoffTensor(actions, values).array(states).tobytes()


class TestTableOrder:
    @given(
        kind=st.sampled_from(["nested", "redundant"]),
        seed=st.integers(0, 2**32 - 1),
        ints=st.booleans(),
        signed=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_order_is_reshaped_as_the_index_map_writes_it(
        self, kind, seed, ints, signed
    ):
        rng = np.random.default_rng(seed)
        game = drawn_game(kind, rng)
        doc = finite_doc(game, table_keys(game), ints)
        if signed:
            for entry in doc["payoffs"]:
                values = entry["values"]
                entry["values"] = [-0.0 if v == 0 else v for v in values]
        reversed_doc = dict(doc, payoffs=doc["payoffs"][::-1])
        table, reads = entry_outcome(doc)
        mapped, mapped_reads = entry_outcome(reversed_doc)
        # Table order skips the index map, which reads every entry's
        # state position; the reversed file takes it.
        assert (reads, mapped_reads) == (0, 1)
        assert table == mapped == entry_reference(doc)

    @given(
        kind=st.sampled_from(["nested", "redundant"]),
        seed=st.integers(0, 2**32 - 1),
        near_miss=st.sampled_from(["swap", "repeat state", "long profile"]),
        at=st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_near_table_order_keeps_the_entry_checks(
        self, kind, seed, near_miss, at
    ):
        rng = np.random.default_rng(seed)
        game = drawn_game(kind, rng)
        doc = finite_doc(game, table_keys(game), False)
        entries = doc["payoffs"]
        k = at % (len(entries) - 1)
        if near_miss == "swap":
            entries[k], entries[k + 1] = entries[k + 1], entries[k]
        elif near_miss == "repeat state":
            states = game.space.states
            other = states[(states.index(entries[k]["state"]) + 1) % len(states)]
            entries[k]["state"] = other
        else:
            entries[k]["profile"].append(entries[k]["profile"][0])
        outcome, _ = entry_outcome(doc)
        assert outcome == entry_reference(doc)
        # A swap still covers every cell once; the other two are errors.
        assert isinstance(outcome, bytes) == (near_miss == "swap")


# -- the collector pause ------------------------------------------------------

PROFILE_DOC = {
    "version": 1,
    "field_level": "original",
    "strategies": {"1": {"a": {"H": 0.5, "T": 0.5}}},
}


@pytest.fixture
def collector():
    """Put the collector back as the test found it, whatever the test does."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "case, error",
    [
        ("ok", None),
        ("malformed", gamefile.SchemaError),
        ("schema", gamefile.SchemaError),
        ("missing", OSError),
    ],
)
@pytest.mark.parametrize("kind", ["game", "profile"])
def test_loading_leaves_the_collector_as_found(
    kind, case, error, enabled, collector, tmp_path
):
    if kind == "game":
        load = gamefile.load_game
        game = redundant_game(np.random.default_rng(1), 12)
        doc = finite_doc(game, list(game.payoffs.values), False)
    else:
        load, doc = gamefile.load_profile, PROFILE_DOC
    if case == "schema":
        doc = dict(doc, version=2)
    path = tmp_path / "file.json"
    if case != "missing":
        path.write_text("{" if case == "malformed" else json.dumps(doc))
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if error is None:
        load(str(path))
    else:
        with pytest.raises(error):
            load(str(path))
    assert gc.isenabled() is enabled


def test_no_collection_runs_while_a_game_file_loads(collector, tmp_path):
    game = redundant_game(np.random.default_rng(1), 600)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(finite_doc(game, list(game.payoffs.values), False)))
    path = str(path)
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.enable()
    gc.callbacks.append(count)
    try:
        # With the collector running, decoding the file alone collects.
        gamefile._read_json(path)
        assert starts
        starts.clear()
        gamefile.load_game(path)
    finally:
        gc.callbacks.remove(count)
    assert starts == []
    assert gc.isenabled()


class _Label(str):
    """A ``str`` subclass, which ``_key_string`` keeps as it is."""


@pytest.mark.parametrize(
    "table",
    [
        {"a": {"L": 0.5, "R": 0.5}, "b": {"L": 1}},
        {"a": {"L": 0.5}, 3: {"L": 0.5}},
        {("x", 1): {"U": 1.0}, "b": {"D": 1.0}},
        {"a": {"L": 0.25, 2: 0.75}},
        {"a": {_Label("U"): 1.0}, _Label("b"): {"D": 1.0}},
    ],
)
def test_profile_ids_become_their_key_strings(table):
    # Only ids that are not all ``str`` go through ``_key_string``; the
    # report is the same either way.
    profile = StrategyProfile({1: table, 2: {"z": {"H": 1.0}}})
    expected = {
        str(player): {
            gamefile._key_string(atom): {
                gamefile._key_string(a): float(p) for a, p in dist.items()
            }
            for atom, dist in strategies.items()
        }
        for player, strategies in profile.strategies.items()
    }
    got = gamefile.profile_to_json(profile)["strategies"]
    assert json.dumps(got) == json.dumps(expected)
    assert [list(map(type, t)) for t in got.values()] == [
        list(map(type, t)) for t in expected.values()
    ]
