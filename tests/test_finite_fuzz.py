"""Fuzz of ``nestnash solve`` and ``hierarchy`` on small finite game files.

Hypothesis draws a two-player game with one to three states and one to
three actions each, and applies up to three mutations to its payoff
list: shuffle, drop or duplicate an entry, give an entry the wrong
number of values, a bool, a string, a 400-digit, an overflowing, a
beyond-the-cap or a non-finite value, an unknown state or action, or a
-0.0.  Whatever the file, the command must end in a declared exit code
without a traceback, and stdout must be empty or strict JSON.  A second
test checks that the mutations reach both loaders of the payoff list:
the column-at-a-time ``gamefile._payoff_array`` and the entry-by-entry
``_payoff_dict``.
"""

import contextlib
import copy
import io
import json
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestnash import gamefile
from nestnash.cli import main

_VALUES = st.sampled_from([0.0, -0.0, 1, -2, 0.5, -1.25, 3.0])

# Written as the literal 1e400, which Python's JSON reader turns into inf.
_OVERFLOW = "@overflow@"


@st.composite
def game_docs(draw) -> dict:
    count = draw(st.integers(1, 3))
    states = [f"w{k}" for k in range(count)]
    weights = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    total = sum(weights)
    # Player 1 sees the state; player 2 sees a coarsening of it.
    groups = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    actions = [[f"a{k}" for k in range(draw(st.integers(1, 3)))] for _ in "12"]
    payoffs = [
        {"state": s, "profile": [a, b], "values": [draw(_VALUES), draw(_VALUES)]}
        for s in states
        for a in actions[0]
        for b in actions[1]
    ]
    return {
        "version": 1,
        "mode": "finite",
        "states": [{"id": s, "prob": w / total} for s, w in zip(states, weights)],
        "partitions": {
            "1": {s: s for s in states},
            "2": {s: f"g{g}" for s, g in zip(states, groups)},
        },
        "actions": {"1": actions[0], "2": actions[1]},
        "payoffs": payoffs,
    }


def _set_value(value):
    def mutate(entries, k):
        row = entries[k]["values"]
        if row:
            row[k % len(row)] = value

    return mutate


# Ways to mutate a payoff list at the entry of index k.
_MUTATIONS = {
    "shuffle": lambda e, k: e.insert(0, e.pop(k)),
    "drop": lambda e, k: e.pop(k),
    "duplicate": lambda e, k: e.append(copy.deepcopy(e[k])),
    "short values": lambda e, k: e[k]["values"].__delitem__(slice(1, None)),
    "long values": lambda e, k: e[k]["values"].append(0.0),
    "bool value": _set_value(True),
    "string value": _set_value("1"),
    "400-digit value": _set_value(10**400),
    # Finite, but beyond the payoff cap: its regrets once overflowed.  A
    # default-size run did not draw a failing game; the deterministic tests
    # in test_cli.py guard that fault.
    "beyond the cap": _set_value(1e308),
    "overflowing value": _set_value(_OVERFLOW),
    "nan value": _set_value(math.nan),
    "infinite value": _set_value(-math.inf),
    "unknown state": lambda e, k: e[k].update(state="nowhere"),
    "unknown action": lambda e, k: e[k]["profile"].__setitem__(1, "zz"),
    "negative zero": _set_value(-0.0),
}

# Where each mutation alone is caught: while the JSON is read, or by the
# loader that ingests the list (``_payoff_dict`` runs only when
# ``_payoff_array`` declines it).
_READ = {"nan value", "infinite value"}
_ARRAY = {"shuffle", "overflowing value", "beyond the cap", "negative zero"}


def _write(doc: dict, directory: str) -> str:
    path = os.path.join(directory, "game.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc).replace(f'"{_OVERFLOW}"', "1e400"))
    return path


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


@settings(max_examples=150, deadline=None)
@given(
    doc=game_docs(),
    mutations=st.lists(
        st.tuples(st.sampled_from(sorted(_MUTATIONS)), st.integers(0, 10**6)),
        max_size=3,
    ),
    command=st.sampled_from(["solve", "hierarchy"]),
)
def test_finite_file_ends_in_a_declared_exit_code(doc, mutations, command):
    entries = doc["payoffs"]
    for name, k in mutations:
        if entries:
            _MUTATIONS[name](entries, k % len(entries))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        argv = [command, "--game", _write(doc, directory)]
        argv += ["--epsilon", "0.1"] if command == "solve" else ["--delta", "0.2"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        report = json.loads(out.getvalue(), parse_constant=_refuse)
        if command == "solve":
            zeros = [v for v in report["ingestion"]["payoff_values"] if v == 0.0]
            assert all(math.copysign(1.0, v) > 0 for v in zeros)


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_each_mutation_reaches_its_loader(name, tmp_path):
    doc = {
        "version": 1,
        "mode": "finite",
        "states": [{"id": "w0", "prob": 0.5}, {"id": "w1", "prob": 0.5}],
        "partitions": {"1": {"w0": "w0", "w1": "w1"}, "2": {"w0": "g", "w1": "g"}},
        "actions": {"1": ["a0", "a1"], "2": ["a0"]},
        "payoffs": [
            {"state": s, "profile": [a, "a0"], "values": [1.0, -1.0]}
            for s in ("w0", "w1")
            for a in ("a0", "a1")
        ],
    }
    _MUTATIONS[name](doc["payoffs"], 1)
    path = _write(doc, str(tmp_path))
    array = mock.patch.object(gamefile, "_payoff_array", wraps=gamefile._payoff_array)
    entries = mock.patch.object(gamefile, "_payoff_dict", wraps=gamefile._payoff_dict)
    with array as arrays, entries as dicts, contextlib.suppress(gamefile.SchemaError):
        gamefile.load_game(path)
    assert arrays.called == (name not in _READ)
    assert dicts.called == (name not in _READ | _ARRAY)
