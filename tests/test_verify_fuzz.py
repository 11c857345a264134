"""Fuzz of ``nestnash verify`` on small finite games and drawn profile files.

Hypothesis draws a two-player game, as ``test_finite_fuzz`` does, whose
prior is either exact or has masses of 1e308 that overflow a plain sum,
and a profile file for it: a valid profile edited up to three times,
with atoms known or unknown, actions known or unknown, probabilities
among 1e308, 5e-324, -0.0, ints, bools, strings and a 400-digit
integer, and player keys that may be unknown or malformed.  Whatever
the files, the command must end in a declared exit code without a
traceback, and stdout must be empty or strict JSON.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from nestnash.cli import main
from test_finite_fuzz import game_docs

_PROBS = st.sampled_from(
    [1e308, -1e308, 5e-324, -0.0, 0.0, 0.5, 1.0, 1, 0, 2, True, "1", 10**400]
)
_ZEROS = st.sampled_from([0, -0.0, 5e-324])
_PLAYERS = st.sampled_from(["1", "2", "3", "0", "01", "x"])


@st.composite
def profile_docs(draw, game: dict) -> dict:
    """A valid profile (the first action on each atom, the others at 0,
    -0.0 or 5e-324), then up to three edits: a probability, atom, action
    or player key replaced or added, or a player dropped."""
    strategies = {}
    for player, atom_of in game["partitions"].items():
        first, *rest = game["actions"][player]
        strategies[player] = {
            atom: {first: 1.0} | {a: draw(_ZEROS) for a in rest}
            for atom in sorted(set(atom_of.values()))
        }
    for _ in range(draw(st.integers(0, 3))):
        player = draw(_PLAYERS)
        if draw(st.booleans()):
            strategies.pop(player, None)
            continue
        table = strategies.setdefault(player, {})
        atom = draw(st.sampled_from(sorted(table) + ["nowhere"]))
        dist = table.setdefault(atom, {})
        labels = sorted(dist) + ["zz"]
        dist[draw(st.sampled_from(labels))] = draw(_PROBS)
    return {"version": 1, "field_level": "original", "strategies": strategies}


@st.composite
def verify_cases(draw) -> tuple[dict, dict]:
    game = draw(game_docs())
    if draw(st.booleans()):
        # Each mass is finite, but their sum overflows.
        for row in game["states"]:
            row["prob"] = draw(st.sampled_from([1e308, 0.5]))
    return game, draw(profile_docs(game))


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


@settings(max_examples=150, deadline=None)
@given(case=verify_cases(), epsilon=st.sampled_from(["0.1", "1e-300"]))
def test_verify_ends_in_a_declared_exit_code(case, epsilon):
    game, profile = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        paths = []
        for name, doc in (("game", game), ("profile", profile)):
            paths.append(os.path.join(directory, f"{name}.json"))
            with open(paths[-1], "w", encoding="utf-8") as handle:
                handle.write(json.dumps(doc))
        argv = ["verify", "--game", paths[0], "--profile", paths[1]]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--epsilon", epsilon])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_refuse)
