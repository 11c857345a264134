"""Fuzz of the CLI's other inputs: types-mode game files and numeric flags.

The first test applies up to three of ``test_finite_fuzz``'s payoff-list
mutations to the small ``types`` document of ``test_cli`` (an unknown
type profile in place of an unknown state).  The second draws ``solve``,
``verify`` and ``hierarchy`` command lines whose numeric flags are nan,
inf, -0.0, 5e-324, 1e308, 1e400, non-numeric or in range, whose seeds
may be negative or non-numeric, and whose files may be missing; on the
continuous file, ``--epsilon`` takes only values whose mesh epsilon / L
underflows or gives a small grid (a finite but huge grid, as at 1e-12,
is not bounded here).  Both call ``cli.main`` in-process.  Whatever the input, the command must end
in a declared exit code (a ``SystemExit`` counts as its code) without a
traceback, and stdout must be empty or strict JSON.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from nestnash.cli import main
from test_cli import CONTINUOUS_GAME, MP_GAME, TYPES_GAME
from test_finite_fuzz import _MUTATIONS, _refuse, _write

_TYPES_MUTATIONS = {
    name: mutate for name, mutate in _MUTATIONS.items() if name != "unknown state"
}
_TYPES_MUTATIONS["unknown types"] = lambda e, k: e[k]["types"].__setitem__(0, "zz")

_NUMBERS = st.sampled_from(
    ["nan", "inf", "-inf", "-0.0", "0", "5e-324", "1e308", "1e400", "0.1", "x", ""]
)
# Epsilons whose mesh on the continuous file (L = 1) has no grid or a
# small one.
_MESH_EPSILONS = st.sampled_from(
    ["nan", "inf", "0", "5e-324", "1e-310", "1e-320", "1e308", "0.5", "0.1", "x"]
)
_SEEDS = st.sampled_from(["-1", "0", "7", "1e3", "x", str(2**70)])


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_refuse)


@settings(max_examples=150, deadline=None)
@given(
    mutations=st.lists(
        st.tuples(st.sampled_from(sorted(_TYPES_MUTATIONS)), st.integers(0, 10**6)),
        max_size=3,
    ),
    command=st.sampled_from(["solve", "hierarchy"]),
)
def test_types_file_ends_in_a_declared_exit_code(mutations, command):
    doc = copy.deepcopy(TYPES_GAME)
    entries = doc["payoffs"]
    for name, k in mutations:
        if entries:
            _TYPES_MUTATIONS[name](entries, k % len(entries))
    with tempfile.TemporaryDirectory() as directory:
        argv = [command, "--game", _write(doc, directory)]
        argv += ["--epsilon", "0.1"] if command == "solve" else ["--delta", "0.2"]
        _run(argv)


@st.composite
def command_lines(draw, directory: str) -> list[str]:
    """A ``solve``, ``verify`` or ``hierarchy`` argv on the matching
    pennies file, the continuous file or a missing one."""
    game = draw(st.sampled_from(["game.json", "continuous.json", "missing.json"]))
    argv = [draw(st.sampled_from(["solve", "verify", "hierarchy"]))]
    argv += ["--game", os.path.join(directory, game)]
    if argv[0] == "hierarchy":
        return argv + ["--delta", draw(_NUMBERS)]
    epsilons = _MESH_EPSILONS if game == "continuous.json" else _NUMBERS
    argv += ["--epsilon", draw(epsilons)]
    if argv[0] == "verify":
        profile = draw(st.sampled_from(["profile.json", "missing.json"]))
        return argv + ["--profile", os.path.join(directory, profile)]
    for flag, values in (
        ("--delta", _NUMBERS),
        ("--solver-regret", _NUMBERS),
        ("--seed", _SEEDS),
    ):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


_PROFILE = {
    "version": 1,
    "field_level": "original",
    "strategies": {
        "1": {"a": {"H": 0.5, "T": 0.5}},
        "2": {"b": {"H": 1.0, "T": -0.0}},
    },
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_flags_end_in_a_declared_exit_code(data):
    with tempfile.TemporaryDirectory() as directory:
        docs = {"game": MP_GAME, "continuous": CONTINUOUS_GAME, "profile": _PROFILE}
        for name, doc in docs.items():
            with open(os.path.join(directory, f"{name}.json"), "w") as handle:
                handle.write(json.dumps(doc))
        _run(data.draw(command_lines(directory)))
