"""Fuzz of ``nestnash solve`` on small continuous game files.

Hypothesis draws games with one to three states, two players on [0, 1],
random monomials and a valid Lipschitz constant, and sometimes breaks
one field.  Whatever the file, the solve must end in a declared exit
code without a traceback; a report on stdout must be strict JSON; and an
exit 0 must carry a passing box certificate and probe audit.
"""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from nestnash.cli import main
from nestnash.discretize import poly_lipschitz_bound
from nestnash.regret import CERT_SLACK

EPSILONS = (0.1, 0.2, 0.5)

_MONOMIAL = st.tuples(
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)


@st.composite
def game_docs(draw) -> dict:
    count = draw(st.integers(1, 3))
    states = [f"w{k}" for k in range(count)]
    weights = draw(st.lists(st.integers(1, 9), min_size=count, max_size=count))
    total = sum(weights)
    # Player 1 sees the state; player 2 sees a coarsening of it.
    groups = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    payoffs = []
    worst = 0.0
    for s in states:
        for player in (1, 2):
            poly = draw(st.lists(_MONOMIAL, min_size=1, max_size=3))
            worst = max(worst, poly_lipschitz_bound(tuple(poly)))
            payoffs.append(
                {
                    "state": s,
                    "player": player,
                    "monomials": [
                        {"coef": c, "exponents": list(e)} for c, e in poly
                    ],
                }
            )
    stretch = draw(st.floats(min_value=1.0, max_value=2.0))
    return {
        "version": 1,
        "mode": "continuous",
        "states": [{"id": s, "prob": w / total} for s, w in zip(states, weights)],
        "partitions": {
            "1": {s: s for s in states},
            "2": {s: f"g{g}" for s, g in zip(states, groups)},
        },
        "boxes": {"1": 1, "2": 1},
        "lipschitz": max(worst, 0.1) * stretch,
        "payoffs": payoffs,
    }


# Ways to break a valid document: each replaces or deletes one field.
_BREAKS = {
    "missing lipschitz": lambda d: d.pop("lipschitz"),
    "zero lipschitz": lambda d: d.update(lipschitz=0.0),
    "negative lipschitz": lambda d: d.update(lipschitz=-1.0),
    "understated lipschitz": lambda d: d.update(lipschitz=1e-6),
    "string lipschitz": lambda d: d.update(lipschitz="1"),
    "zero box": lambda d: d["boxes"].update({"1": 0}),
    "float box": lambda d: d["boxes"].update({"2": 1.5}),
    "short exponents": lambda d: d["payoffs"][0]["monomials"][0].update(
        exponents=[1]
    ),
    "negative exponent": lambda d: d["payoffs"][0]["monomials"][0].update(
        exponents=[-1, 0]
    ),
    "string coef": lambda d: d["payoffs"][0]["monomials"][0].update(coef="x"),
    "missing payoff": lambda d: d["payoffs"].pop(),
    "unknown state": lambda d: d["payoffs"][0].update(state="nowhere"),
    "bad player": lambda d: d["payoffs"][0].update(player=3),
    "negative prob": lambda d: d["states"][0].update(prob=-0.5),
    "extra field": lambda d: d.update(extra=1),
    "huge cap": lambda d: d.update(payoff_cap=1e300),
    "tiny cap": lambda d: d.update(payoff_cap=1e-9),
}


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


@settings(max_examples=100, deadline=None)
@given(
    doc=game_docs(),
    broken=st.one_of(st.none(), st.sampled_from(sorted(_BREAKS))),
    epsilon=st.sampled_from(EPSILONS),
    seed=st.integers(0, 3),
)
def test_solve_ends_in_a_declared_exit_code(doc, broken, epsilon, seed):
    if broken is not None:
        _BREAKS[broken](doc)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "game.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        argv = ["solve", "--game", path, "--epsilon", repr(epsilon)]
        argv += ["--seed", str(seed)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (1, 3):
        assert out.getvalue() == ""
        return
    report = json.loads(out.getvalue(), parse_constant=_refuse)
    box = report["box_certificate"]
    assert box["ok"] == (box["max_regret"] <= epsilon + CERT_SLACK)
    if code == 0:
        assert box["ok"] is True
        assert box["max_regret"] <= epsilon + CERT_SLACK
        assert report["probe_audit"]["ok"] is True
    assert all(math.isfinite(p["harsanyi"]) for p in box["players"])
