"""Golden certificates: ``certify`` reproduces pinned results bit for bit.

``data/certificates.json`` holds, for seeded games, a few strategy
profiles and their certificates: every player's columns (atom, mass,
regret, best and current value, best actions) together with
``harsanyi`` and ``max_regret``, floats written with ``float.hex``.
Under ``box`` it holds, for seeded specs with 2-dim boxes and three
players, grid profiles and their box certificates (``certify_box``):
each player's regret column, ``harsanyi`` and the covering term.
The profiles are stored too, so the file pins the certifiers alone; a
change to the solver does not touch it.  A change to the certifier's
arithmetic, however small, fails here.  ``--write`` adds the entries
the file lacks and keeps the others byte for byte, since their profiles
came from the solver of their day; delete an entry (or the file) only
for a deliberate change of the certificate's numbers:

    PYTHONPATH=src:tests python tests/test_certificates.py --write
"""

import json
import os
import sys

import numpy as np
import pytest

from generators import (
    exact_prior,
    random_box_spec,
    random_compact_game,
    random_nested_game,
    random_profile,
    redundant_game,
)
from nestnash.discretize import build_hat_game, certify_box
from nestnash.game import NestedGame, StateSpace, StrategyProfile
from nestnash.hierarchy import build_hierarchy
from nestnash.pipeline import solve
from nestnash.regret import certify

DATA = os.path.join(os.path.dirname(__file__), "data", "certificates.json")
EPSILON = 0.05


def _games():
    """(name, game, epsilon) for every pinned game, in file order."""
    rng = np.random.default_rng(515)
    for players in (2, 3, 4):
        game = random_nested_game(rng, max_states=24, players=(players,))
        yield f"nested{players}", game, EPSILON
    yield "priors", _with_player_priors(rng, game), EPSILON
    yield "redundant", redundant_game(np.random.default_rng(516), 60), EPSILON
    spec = random_compact_game(np.random.default_rng(517))
    yield "hat", build_hat_game(spec, 0.1).game, 0.1


def _boxes():
    """(name, grid companion) for every pinned box certificate, in file
    order: 2-dim boxes, three players, and both at once."""
    rng = np.random.default_rng(519)
    for name, dims in (("box22", (2, 2)), ("box111", (1, 1, 1)), ("box211", (2, 1, 1))):
        yield name, build_hat_game(random_box_spec(rng, dims), 0.1, mesh=0.2)


def _with_player_priors(rng, game: NestedGame) -> NestedGame:
    """``game`` with a common prior and a player-2 prior that each put
    zero mass on a different third of the states."""
    states = game.space.states

    def sparse_prior(offset: int) -> dict:
        kept = tuple(s for k, s in enumerate(states) if k % 3 != offset)
        prior = dict.fromkeys(states, 0.0)
        prior.update(exact_prior(rng.dirichlet(np.ones(len(kept))), kept))
        return prior

    space = StateSpace(
        states=states, prior=sparse_prior(0), player_priors={2: sparse_prior(1)}
    )
    return NestedGame(space=space, partitions=game.partitions, payoffs=game.payoffs)


def _coarse_game(game: NestedGame, delta: float) -> NestedGame:
    """The game with each partition swapped for its coarse one, on the
    original states: the certificates pin the certifier, not the
    quotient the solver runs on."""
    hierarchy = build_hierarchy(game, delta)
    return NestedGame(game.space, hierarchy.coarse, game.payoffs)


def _certificate(game, profile, epsilon) -> dict:
    report = certify(game, profile, epsilon)
    return {
        "atoms": [
            {
                "player": i,
                "atom": repr(atom),
                "mass": mass.hex(),
                "regret": regret.hex(),
                "best_value": best.hex(),
                "current_value": current.hex(),
                "best_actions": [repr(a) for a in actions],
            }
            for i, p in report.players.items()
            for atom, mass, regret, best, current, actions in zip(
                p.atoms, p.mass, p.regret, p.best_value, p.current_value, p.best_actions
            )
        ],
        "harsanyi": {str(i): v.hex() for i, v in report.harsanyi.items()},
        "max_regret": report.max_regret.hex(),
    }


def _box_certificate(disc, profile) -> dict:
    box = certify_box(disc, profile)
    return {
        "covering": box.covering.hex(),
        "players": [
            {
                "player": p.player,
                "regret": [r.hex() for r in p.regret],
                "harsanyi": p.harsanyi.hex(),
            }
            for p in box.players
        ],
    }


def _profile_doc(profile: StrategyProfile) -> dict:
    return {
        str(i): {
            repr(atom): {repr(a): p.hex() for a, p in dist.items()}
            for atom, dist in table.items()
        }
        for i, table in profile.strategies.items()
    }


def _profile(game: NestedGame, doc: dict, level: str) -> StrategyProfile:
    """The profile ``_profile_doc`` wrote, with ``game``'s atoms and actions."""
    strategies = {}
    for i in range(1, game.n + 1):
        atoms = {repr(a): a for a in game.partition_for(i).atoms}
        actions = {repr(a): a for a in game.actions_for(i)}
        strategies[i] = {
            atoms[atom]: {actions[a]: float.fromhex(p) for a, p in dist.items()}
            for atom, dist in doc[str(i)].items()
        }
    return StrategyProfile(strategies=strategies, field_level=level)


def _write() -> dict:
    """For each game: a random profile, the pipeline's lifted profile and
    its coarse profile on the coarse game, each with its certificate."""
    rng = np.random.default_rng(518)
    out = {}
    for name, game, epsilon in _games():
        sol = solve(game, epsilon)
        coarse = _coarse_game(game, sol.hierarchy.delta)
        cases = {
            "random": (game, random_profile(rng, game)),
            "pipeline": (game, sol.profile),
            "coarse": (coarse, sol.result.profile),
        }
        out[name] = {
            "delta": sol.hierarchy.delta.hex(),
            "profiles": {k: _profile_doc(p) for k, (_, p) in cases.items()},
            "certificates": {
                k: _certificate(g, p, epsilon) for k, (g, p) in cases.items()
            },
        }
    out["box"] = {}
    rng = np.random.default_rng(520)
    for name, disc in _boxes():
        profiles = {
            "random": random_profile(rng, disc.game),
            "pipeline": solve(disc.game, disc.epsilon).profile,
        }
        out["box"][name] = {
            "profiles": {k: _profile_doc(p) for k, p in profiles.items()},
            "certificates": {
                k: _box_certificate(disc, p) for k, p in profiles.items()
            },
        }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(DATA, encoding="utf-8") as handle:
        return json.load(handle)


def test_certificates_are_bit_identical(golden):
    games = list(_games())
    assert [name for name, _, _ in games] + ["box"] == list(golden)
    for name, game, epsilon in games:
        entry = golden[name]
        coarse = _coarse_game(game, float.fromhex(entry["delta"]))
        for kind, expected in entry["certificates"].items():
            on, level = (coarse, "coarse") if kind == "coarse" else (game, "original")
            profile = _profile(on, entry["profiles"][kind], level)
            assert _certificate(on, profile, epsilon) == expected, f"{name}/{kind}"


def test_box_certificates_are_bit_identical(golden):
    boxes = list(_boxes())
    assert [name for name, _ in boxes] == list(golden["box"])
    for name, disc in boxes:
        entry = golden["box"][name]
        for kind, expected in entry["certificates"].items():
            profile = _profile(disc.game, entry["profiles"][kind], "original")
            assert _box_certificate(disc, profile) == expected, f"{name}/{kind}"


def test_golden_file_covers_every_game_kind(golden):
    assert list(golden) == [
        "nested2",
        "nested3",
        "nested4",
        "priors",
        "redundant",
        "hat",
        "box",
    ]
    games = [entry for name, entry in golden.items() if name != "box"]
    for entry in games:
        assert list(entry["certificates"]) == ["random", "pipeline", "coarse"]
        assert all(cert["atoms"] for cert in entry["certificates"].values())
    assert list(golden["box"]) == ["box22", "box111", "box211"]
    for entry in golden["box"].values():
        assert list(entry["certificates"]) == ["random", "pipeline"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    kept = {}
    if os.path.exists(DATA):
        with open(DATA, encoding="utf-8") as handle:
            kept = json.load(handle)
    with open(DATA, "w", encoding="utf-8") as handle:
        json.dump({**_write(), **kept}, handle, indent=1)
        handle.write("\n")
