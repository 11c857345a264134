"""The benchmark's workloads: which games, at which epsilon, in which order.

A workload is a list of ``Case`` entries.  Each case is one game file and
the flags of one ``nestnash solve`` call.  The game set of ``corpus`` and
``continuous`` is pinned to the streams the acceptance tests use, so that
runs with different seeds compare like with like; there the seed only
permutes the order of the solves.  ``redundant`` draws fresh games from
the seed at fixed state counts, so its cost is set by the sizes alone.

A case keeps the generator's random state, not the game: the recheck
regenerates each game when it needs it, so the benchmark holds at most
one game besides the solve's own and the process's peak memory is the
program's.
"""

from __future__ import annotations

import functools
import json
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

import generators

CORPUS_SEED = 20260819
CORPUS_EPSILON = 0.05
# The first 30 games of the acceptance stream, taken without regard to
# difficulty.  The prefix holds game 13, which spends the solver's whole
# 32,000-iteration budget, and game 11, which needs a restart.
CORPUS_GAMES = 30

REDUNDANT_EPSILON = 0.05
# Two games at each of twelve state counts in geometric steps over 4x, so
# the growth exponent of each stage in S can be fitted and the tail
# percentile sits above the median.
REDUNDANT_SIZES = tuple(3 * round(200 * 4 ** (k // 2 / 11)) for k in range(24))

COMPACT_SEED = 6
COMPACT_EPSILONS = (0.1, 0.05, 0.02)
COMPACT_SPECS = 8

NAMES = ("corpus", "redundant", "continuous")


@dataclass(frozen=True)
class Case:
    label: str
    path: str
    epsilon: float
    solver_seed: int
    states: int
    # Regenerates the NestedGame (CompactGameSpec for continuous cases).
    make: Callable[[], object]


def _source(generate, rng: np.random.Generator, *args):
    """Zero-argument maker of what ``generate(rng, *args)`` draws next."""
    state = rng.bit_generator.state
    return functools.partial(_regenerate, generate, state, *args)


def _regenerate(generate, state: dict, *args):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return generate(rng, *args)


def finite_doc(game) -> dict:
    """Game-file document (mode ``finite``) for a NestedGame."""
    return {
        "version": 1,
        "mode": "finite",
        "states": [{"id": s, "prob": game.space.prior[s]} for s in game.space.states],
        "partitions": {str(p.player): dict(p.atom_of) for p in game.partitions},
        "actions": {
            str(i): list(acts) for i, acts in enumerate(game.payoffs.actions, start=1)
        },
        "payoffs": [
            {"state": s, "profile": list(prof), "values": list(vals)}
            for (s, prof), vals in game.payoffs.values.items()
        ],
    }


def continuous_doc(spec) -> dict:
    """Game-file document (mode ``continuous``) for a CompactGameSpec."""
    return {
        "version": 1,
        "mode": "continuous",
        "states": [{"id": s, "prob": spec.space.prior[s]} for s in spec.space.states],
        "partitions": {str(p.player): dict(p.atom_of) for p in spec.partitions},
        "boxes": {str(i): d for i, d in enumerate(spec.box_dims, start=1)},
        "lipschitz": spec.lipschitz,
        "payoffs": [
            {
                "state": s,
                "player": i,
                "monomials": [
                    {"coef": c, "exponents": list(e)} for c, e in poly
                ],
            }
            for (s, i), poly in spec.payoffs.items()
        ],
    }


def _write(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, allow_nan=False))


def build(name: str, seed: int, directory: str) -> list[Case]:
    """Generate the workload's games and write their files under ``directory``."""
    os.makedirs(directory, exist_ok=True)
    cases: list[Case] = []
    if name == "corpus":
        rng = np.random.default_rng(CORPUS_SEED)
        for k in range(CORPUS_GAMES):
            make = _source(generators.random_nested_game, rng)
            game = generators.random_nested_game(rng)
            path = os.path.join(directory, f"corpus{k:03d}.json")
            _write(path, finite_doc(game))
            states = len(game.space.states)
            cases.append(Case(f"corpus{k}", path, CORPUS_EPSILON, k, states, make))
    elif name == "redundant":
        rng = np.random.default_rng(seed)
        for k, size in enumerate(REDUNDANT_SIZES):
            make = _source(generators.redundant_game, rng, size)
            path = os.path.join(directory, f"redundant{k:03d}.json")
            _write(path, finite_doc(generators.redundant_game(rng, size)))
            cases.append(Case(f"redundant{k}", path, REDUNDANT_EPSILON, k, size, make))
    elif name == "continuous":
        rng = np.random.default_rng(COMPACT_SEED)
        for k in range(COMPACT_SPECS):
            make = _source(generators.random_compact_game, rng)
            spec = generators.random_compact_game(rng)
            path = os.path.join(directory, f"continuous{k:03d}.json")
            _write(path, continuous_doc(spec))
            states = len(spec.space.states)
            for eps in COMPACT_EPSILONS:
                cases.append(Case(f"continuous{k}@{eps}", path, eps, k, states, make))
    else:
        raise ValueError(f"unknown workload {name!r}")
    if name != "redundant":
        order = np.random.default_rng(seed).permutation(len(cases))
        cases = [cases[int(i)] for i in order]
    return cases
