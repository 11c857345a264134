"""Frozen workload generators for the benchmark.

``exact_prior``, ``nested_partitions``, ``random_nested_game`` and
``random_compact_game`` are copies of the test-suite generators as they
stand when the benchmark was defined.  They live here so that a later
edit to the test helpers cannot silently change what the benchmark
measures; ``selfcheck.py`` confirms that the copies still reproduce the
acceptance corpus (seed 20260819) and the compact specs (seed 6).

``redundant_game`` is the benchmark's own belief-redundant family: many
states, three payoff classes and four belief types, so the belief
hierarchy merges thousands of atoms into a handful.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from nestnash.discretize import CompactGameSpec
from nestnash.game import (
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
)


def exact_prior(weights: np.ndarray, states: tuple[str, ...]) -> dict[str, float]:
    """Positive prior whose float sum is exactly 1.0."""
    probs = [float(w) for w in weights]
    head = probs[:-1]
    last = 1.0 - math.fsum(head)
    if not last > 0.0:
        raise ValueError("prior weights leave no mass for the last state")
    return dict(zip(states, head + [last]))


def nested_partitions(
    rng: np.random.Generator, states: tuple[str, ...], n: int
) -> tuple[InformationPartition, ...]:
    """Random partitions forming a refinement chain, player 1 finest."""
    labels = [0] * len(states)
    parts: dict[int, InformationPartition] = {}
    for i in range(n, 0, -1):
        remap: dict[tuple[int, int], int] = {}
        new = []
        for lab in labels:
            sub = int(rng.integers(0, 2)) if rng.random() < 0.6 else 0
            key = (lab, sub)
            if key not in remap:
                remap[key] = len(remap)
            new.append(remap[key])
        labels = new
        parts[i] = InformationPartition(
            player=i,
            atom_of={s: f"p{i}g{g}" for s, g in zip(states, labels)},
        )
    return tuple(parts[i] for i in range(1, n + 1))


def random_nested_game(
    rng: np.random.Generator,
    max_states: int = 200,
    players: tuple[int, ...] = (2, 3, 4),
) -> NestedGame:
    """A random valid game: log-uniform state count, 2-3 actions each,
    integer payoffs in [-2, 2], strictly positive common prior."""
    n = int(rng.choice(players))
    s_count = int(
        round(math.exp(rng.uniform(math.log(2), math.log(max_states))))
    )
    s_count = max(2, min(max_states, s_count))
    states = tuple(f"w{k}" for k in range(s_count))
    prior = exact_prior(rng.dirichlet(np.ones(s_count)), states)
    partitions = nested_partitions(rng, states, n)
    actions = tuple(
        tuple(f"a{i}x{j}" for j in range(2 + int(rng.integers(0, 2))))
        for i in range(1, n + 1)
    )
    values = {}
    for s in states:
        for prof in itertools.product(*actions):
            values[(s, prof)] = tuple(
                float(rng.integers(-2, 3)) for _ in range(n)
            )
    return NestedGame(
        space=StateSpace(states=states, prior=prior),
        partitions=partitions,
        payoffs=PayoffTensor(actions=actions, values=values),
    )


def random_compact_game(
    rng: np.random.Generator, zero_sum: bool | None = None
) -> CompactGameSpec:
    """Two players on [0, 1] each, sparse polynomial payoffs of degree
    at most 3, rescaled so the declared Lipschitz bound lands in [1, 4]."""
    if zero_sum is None:
        zero_sum = bool(rng.random() < 0.5)
    s_count = int(rng.integers(2, 4))
    states = tuple(f"w{k}" for k in range(s_count))
    prior = exact_prior(rng.dirichlet(np.ones(s_count)), states)
    partitions = nested_partitions(rng, states, 2)

    exponent_pool = [
        (e1, e2) for e1 in range(4) for e2 in range(4) if 1 <= e1 + e2 <= 3
    ]

    def random_poly():
        count = int(rng.integers(2, 5))
        picks = rng.choice(len(exponent_pool), size=count, replace=False)
        mono = [
            (float(rng.uniform(-1.0, 1.0)), exponent_pool[int(p)]) for p in picks
        ]
        if rng.random() < 0.5:
            mono.append((float(rng.uniform(-0.5, 0.5)), (0, 0)))
        return tuple(mono)

    payoffs = {}
    for s in states:
        p1 = random_poly()
        if zero_sum:
            p2 = tuple((-c, e) for c, e in p1)
        else:
            p2 = random_poly()
        payoffs[(s, 1)] = p1
        payoffs[(s, 2)] = p2

    def lipschitz_bound(poly):
        return math.fsum(abs(c) * sum(e) for c, e in poly)

    worst = max(lipschitz_bound(p) for p in payoffs.values())
    target = float(rng.uniform(1.0, 4.0))
    factor = target / worst
    payoffs = {
        key: tuple((c * factor, e) for c, e in poly)
        for key, poly in payoffs.items()
    }
    return CompactGameSpec(
        space=StateSpace(states=states, prior=prior),
        partitions=partitions,
        box_dims=(1, 1),
        payoffs=payoffs,
        lipschitz=target * (1.0 + 1e-9) + 1e-9,
    )


REDUNDANT_CLASSES = 3
REDUNDANT_TYPES = 4
REDUNDANT_BLOCKS = 4
REDUNDANT_ACTIONS = 3


def redundant_game(rng: np.random.Generator, s_count: int) -> NestedGame:
    """Belief-redundant two-player zero-sum game with a common prior.

    Each player-1 atom holds three states, one per payoff class, weighted
    by one of four belief types (a distribution over the classes).
    Player 2 sees only which of four blocks the atom lies in, and each
    block mixes the types in its own proportions.  Every state of a class
    shares one payoff matrix, so the hierarchy sees three payoff classes,
    four level-1 beliefs and four level-2 beliefs: player 1's
    ``s_count / 3`` atoms collapse to at most 16 coarse atoms, and the
    zero-sum common-prior structure sends the solve down the LP path.
    """
    if s_count % REDUNDANT_CLASSES or s_count < REDUNDANT_CLASSES * REDUNDANT_BLOCKS:
        raise ValueError("s_count must be a multiple of 3 and at least 12")
    atoms = s_count // REDUNDANT_CLASSES
    acts = tuple(f"r{a}" for a in range(REDUNDANT_ACTIONS))
    cols = tuple(f"c{b}" for b in range(REDUNDANT_ACTIONS))
    matrices = rng.integers(-2, 3, size=(REDUNDANT_CLASSES, len(acts), len(cols)))
    types = rng.dirichlet(np.ones(REDUNDANT_CLASSES), size=REDUNDANT_TYPES)
    block_mix = rng.dirichlet(np.ones(REDUNDANT_TYPES), size=REDUNDANT_BLOCKS)

    states: list[str] = []
    weights: list[float] = []
    atom_of_1: dict[str, str] = {}
    atom_of_2: dict[str, str] = {}
    state_class: list[int] = []
    for k in range(atoms):
        block = k % REDUNDANT_BLOCKS
        kind = int(rng.choice(REDUNDANT_TYPES, p=block_mix[block]))
        scale = float(rng.uniform(0.5, 1.5))
        for c in range(REDUNDANT_CLASSES):
            s = f"w{k}c{c}"
            states.append(s)
            weights.append(scale * float(types[kind][c]))
            atom_of_1[s] = f"a{k}"
            atom_of_2[s] = f"b{block}"
            state_class.append(c)
    total = math.fsum(weights)
    state_ids = tuple(states)
    prior = exact_prior(np.array(weights) / total, state_ids)

    values = {}
    for s, c in zip(state_ids, state_class):
        for a, row in zip(acts, matrices[c]):
            for b, u in zip(cols, row):
                u1 = float(u)
                values[(s, (a, b))] = (u1, -u1)
    return NestedGame(
        space=StateSpace(states=state_ids, prior=prior),
        partitions=(
            InformationPartition(player=1, atom_of=atom_of_1),
            InformationPartition(player=2, atom_of=atom_of_2),
        ),
        payoffs=PayoffTensor(actions=(acts, cols), values=values),
    )
