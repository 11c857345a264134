"""Random corpus generators shared across the test suite.

Everything is driven by an explicit numpy Generator so corpora are
reproducible from a seed.  Games produced here always validate: nested
partitions are built coarsest-first by refinement, priors are strictly
positive with an exact unit sum, and payoff tables are complete.
"""

from __future__ import annotations

import math

import numpy as np

from nestnash.discretize import CompactGameSpec, poly_lipschitz_bound
from nestnash.game import (
    InformationPartition,
    NestedGame,
    PayoffTensor,
    StateSpace,
    StrategyProfile,
)


def exact_prior(weights: np.ndarray, states: tuple[str, ...]) -> dict[str, float]:
    """Positive prior whose float sum is exactly 1.0."""
    probs = [float(w) for w in weights]
    head = probs[:-1]
    last = 1.0 - math.fsum(head)
    assert last > 0.0
    return dict(zip(states, head + [last]))


def nested_partitions(
    rng: np.random.Generator, states: tuple[str, ...], n: int
) -> tuple[InformationPartition, ...]:
    """Random partitions forming a refinement chain, player 1 finest.

    Built coarsest-first: player n's partition is a random split of the
    states, and each better-informed player's partition randomly splits
    some atoms of the previous one.
    """
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
    dims = tuple(map(len, actions))
    # Drawn state by state, profile by profile, player by player.
    draws = rng.integers(-2, 3, size=(s_count, math.prod(dims), n))
    table = np.moveaxis(draws, 2, 0).astype(float, order="C")
    table = table.reshape((n, s_count) + dims)
    return NestedGame(
        space=StateSpace(states=states, prior=prior),
        partitions=partitions,
        payoffs=PayoffTensor.from_array(actions, states, table),
    )


def random_profile(rng: np.random.Generator, game: NestedGame) -> StrategyProfile:
    """Random strategy: per atom, pure with probability 0.3, else Dirichlet."""
    strategies: dict[int, dict] = {}
    for i in range(1, game.n + 1):
        actions = game.actions_for(i)
        table = {}
        for atom in game.partition_for(i).atoms:
            if rng.random() < 0.3:
                pick = actions[int(rng.integers(0, len(actions)))]
                table[atom] = {pick: 1.0}
            else:
                weights = rng.dirichlet(np.ones(len(actions)))
                head = [float(w) for w in weights[:-1]]
                last = 1.0 - math.fsum(head)
                table[atom] = dict(zip(actions, head + [last]))
        strategies[i] = table
    return StrategyProfile(strategies=strategies, field_level="original")


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


def random_box_spec(rng: np.random.Generator, box_dims: tuple[int, ...]):
    """Random sparse polynomials of degree <= 3 over every coordinate."""
    n = len(box_dims)
    dims = sum(box_dims)
    states = ("w0", "w1", "w2")
    payoffs = {}
    for s in states:
        for i in range(1, n + 1):
            mono = []
            for _ in range(int(rng.integers(2, 6))):
                exps = [0] * dims
                for _ in range(int(rng.integers(1, 4))):
                    exps[int(rng.integers(0, dims))] += 1
                mono.append((float(rng.uniform(-1.0, 1.0)), tuple(exps)))
            mono.append((float(rng.uniform(-0.5, 0.5)), (0,) * dims))
            payoffs[(s, i)] = tuple(mono)
    prior = exact_prior(rng.dirichlet(np.ones(3)), states)
    return CompactGameSpec(
        space=StateSpace(states=states, prior=prior),
        partitions=nested_partitions(rng, states, n),
        box_dims=box_dims,
        payoffs=payoffs,
        lipschitz=max(poly_lipschitz_bound(p) for p in payoffs.values()),
    )


def redundant_game(rng: np.random.Generator, s_count: int) -> NestedGame:
    """Belief-redundant two-player zero-sum game with a common prior.

    Each player-1 atom holds three states, one per payoff class, weighted
    by one of four belief types (a distribution over the classes).
    Player 2 sees only which of four blocks the atom lies in, and each
    block mixes the types in its own proportions.  Every state of a class
    shares one 3x3 payoff matrix, so player 1's ``s_count / 3`` atoms
    collapse to at most 16 coarse atoms.
    """
    classes, kinds, blocks = 3, 4, 4
    if s_count % classes or s_count < classes * blocks:
        raise ValueError("s_count must be a multiple of 3 and at least 12")
    acts = ("r0", "r1", "r2")
    cols = ("c0", "c1", "c2")
    matrices = rng.integers(-2, 3, size=(classes, len(acts), len(cols)))
    types = rng.dirichlet(np.ones(classes), size=kinds)
    block_mix = rng.dirichlet(np.ones(kinds), size=blocks)

    states: list[str] = []
    weights: list[float] = []
    atom_of_1: dict[str, str] = {}
    atom_of_2: dict[str, str] = {}
    state_class: list[int] = []
    for k in range(s_count // classes):
        block = k % blocks
        kind = int(rng.choice(kinds, p=block_mix[block]))
        scale = float(rng.uniform(0.5, 1.5))
        for c in range(classes):
            s = f"w{k}c{c}"
            states.append(s)
            weights.append(scale * float(types[kind][c]))
            atom_of_1[s] = f"a{k}"
            atom_of_2[s] = f"b{block}"
            state_class.append(c)
    state_ids = tuple(states)
    prior = exact_prior(np.array(weights) / math.fsum(weights), state_ids)

    rows = matrices[state_class].astype(float)
    # Player 2's payoff is -u, so a zero payoff is -0.0 for player 2.
    table = np.stack([rows, -rows])
    return NestedGame(
        space=StateSpace(states=state_ids, prior=prior),
        partitions=(
            InformationPartition(player=1, atom_of=atom_of_1),
            InformationPartition(player=2, atom_of=atom_of_2),
        ),
        payoffs=PayoffTensor.from_array((acts, cols), state_ids, table),
    )


def noisy_redundant_game(
    rng: np.random.Generator, s_count: int, nu: float
) -> NestedGame:
    """``redundant_game`` with each prior weight multiplied by
    exp(nu * N(0, 1)) and renormalised, so beliefs that were equal now
    differ by a relative amount of order nu."""
    game = redundant_game(rng, s_count)
    states = game.space.states
    noise = np.exp(nu * rng.standard_normal(len(states)))
    weights = np.array([game.space.prior[s] for s in states]) * noise
    prior = exact_prior(weights / math.fsum(weights), states)
    return NestedGame(
        space=StateSpace(states=states, prior=prior),
        partitions=game.partitions,
        payoffs=game.payoffs,
    )


def nested_redundant_game(
    rng: np.random.Generator, blocks: int = 6, nu: float = 0.0
) -> NestedGame:
    """Belief-redundant three-player game that coarsens at every level.

    Each of three payoff classes has one 2x2x2 payoff table, shared by
    every state of the class.  Each player-1 atom holds three states,
    one per class, weighted by one of three belief types (a distribution
    over the classes).  Each player-2 atom holds six player-1 atoms, the
    types in one of two exact counts, and player 3 sees blocks of four
    player-2 atoms, two of each count.  So with ``nu = 0`` player 1's
    ``6 * 4 * blocks`` atoms hold at most three distinct beliefs, player
    2's at most two and player 3's one, and the coarse partitions hold at
    most six, two and one atoms.  ``nu`` multiplies each prior weight by
    exp(nu * N(0, 1)) before the prior is normalised, so beliefs that
    were equal differ by a relative amount of order nu.
    """
    classes, kinds, per_atom = 3, 3, 6
    dims = (2, 2, 2)
    matrices = rng.integers(-2, 3, size=(classes, len(dims)) + dims)
    types = rng.dirichlet(np.ones(classes), size=kinds)
    counts = rng.multinomial(per_atom, np.full(kinds, 1.0 / kinds), size=2)

    states: list[str] = []
    weights: list[float] = []
    atoms: tuple[dict[str, str], ...] = ({}, {}, {})
    state_class: list[int] = []
    for block in range(blocks):
        for b, count in enumerate(rng.permutation([0, 0, 1, 1]).tolist()):
            second = f"b{block}x{b}"
            kinds_here = rng.permutation(np.repeat(np.arange(kinds), counts[count]))
            for a, kind in enumerate(kinds_here.tolist()):
                for c in range(classes):
                    s = f"{second}a{a}c{c}"
                    states.append(s)
                    weights.append(float(types[kind][c]))
                    names = (f"{second}a{a}", second, f"d{block}")
                    for atom_of, atom in zip(atoms, names):
                        atom_of[s] = atom
                    state_class.append(c)
    state_ids = tuple(states)
    noisy = np.array(weights) * np.exp(nu * rng.standard_normal(len(weights)))
    prior = exact_prior(noisy / math.fsum(noisy.tolist()), state_ids)
    table = np.moveaxis(matrices[state_class].astype(float), 1, 0)
    return NestedGame(
        space=StateSpace(states=state_ids, prior=prior),
        partitions=tuple(
            InformationPartition(player=i, atom_of=atom_of)
            for i, atom_of in enumerate(atoms, start=1)
        ),
        payoffs=PayoffTensor.from_array(
            tuple(tuple(f"p{i}a{k}" for k in range(d)) for i, d in enumerate(dims, 1)),
            state_ids,
            np.ascontiguousarray(table),
        ),
    )
