import hashlib
import itertools
import json

import numpy as np
import pytest

from generators import noisy_redundant_game, random_nested_game, redundant_game
from nestnash.game import (
    GameFormatError,
    InformationPartition,
    InvalidGameError,
    NestedGame,
    PayoffTensor,
    StateSpace,
)
from nestnash.hierarchy import (
    build_hierarchy,
    check_properties,
    expectation_gap,
)


def anchor_with_prior(base: NestedGame, prior: dict) -> NestedGame:
    return NestedGame(
        space=StateSpace(states=base.space.states, prior=prior),
        partitions=base.partitions,
        payoffs=base.payoffs,
    )


def anchor_copies(base: NestedGame, *first: float) -> NestedGame:
    """The informed anchor repeated once per entry of ``first``.

    Copy j has states ``w1.j`` and ``w2.j`` with the anchor's payoffs.
    Player 1 observes the state; player 2 observes only the copy, in
    which ``w1.j`` has conditional weight ``first[j]``.  The copies
    split the prior equally.
    """
    share = 1.0 / len(first)
    prior: dict[str, float] = {}
    atoms1: dict[str, str] = {}
    atoms2: dict[str, str] = {}
    twin: dict[str, str] = {}
    for j, p in enumerate(first):
        for name, weight in (("w1", p), ("w2", 1.0 - p)):
            s = f"{name}.{j}"
            prior[s] = share * weight
            atoms1[s] = f"a{name[1]}.{j}"
            atoms2[s] = f"b.{j}"
            twin[s] = name
    states = tuple(prior)
    return NestedGame(
        space=StateSpace(states=states, prior=prior),
        partitions=(
            InformationPartition(player=1, atom_of=atoms1),
            InformationPartition(player=2, atom_of=atoms2),
        ),
        payoffs=PayoffTensor(
            actions=base.payoffs.actions,
            values={
                (s, prof): base.payoffs.values[(twin[s], prof)]
                for s in states
                for prof in base.payoffs.profiles()
            },
        ),
    )


class TestBuildHierarchy:
    def test_two_state_anchor_structure(self, informed_anchor):
        # Player 2's second atom, (0.45, 0.55), is 0.1 from the first.
        game = anchor_copies(informed_anchor, 0.5, 0.45)
        h = build_hierarchy(game, 0.2)
        assert h.classes.count == 2
        lvl1 = h.level(1)
        assert lvl1.signal_support == ((0,), (1,))
        assert lvl1.belief_support == ({0: 1.0}, {1: 1.0})
        assert lvl1.max_l1_gap == 0.0
        lvl2 = h.level(2)
        assert lvl2.signal_support == ((0, 0), (1, 1))
        assert lvl2.belief_support == ({0: 0.5, 1: 0.5},)
        assert lvl2.max_l1_gap == pytest.approx(0.1, abs=1e-12)
        assert len(h.coarse_partition(1).atoms) == 2
        assert len(h.coarse_partition(2).atoms) == 1
        assert check_properties(game, h).ok

    def test_atom_for_key_lookup(self, informed_anchor):
        h = build_hierarchy(informed_anchor, 0.2)
        key, atom = next(iter(h.coarse_keys[1].items()))
        assert atom in h.coarse_partition(2).atoms
        assert h.atom_for_key(2, key) == atom
        assert h.atom_for_key(2, (99,)) is None

    def test_skewed_prior_rounding_gap(self, informed_anchor):
        skewed = anchor_copies(informed_anchor, 1 / 3, 0.3)
        h = build_hierarchy(skewed, 0.2)
        # (0.3, 0.7) lies 1/15 from the (1/3, 2/3) centre and joins it.
        (centre,) = h.level(2).belief_support
        assert centre == pytest.approx({0: 1 / 3, 1: 2 / 3}, abs=1e-15)
        assert h.level(2).max_l1_gap == pytest.approx(1 / 15, abs=1e-12)
        assert h.level(2).max_l1_gap < 0.2
        assert len(h.coarse_partition(2).atoms) == 1
        # Below the 1/15 gap each belief is its own centre.
        tight = build_hierarchy(skewed, 0.05)
        assert len(tight.level(2).belief_support) == 2
        assert tight.level(2).max_l1_gap == 0.0
        assert len(tight.coarse_partition(2).atoms) == 2

    def test_beliefs_join_the_first_centre_within_delta(self, informed_anchor):
        # 0.58 and 0.42 are each 0.16 from the 0.5 centre but 0.32 apart.
        # 0.7 is 0.4 from it and opens a second centre.  0.66 is 0.08 from
        # the second centre, yet joins the first, 0.32 away.
        game = anchor_copies(informed_anchor, 0.5, 0.58, 0.42, 0.7, 0.66)
        level = build_hierarchy(game, 0.35).level(2)
        # Atom b.j holds the states w1.j and w2.j, in that order.
        assert level.beliefs.tolist() == [0, 0, 0, 0, 0, 0, 1, 1, 0, 0]
        assert level.belief_support[1] == pytest.approx({0: 0.7, 1: 0.3})
        assert level.max_l1_gap == pytest.approx(0.32, abs=1e-12)

    def test_delta_above_two_merges_disjoint_beliefs(self, informed_anchor):
        # Player 1's point masses on the two classes are exactly 2 apart.
        assert len(build_hierarchy(informed_anchor, 2.0).level(1).belief_support) == 2
        level = build_hierarchy(informed_anchor, 2.5).level(1)
        assert level.belief_support == ({0: 1.0},)
        assert level.max_l1_gap == 2.0

    def test_identical_beliefs_collapse_coarse_atoms(self):
        # Two informative atoms with the same payoff class and belief merge.
        space = StateSpace(states=("w1", "w2"), prior={"w1": 0.5, "w2": 0.5})
        partitions = (
            InformationPartition(player=1, atom_of={"w1": "a1", "w2": "a2"}),
            InformationPartition(player=2, atom_of={"w1": "b", "w2": "b"}),
        )
        values = {
            (s, p): (1.0, -1.0)
            for s in ("w1", "w2")
            for p in itertools.product(("L", "R"), ("L", "R"))
        }
        game = NestedGame(
            space=space,
            partitions=partitions,
            payoffs=PayoffTensor(actions=(("L", "R"), ("L", "R")), values=values),
        )
        h = build_hierarchy(game, 0.25)
        assert h.classes.count == 1
        assert len(game.partition_for(1).atoms) == 2
        assert len(h.coarse_partition(1).atoms) == 1
        assert check_properties(game, h).ok

    def test_zero_mass_states_get_unrealized_signal(self, informed_anchor):
        degenerate = anchor_with_prior(informed_anchor, {"w1": 1.0, "w2": 0.0})
        h = build_hierarchy(degenerate, 0.2)
        assert h.level(1).signals.tolist() == [0, -1]
        assert h.level(1).signal_support == ((0,),)
        assert h.level(1).max_l1_gap == 0.0
        assert check_properties(degenerate, h).ok

    def test_rejects_invalid_game(self, informed_anchor):
        bad = anchor_with_prior(informed_anchor, {"w1": 0.7, "w2": 0.7})
        with pytest.raises(InvalidGameError):
            build_hierarchy(bad, 0.2)

    def test_rejects_nonpositive_delta(self, informed_anchor):
        with pytest.raises(GameFormatError):
            build_hierarchy(informed_anchor, 0.0)
        with pytest.raises(GameFormatError, match="delta must be positive"):
            build_hierarchy(informed_anchor, float("nan"))

    def test_construction_is_deterministic(self):
        games = [
            random_nested_game(np.random.default_rng(11), max_states=60)
            for _ in range(2)
        ]
        for game in games:
            a = build_hierarchy(game, 0.07)
            b = build_hierarchy(game, 0.07)
            for i in range(1, game.n + 1):
                assert a.level(i).signal_support == b.level(i).signal_support
                assert a.level(i).belief_support == b.level(i).belief_support
                assert a.level(i).max_l1_gap == b.level(i).max_l1_gap
                # Dataclass equality skips the label arrays.
                assert a.level(i).signals.tolist() == b.level(i).signals.tolist()
                assert a.level(i).beliefs.tolist() == b.level(i).beliefs.tolist()
            assert a.coarse_keys == b.coarse_keys

    def test_gap_respects_delta_on_random_games(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            game = random_nested_game(rng, max_states=50)
            for delta in (0.3, 0.08):
                h = build_hierarchy(game, delta)
                for i in range(1, game.n + 1):
                    assert h.level(i).max_l1_gap < delta
                assert check_properties(game, h).ok

    def test_centres_are_delta_apart_and_cover_every_belief(self):
        # Noisy priors put beliefs near, but not at, each other, so the
        # clustering has real merges to make.  Distances here are plain
        # sums over a plainly recomputed conditional.
        def l1(p, q):
            return sum(abs(p.get(z, 0.0) - q.get(z, 0.0)) for z in p.keys() | q)

        rng = np.random.default_rng(5)
        for nu in (1e-2, 1e-1):
            game = noisy_redundant_game(rng, 300, nu)
            position = game.space.position
            for delta in (0.3, 0.05):
                h = build_hierarchy(game, delta)
                assert len(h.level(1).belief_support) < 100
                for i in range(1, game.n + 1):
                    level = h.level(i)
                    signals, beliefs = level.signals.tolist(), level.beliefs.tolist()
                    for a, b in itertools.combinations(level.belief_support, 2):
                        assert l1(a, b) >= delta - 1e-12
                    prior = game.prior_for(i)
                    for atom, members in game.partition_for(i).atoms.items():
                        mass = sum(prior[s] for s in members)
                        exact: dict[int, float] = {}
                        for s in members:
                            z = signals[position[s]]
                            exact[z] = exact.get(z, 0.0) + prior[s] / mass
                        centre = level.belief_support[beliefs[position[members[0]]]]
                        assert l1(exact, centre) < delta + 1e-12


class TestExpectations:
    def test_expectation_gap_hand_computed(self, informed_anchor):
        skewed = anchor_copies(informed_anchor, 1 / 3, 0.3)
        h = build_hierarchy(skewed, 0.2)
        f = {(0, 0): 1.0, (1, 1): -1.0}
        # The second atom's own belief gives -0.4; its centre gives -1/3.
        gap = expectation_gap(skewed, h, 2, f, 1.0)
        assert gap == pytest.approx(1 / 15, abs=1e-12)
        assert gap < 1.0 * 0.2

    def test_expectation_gap_bound_guarantee_random(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            game = random_nested_game(rng, max_states=40)
            delta = 0.11
            h = build_hierarchy(game, delta)
            for i in range(1, game.n + 1):
                support = h.level(i).signal_support
                bound = 2.5
                f = {z: float(rng.uniform(-bound, bound)) for z in support}
                gap = expectation_gap(game, h, i, f, bound)
                assert gap < bound * delta + 1e-12

    def test_expectation_gap_validates_inputs(self, informed_anchor):
        h = build_hierarchy(informed_anchor, 0.2)
        f = {(0, 0): 1.0, (1, 1): -1.0}
        with pytest.raises(GameFormatError):
            expectation_gap(informed_anchor, h, 2, f, 0.0)
        with pytest.raises(GameFormatError):
            expectation_gap(informed_anchor, h, 2, {(0, 0): 1.0}, 1.0)
        with pytest.raises(GameFormatError):
            expectation_gap(informed_anchor, h, 2, {(0, 0): 5.0, (1, 1): 0.0}, 1.0)


def partly_unrealized_game() -> NestedGame:
    """A 3-player game where the common prior is zero on every fifth
    state and player 2's prior is also zero on player 2's first atom, so
    some states carry no mass under any prior and player 2 has a
    zero-mass atom."""
    base = random_nested_game(np.random.default_rng(4), max_states=60, players=(3,))
    states = base.space.states
    first = next(iter(base.partition_for(2).atoms.values()))

    def renormalized(zero):
        prior = base.space.prior
        weights = {s: 0.0 if zero(k, s) else prior[s] for k, s in enumerate(states)}
        total = sum(weights.values())
        return {s: w / total for s, w in weights.items()}

    common = renormalized(lambda k, s: k % 5 == 0)
    player2 = renormalized(lambda k, s: k % 5 == 0 or s in first)
    return NestedGame(
        space=StateSpace(states=states, prior=common, player_priors={2: player2}),
        partitions=base.partitions,
        payoffs=base.payoffs,
    )


def hierarchy_digest(h) -> str:
    """sha256 of every field of a hierarchy in a canonical dump: dicts as
    (repr(key), value) pairs in their own order, label arrays as
    (repr(state), label) pairs in state order, each atom's belief as
    (repr(atom), belief) pairs in partition order, coarse keys as
    (repr(atom), key) pairs, floats as float.hex."""
    states = h.game.space.states

    def pairs(d):
        return [[repr(k), v] for k, v in d.items()]

    def by_state(labels):
        return pairs(dict(zip(states, labels.tolist())))

    def by_atom(part, labels):
        at = dict(zip(states, labels.tolist()))
        return [[repr(atom), at[members[0]]] for atom, members in part.atoms.items()]

    doc = {
        "delta": h.delta.hex(),
        "classes": [
            h.classes.count,
            by_state(h.classes.ids),
            [repr(s) for s in h.classes.representatives],
        ],
        "levels": [
            [
                level.player,
                [list(z) for z in level.signal_support],
                by_state(level.signals),
                [[[z, w.hex()] for z, w in c.items()] for c in level.belief_support],
                by_state(level.beliefs),
                by_atom(h.game.partition_for(level.player), level.beliefs),
                level.max_l1_gap.hex(),
            ]
            for level in h.levels
        ],
        "coarse": [[part.player, pairs(part.atom_of)] for part in h.coarse],
        "coarse_keys": [
            [[repr(atom), list(key)] for key, atom in keys.items()]
            for keys in h.coarse_keys
        ],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def pinned_games() -> dict[str, NestedGame]:
    games = {
        f"random-{n}": random_nested_game(
            np.random.default_rng(seed), max_states=80, players=(n,)
        )
        for n, seed in ((2, 302), (3, 305), (4, 308))
    }
    games["unrealized"] = partly_unrealized_game()
    games["redundant"] = redundant_game(np.random.default_rng(7), 600)
    games["noisy"] = noisy_redundant_game(np.random.default_rng(8), 600, 1e-3)
    return games


PIN_DELTAS = (1e-9, 0.15, 2.5)
# Digests of every field, taken before the construction last changed; a
# rewrite of ``build_hierarchy`` must reproduce them exactly.
HIERARCHY_PINS = {
    'noisy': (
        '10c113c047dd428349fcc7bb71cd8ba389a8c7225a07e52311b133483ef9bca7',
        '123dab63e2efc0f9b001f72d76ba2c697d45b2b2606013e1709ee11f773f1f40',
        '40fc51c47257675f3f9c1ecbba4480ac2273168669bcecf6e026ad8b109efb9f',
    ),
    'random-2': (
        'edacd57ee2ff2e5a89a35fab21f59b5f295d5e54f9f0a245e5febb23c2210464',
        '7cd3653c5a5a4313fda10ba9d2b9c2420cdfc4492fce45c46363006382103882',
        '74e50539326a589b9f2c229b81431a1675197dabea9dbe00ebb09db9bfeb36b9',
    ),
    'random-3': (
        '4ed7a9fe807404ac65c1d908959019da55ed43f6dc3abe1c7f45ec1644c08ad3',
        'cdd6c7757910ff7c137318efe61108453bba04a56ba5683ade7afed93dacaeaf',
        '4434bf8d186190bebca64669a6c9ccbfca5b6c3e06347bf661c857dd0b008ed6',
    ),
    'random-4': (
        '31d8d2ac057cfce4df75f28f4e00db340d069fc5ecc5e0e1eb66752d375de2a5',
        '2eaacfeeec68c1e95157138f490e6002968d6f2c52010fdb0f55e658ff02f737',
        '3086898e090c0ec6da47c38d81ef6dac727584aac9a106621a2600f469154580',
    ),
    'redundant': (
        'bc2ecb8dd32aa911f613a1f7e8b9bcf9a5be8b957cd66faad67873dca97f0ea6',
        'eeb31d9d152cf46cf46b2667e559ffc109bdc78956218f7c89e8003082ad8806',
        '711d7c2f7e4edca81a6874ca21a6dc0833c2a1b9e82b33b6744f5fe7875a5c4c',
    ),
    'unrealized': (
        '3d20d55d65ea88735ad29a6b16c1ade33f0ed653bbb33979af8c5667bbde5a64',
        'e1e5ea791142b67fc53cb03bdfa8a22597a5849ac75c68862f5796b255fa29b9',
        '954a4986544dbbca76391ee5add127ec95d8e5c734f4a16b15edf27baa964b9d',
    ),
}


class TestPinnedHierarchies:
    def test_unrealized_game_exercises_both_conventions(self):
        game = partly_unrealized_game()
        h = build_hierarchy(game, 0.15)
        assert -1 in h.level(1).signals.tolist()
        prior2 = game.prior_for(2)
        assert any(
            all(prior2[s] == 0.0 for s in members)
            for members in game.partition_for(2).atoms.values()
        )

    @pytest.mark.parametrize("name", sorted(HIERARCHY_PINS))
    def test_every_field_is_pinned(self, name):
        game = pinned_games()[name]
        for delta, want in zip(PIN_DELTAS, HIERARCHY_PINS[name]):
            h = build_hierarchy(game, delta)
            assert h.game is game
            assert hierarchy_digest(h) == want, (name, delta)
