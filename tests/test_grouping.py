"""Array groupings against the plain dict and tuple groupings they replace.

``game._group_ints`` numbers integer keys through a key-indexed table or,
for wide key ranges, a stable argsort; ``hierarchy._distinct_beliefs``
finds the distinct beliefs from the CSR arrays by checksum; and
``game.payoff_classes`` finds the distinct payoff rows by checksum.  Each
must give exactly what the dict grouping (``game._group``) gives.  The
property tests here run under the ``ci`` hypothesis profile in CI too.
"""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nestnash.game
import nestnash.hierarchy
import nestnash.solver
from generators import random_nested_game, redundant_game
from nestnash.game import (
    NestedGame,
    PayoffClasses,
    PayoffTensor,
    StateSpace,
    _group,
    _group_ints,
    payoff_classes,
)
from nestnash.hierarchy import build_hierarchy
from test_game import array_game, assert_same_classes, classes_oracle


def assert_groups_like_a_dict(keys: np.ndarray, span: int) -> None:
    want_ids, want_firsts = _group(keys.tolist())
    # The span given, then one too wide for any table: both branches.
    for width in (span, 1 << 64):
        ids, firsts = _group_ints(keys, width)
        assert ids.dtype == firsts.dtype == np.intp
        assert ids.tolist() == want_ids.tolist()
        assert firsts.tolist() == want_firsts.tolist()


@st.composite
def integer_keys(draw) -> tuple[np.ndarray, int]:
    """Keys below a span from 1 to 2**62, drawn from a pool of at most
    ``count`` values so that they repeat: empty, single, all equal and all
    distinct arrays among them."""
    span = draw(st.integers(1, 1 << 62) | st.sampled_from([1, 2, 7, 64]))
    count = draw(st.integers(0, 300))
    pool = draw(st.lists(st.integers(0, span - 1), min_size=1, max_size=max(1, count)))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=count, max_size=count))
    return np.array([pool[k] for k in picks], np.int64), span


@settings(deadline=None)
@given(integer_keys())
def test_grouping_integers_matches_the_dict(drawn):
    keys, span = drawn
    assert_groups_like_a_dict(keys, span)


@settings(deadline=None)
@given(st.data())
def test_grouping_dense_keys_takes_the_table_and_matches_the_dict(data):
    # A span within the table: the keys a grouping's callers combine.
    count = data.draw(st.integers(1, 300))
    span = data.draw(st.integers(1, 8 * count))
    keys = data.draw(st.lists(st.integers(0, span - 1), min_size=count, max_size=count))
    assert_groups_like_a_dict(np.array(keys, np.intp), span)


def test_grouping_edge_arrays():
    for keys, span in [
        ([], 1),
        ([5], 6),
        ([3] * 40, 4),
        (list(range(50)), 50),
        (list(range(50))[::-1], 1 << 62),
        ([(1 << 62) - 1, 0, (1 << 62) - 1], 1 << 62),
    ]:
        assert_groups_like_a_dict(np.array(keys, np.int64), span)
    checksums = np.array([2**64 - 1, 3, 2**64 - 1, 0], np.uint64)
    ids, firsts = _group_ints(checksums, 1 << 64)
    assert ids.tolist() == [0, 1, 0, 2] and firsts.tolist() == [0, 1, 3]


def test_grouping_a_wide_key_range_peaks_linear_in_the_keys():
    # Keys up to about 1e12: a table would take terabytes; the argsort
    # keeps the peak to a few arrays of the keys' length.
    keys = np.random.default_rng(5).integers(0, 10**12, 100_000)
    keys[1::3] = keys[::3][: len(keys[1::3])]
    tracemalloc.start()
    try:
        ids, firsts = _group_ints(keys, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * keys.nbytes
    assert ids.tolist() == _group(keys.tolist())[0].tolist()
    assert len(firsts) == len(set(keys.tolist()))


# -- distinct beliefs -----------------------------------------------------------


def tuple_beliefs(starts, ids, weights):
    """The plain dedupe: each atom's (signals, weights) tuples, grouped by
    a dict in order of first appearance."""
    cuts = list(map(slice, starts[:-1].tolist(), starts[1:].tolist()))
    ids, weights = tuple(ids.tolist()), tuple(weights.tolist())
    return _group([(ids[cut], weights[cut]) for cut in cuts])


def hierarchy_facts(game: NestedGame, delta: float) -> tuple:
    """Every level's supports, centres, gap and labels, and the coarse
    partitions, with floats as ``float.hex``."""
    h = build_hierarchy(game, delta)
    states = game.space.states
    levels = [
        (
            level.signal_support,
            [[(z, w.hex()) for z, w in c.items()] for c in level.belief_support],
            level.max_l1_gap.hex(),
            level.signals.tolist(),
            level.beliefs.tolist(),
        )
        for level in h.levels
    ]
    coarse = [(part.ids, part.labels(states).tolist()) for part in h.coarse]
    return levels, coarse


@st.composite
def hierarchy_games(draw) -> tuple[NestedGame, float]:
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        game = random_nested_game(rng, max_states=60)
    else:
        game = redundant_game(rng, 3 * draw(st.integers(4, 40)))
    return game, draw(st.sampled_from([1e-3, 0.05, 0.3, 1.0, 2.5]))


@settings(deadline=None)
@given(hierarchy_games())
def test_belief_dedupe_matches_the_tuple_dedupe(drawn):
    game, delta = drawn
    got = hierarchy_facts(game, delta)
    with mock.patch.object(nestnash.hierarchy, "_distinct_beliefs", tuple_beliefs):
        want = hierarchy_facts(game, delta)
    assert got == want


@settings(deadline=None)
@given(hierarchy_games())
def test_belief_dedupe_survives_colliding_checksums(drawn):
    # Every atom's checksum made equal: each is compared entry by entry
    # with the first atom, and the unequal ones are keyed by their tuples.
    game, delta = drawn
    want = hierarchy_facts(game, delta)

    def colliding(starts, ids, weights):
        return np.zeros(len(starts) - 1, np.uint64)

    with mock.patch.object(nestnash.hierarchy, "_belief_checksums", colliding):
        assert hierarchy_facts(game, delta) == want


def test_distinct_beliefs_tells_apart_lengths_orders_and_weights():
    # Atoms: {0: .5, 1: .5}, {1: .5, 0: .5} (same mass, other order),
    # {0: .5, 1: .5}, {} (zero mass), {0: 1.0}, {0: .5, 1: .5, 2: 0.0}.
    starts = np.array([0, 2, 4, 6, 6, 7, 10])
    ids = np.array([0, 1, 1, 0, 0, 1, 0, 0, 1, 2])
    weights = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 0.5, 0.5, 0.0])
    want = tuple_beliefs(starts, ids, weights)
    for checksums in (None, lambda *arrays: np.zeros(6, np.uint64)):
        patch = mock.patch.object(
            nestnash.hierarchy,
            "_belief_checksums",
            checksums or nestnash.hierarchy._belief_checksums,
        )
        with patch:
            got = nestnash.hierarchy._distinct_beliefs(starts, ids, weights)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert got[0].tolist() == [0, 1, 0, 2, 3, 4]


# -- payoff classes -------------------------------------------------------------


def one_cell_game(rows: list[tuple[float, float]]) -> NestedGame:
    """A two-player game with one action each whose k-th state pays
    ``rows[k]``."""
    states = tuple(f"w{k}" for k in range(len(rows)))
    table = np.array(rows, float).T.reshape(2, len(rows), 1, 1)
    prior = dict(zip(states, [1.0 / len(rows)] * len(rows)))
    return NestedGame(
        space=StateSpace(states, prior),
        partitions=(
            nestnash.game.InformationPartition(1, {s: s for s in states}),
            nestnash.game.InformationPartition(2, {s: "b" for s in states}),
        ),
        payoffs=PayoffTensor.from_array((("x",), ("y",)), states, table),
    )


def test_payoff_classes_tell_apart_rows_whose_checksums_collide():
    # With one entry per player the checksum is F(u1) + 3 F(u2) for the
    # folded bits F(b) = b ^ (b >> 32), and these three unequal rows share
    # it, so the states after the first of each are told apart by bytes.
    a, b, c = (1.0, 1.0), (0.125, 2.0), (0.046875, 3.0)

    def checksum(row) -> int:
        bits = np.array(row).view(np.uint64)
        folded = (bits ^ (bits >> np.uint64(32))).astype(object)
        return int(folded[0] + 3 * folded[1]) % 2**64

    assert checksum(a) == checksum(b) == checksum(c)
    game = one_cell_game([a, b, a, b, c, b, (-0.0, 1.0), (0.0, 1.0)])
    classes = payoff_classes(game)
    assert classes.ids.tolist() == [0, 1, 0, 1, 2, 1, 3, 3]
    assert classes.firsts.tolist() == [0, 1, 4, 6]
    assert_same_classes(classes, classes_oracle(game))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.booleans())
def test_payoff_classes_survive_all_checksums_colliding(seed, players, width):
    # Every checksum made 0: each state is compared with the first one,
    # and every other class is found by the bytes of its rows.
    game = array_game(np.random.default_rng(seed), players, width)
    want = classes_oracle(game)
    einsum = np.einsum

    def zeros(spec, *operands):
        return np.zeros_like(einsum(spec, *operands))

    with mock.patch.object(nestnash.game.np, "einsum", zeros):
        got = payoff_classes(game)
    assert_same_classes(got, want)
    assert got.firsts.tolist() == [
        game.space.states.index(s) for s in want.representatives
    ]


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 60))
def test_the_quotient_takes_its_classes_from_the_game(seed, atoms):
    # The classes ``payoff_classes`` finds on the quotient's own payoff
    # array are the game's, read at the kept states: a class's first
    # state opens its merged group, so it is kept, and the kept states'
    # class ids are already numbered by first appearance among them.
    game = redundant_game(np.random.default_rng(seed), 3 * atoms)
    quotient = nestnash.solver.build_auxiliary_game(build_hierarchy(game, 0.05))
    assume(len(quotient.space.states) < len(game.space.states))
    kept = list(map(game.space.position.__getitem__, quotient.space.states))
    classes = game.classes
    want = PayoffClasses(classes.count, classes.representatives, classes.ids[kept])
    assert_same_classes(quotient.classes, want)
    assert quotient.classes.firsts.tolist() == want.firsts.tolist()
