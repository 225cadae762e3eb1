import copy
from array import array
from collections import deque

import numpy as np
import pytest
from dyadic_reference import (
    FullStore,
    Interval,
    block_node,
    c0_at,
    decompose_nodes,
    decompose_prefix,
    frozen_noise,
    interval_of,
    is_left_node,
    levels_reached,
    node,
    node_of,
    on_full_store,
    path_intervals,
    prefix_value,
    window_query,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from decaystream import dyadic
from decaystream.baselines import RunningDiffBaseline
from decaystream.dyadic import DyadicTree, PrefixCursor, WindowCursor, block_levels
from decaystream.mechanisms import (
    AllWindowSum,
    ExponentialSum,
    FixedWindowView,
    PolynomialSum,
    RunningSum,
    WindowSum,
)
from decaystream.noise import RandomLanes, RandomSource


def make_tree(noisy=False, seed=0, scale=1.0, store=DyadicTree):
    return store(RandomSource(seed), lambda level: scale, noisy=noisy)


def filled_tree(size, noisy=False, seed=0, scale=1.0):
    """A full store holding the complete tree over [1, size], every leaf 1.0."""
    tree = make_tree(noisy, seed, scale, FullStore)
    for i in range(1, size + 1):
        tree.add_path(i, 1.0, size.bit_length())
    return tree


def test_prefix_decomposition_two_blocks_of_eight_leaves():
    # u = base + 5 in an 8-leaf block tiles as a 4-block plus a 2-block
    for base in (1, 9):
        assert decompose_prefix(base + 5, base) == [
            Interval(base, base + 3),
            Interval(base + 4, base + 5),
        ]


def test_prefix_decomposition_full_range_is_root():
    assert decompose_prefix(16) == [Interval(1, 16)]


def test_prefix_decomposition_offset_tree():
    assert decompose_prefix(7, base=5) == [Interval(5, 6), Interval(7, 7)]


def test_prefix_decomposition_empty_prefix():
    assert decompose_prefix(0) == []
    assert decompose_prefix(4, base=5) == []
    assert prefix_value(filled_tree(8), 4, base=5) == 0.0


def test_prefix_decomposition_range_errors():
    tree = filled_tree(8)
    with pytest.raises(ValueError):
        decompose_prefix(-1)
    with pytest.raises(ValueError):
        decompose_prefix(8, base=3)  # [3, 8] is not in an aligned block
    with pytest.raises(ValueError):
        prefix_value(tree, 8, base=3)
    with pytest.raises(ValueError):
        prefix_value(tree, 9)  # leaf 9 was never created


def test_path_intervals_examples():
    assert path_intervals(3, 3) == [Interval(3, 3), Interval(3, 4), Interval(1, 4)]
    spine = path_intervals(1, 4)
    assert len(spine) == 4
    assert all(iv.l == 1 for iv in spine)


def test_path_intervals_length_is_height():
    for size in (1, 2, 8, 64):
        height = size.bit_length()
        for i in (1, size):
            assert len(path_intervals(i, height)) == height
    with pytest.raises(ValueError):
        path_intervals(5, 3)


def test_add_path_touches_exactly_the_path():
    # position i creates and writes the path nodes ending at i, each with
    # its interval sum; no other node changes, and each level holds one
    # node, its newest closed one
    for size in (1, 2, 8, 64):
        height = size.bit_length()
        tree = make_tree()
        for i in range(1, size + 1):
            before = tree.counters()
            tree.add_path(i, 1.0, height)
            assert levels_reached(tree) == height
            after = tree.counters()
            ivs = path_intervals(i, height)
            ends = {node_of(iv): iv.u - iv.l + 1.0 for iv in ivs if iv.u == i}
            assert set(after) - set(before) == set(ends)
            assert {key: c for key, c in after.items() if before.get(key) != c} == ends
            assert sorted(after) == [(level, (i >> (level - 1)) - 1)
                                     for level in range(1, min(height, i.bit_length()) + 1)]


def _refuses_any_position_but_the_next(write):
    tree = make_tree()
    for i in (0, 2, -1):
        with pytest.raises(ValueError, match="not the next one"):
            write(tree, i)
    write(tree, 1)
    for i in (1, 3, 0):
        with pytest.raises(ValueError, match="not the next one"):
            write(tree, i)
    write(tree, 2)
    assert tree.received == 2


def test_add_path_refuses_any_position_but_the_next():
    _refuses_any_position_but_the_next(lambda tree, i: tree.add_path(i, 1.0, 3))


def test_add_refuses_any_position_but_the_next():
    _refuses_any_position_but_the_next(lambda tree, i: tree.add(i, 1.0, [1.0] * 3))


def test_add_path_returns_the_topmost_node_it_closes():
    # on a block tree and on a growing tree, the node of length
    # min(i & -i, 2**(height-1)) ending at i, as the full store publishes it
    gen = RandomSource(3)
    xs = [gen.uniform() for _ in range(300)]
    for grow in (False, True):
        tree = make_tree(noisy=True, seed=4, scale=2.0)
        ref = make_tree(noisy=True, seed=4, scale=2.0, store=FullStore)
        for i, x in enumerate(xs, 1):
            height = (i - 1).bit_length() + 1 if grow else 4
            got, want = tree.add_path(i, x, height), ref.add_path(i, x, height)
            L = min(i & -i, 1 << (height - 1))
            assert got == want == ref.published(L.bit_length(), i // L - 1), (grow, i)
            assert got == tree.published(L.bit_length(), i // L - 1)


def test_is_left_node_examples():
    assert is_left_node(Interval(1, 2), 4)
    assert not is_left_node(Interval(7, 8), 4)
    assert not is_left_node(Interval(1, 8), 4)  # root convention
    with pytest.raises(ValueError):
        is_left_node(Interval(2, 3), 4)  # unaligned
    with pytest.raises(ValueError):
        is_left_node(Interval(1, 3), 4)  # not a power-of-two length


def test_grow_double_doubling_sequence():
    # 9 updates on a growing tree; it doubles whenever it is full, and the
    # new root takes its value from its children when it closes
    tree = make_tree()
    for i in range(1, 10):
        tree.add_path(i, 1.0, (i - 1).bit_length() + 1)
        if i == 8:
            assert levels_reached(tree) == 4
            assert c0_at(tree, 4, 0) == 8.0  # the old root [1, 8], closed
    assert levels_reached(tree) == 5  # the tree over [1, 16]
    assert (5, 0) not in tree.counters()  # the new root [1, 16], created when it closes
    for i in range(10, 17):
        tree.add_path(i, 1.0, 5)
    assert c0_at(tree, 5, 0) == 16.0


def _check_tiling(base, u, height):
    parts = decompose_prefix(u, base)
    # disjoint, sorted, exact cover
    covered = []
    for iv in parts:
        covered.extend(range(iv.l, iv.u + 1))
    assert covered == list(range(base, u + 1))
    # lengths are distinct powers of two
    lengths = [iv.u - iv.l + 1 for iv in parts]
    assert all(length & (length - 1) == 0 for length in lengths)
    assert len(set(lengths)) == len(lengths)
    # at most ceil(log2(prefix length)) parts
    n = u - base + 1
    if n > 0:
        assert len(parts) <= max(1, (n - 1).bit_length())
    # every interval after the first is a left node
    for iv in parts[1:]:
        assert is_left_node(iv, height)


def test_prefix_decomposition_tiling_exhaustive():
    for h in range(0, 11):
        size = 1 << h
        for u in range(0, size + 1):
            _check_tiling(1, u, h + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=12), st.data())
def test_prefix_decomposition_tiling_with_block_bases(h, data):
    size = 1 << h
    block = 1 << data.draw(st.integers(min_value=0, max_value=h))
    k = data.draw(st.integers(min_value=0, max_value=size // block - 1))
    base = 1 + k * block
    u = data.draw(st.integers(min_value=base - 1, max_value=base + block - 1))
    _check_tiling(base, u, h + 1)


def test_prefix_value_sums_published_tiles():
    tree = filled_tree(64, noisy=True, seed=4, scale=2.0)
    for block in (1, 4, 16, 64):
        for base in range(1, 65, block):
            for u in range(base - 1, base + block):
                want = 0.0
                for level, index, _ in decompose_nodes(u, base):
                    want += tree.published(level, index)
                assert prefix_value(tree, u, base) == want


def test_prefix_cursor_matches_prefix_value_bit_for_bit():
    # fed, at each position u of a block, the node of length p & -p ending
    # at u (p = u - base + 1)
    tree = filled_tree(64, noisy=True, seed=5, scale=3.0)
    for base, size in ((1, 64), (17, 16), (33, 32), (49, 8)):
        cursor = PrefixCursor()
        for u in range(base, base + size):
            low = (u - base + 1) & -(u - base + 1)
            node = tree.published(low.bit_length(), u // low - 1)
            assert cursor.advance(u - base + 1, node, 1.0) == prefix_value(tree, u, base)


CURSOR_WINDOWS = (1, 2, 3, 5, 8, 12, 100, 128, 1000)


def _source(kind, seed):
    if kind == "lanes":
        return RandomLanes(RandomSource(seed).child(t) for t in range(3))
    return RandomSource(seed)


def _trials(kind, seed):
    """The scalar sources whose draws the lanes of ``_source(kind, seed)``
    repeat, one per trial: the source itself when it is scalar."""
    if kind == "lanes":
        return [RandomSource(seed).child(t) for t in range(3)]
    return [RandomSource(seed)]


def _same(a, b):
    return a.tolist() == b.tolist() if hasattr(a, "tolist") else a == b


@pytest.mark.parametrize("kind", ["scalar", "lanes"])
def test_window_cursor_matches_window_query_on_a_growing_tree(kind):
    # every window size streams from one all-window tree at once, each
    # cursor fed its block's node ending at j, which the store still holds;
    # on lanes, the reader of each window over the growing tree (the fixed
    # view) gives lane t the random-access reads of trial t's full store
    gen = RandomSource(21)
    xs = [gen.uniform() for _ in range(2200)]
    if kind == "lanes":
        refs = [on_full_store(lambda rng=rng: AllWindowSum(1.0, rng)) for rng in _trials(kind, 22)]
        for ref in refs:
            for x in xs:
                ref.push(x)
        steps = range(1, len(xs) + 1)
        for W in CURSOR_WINDOWS:
            got = FixedWindowView(W, 1.0, _source(kind, 22)).estimates_at(xs, steps)
            for j, v in zip(steps, got):
                assert _bits_equal(v, [window_query(ref._tree, j, W) for ref in refs]), (j, W)
        return
    aw = AllWindowSum(1.0, _source(kind, 22))
    ref = on_full_store(lambda: AllWindowSum(1.0, _source(kind, 22)))
    cursors = [WindowCursor(W, block_levels(W)) for W in CURSOR_WINDOWS]
    for j, x in enumerate(xs, 1):
        aw.push(x)
        ref.push(x)
        for cursor in cursors:
            got = cursor.advance(j, block_node(aw._tree, j, cursor.W))
            assert _same(got, window_query(ref._tree, j, cursor.W)), (j, cursor.W)


@pytest.mark.parametrize("kind", ["scalar", "lanes"])
@pytest.mark.parametrize("W", CURSOR_WINDOWS)
def test_window_cursor_matches_window_query_on_block_trees(kind, W):
    # aligned blocks of W' leaves, each a subtree of fixed height (as
    # WindowSum): the cursor takes the node each add_path closes; on lanes,
    # the reader over the same blocks gives lane t trial t's reads
    height = (W - 1).bit_length() + 1
    cursor = WindowCursor(W, height)
    gen = RandomSource(23)
    xs = [gen.uniform() for _ in range(max(4 * W, 40))]
    refs = [FullStore(rng, lambda level: 2.0) for rng in _trials(kind, W)]
    for ref in refs:
        for j, x in enumerate(xs, 1):
            ref.add_path(j, x, height)
    if kind == "lanes":
        steps = range(1, len(xs) + 1)
        tree = DyadicTree(_source(kind, W), lambda level: 2.0)
        got = dyadic.window_sums_at(tree, cursor, xs, steps, height)
        for j, v in zip(steps, got):
            assert _bits_equal(v, [window_query(ref, j, W) for ref in refs]), j
        return
    tree = DyadicTree(_source(kind, W), lambda level: 2.0)
    for j, x in enumerate(xs, 1):
        assert _same(cursor.advance(j, tree.add_path(j, x, height)), window_query(refs[0], j, W)), j


def _count_reads(tree):
    """Record every node the store's ``published`` returns."""
    reads = []
    read = tree.published

    def counted(level, index):
        reads.append((level, index))
        return read(level, index)

    tree.published = counted
    return reads


@pytest.mark.parametrize("kind", ["scalar", "lanes"])
@pytest.mark.parametrize("W", (1, 3, 8, 100))
def test_window_estimates_read_one_node_per_push_and_queue_at_most_W(kind, W):
    # each estimate takes one node, the one add_path returns, so the window
    # sum, the running sum and the prefix-difference baseline never call
    # published; the fixed view reads the store only when the node closed
    # at j spans more than a block.  The lagged prefix is the walk's own
    # value W steps back, from a queue of its last W values.  On lanes each
    # trial is pushed alone, and the lane reader, which reads no node
    # through published either, gives lane t trial t's pushes.
    T = 4 * max(W, 8) + 5
    Wp = 1 << (W - 1).bit_length()
    gen = RandomSource(31)
    xs = [gen.uniform() for _ in range(T)]
    makes = {32: lambda rng: WindowSum(W, 1.0, rng),
             33: lambda rng: FixedWindowView(W, 1.0, rng),
             34: lambda rng: RunningDiffBaseline(W, T, 1.0, rng),
             35: lambda rng: RunningSum(1.0, rng)}
    for seed, make in makes.items():
        pushed = []
        for rng in _trials(kind, seed):
            est = make(rng)
            past = est._window._past if hasattr(est, "_window") else None
            reads = _count_reads(est._tree)
            pushed.append([])
            for i, x in enumerate(xs, 1):
                pushed[-1].append(est.push(x))
                if isinstance(est, FixedWindowView):
                    assert len(reads) == sum(j & -j > Wp for j in range(1, i + 1)), i
                else:
                    assert reads == [], (type(est).__name__, i)
                if past is not None:
                    assert len(past) == min(i, W), (type(est).__name__, i)
        if kind == "lanes":
            est = make(_source(kind, seed))
            reads = _count_reads(est._tree)
            got = est.estimates_at(xs, range(1, T + 1))
            assert reads == []
            for j, v in enumerate(got):
                assert _bits_equal(v, [p[j] for p in pushed]), (type(est).__name__, j + 1)


@pytest.mark.parametrize("W, levels", [(1, 4), (5, 4), (5, 7), (8, 4), (8, 6)])
def test_window_cursor_reads_blocks_longer_than_its_window(W, levels):
    # as the prefix-difference baseline reads it, over blocks of
    # 2**(levels - 1) >= W' positions; noise off, the sums of bits are exact
    tree = DyadicTree(RandomSource(0), lambda level: 1.0, noisy=False)
    cursor = WindowCursor(W, levels)
    gen = RandomSource(24)
    xs = [float(gen.uniform() < 0.5) for _ in range(200)]
    for j, x in enumerate(xs, 1):
        assert cursor.advance(j, tree.add_path(j, x, levels)) == sum(xs[max(j - W, 0):j]), j


def test_noise_frozen_under_updates():
    # a growing tree over [1, 1024]: each node keeps the noise it was
    # created with, whatever values reach it, for as long as it is its
    # level's newest
    tree = make_tree(noisy=True, seed=11, scale=2.0)
    gen = RandomSource(12)
    stamped = {}
    for i in range(1, 1025):
        tree.add_path(i, gen.uniform(), (i - 1).bit_length() + 1)
        for key, z in frozen_noise(tree).items():
            assert stamped.setdefault(key, z) == z, (i, key)
        for level, index in tree.counters():
            if (index + 1) << (level - 1) == i:
                # a node closed at i: its stored noise is bit-identical to
                # its creation-time draw and its published value is
                # recomposed as c0 + z
                z = stamped[level, index]
                assert tree.published(level, index) == c0_at(tree, level, index) + z
    assert len(stamped) == 2047  # every node of the tree over [1, 1024]


def test_node_noise_is_drawn_in_creation_order():
    # z depends only on the order in which nodes are created, not on values
    a = make_tree(noisy=True, seed=13)
    b = make_tree(noisy=True, seed=13)
    for i in range(1, 33):
        a.add_path(i, 0.0, 6)
        b.add_path(i, 1.0 if i % 3 else 0.5, 6)
        assert frozen_noise(a) == frozen_noise(b)
    # a growing tree creates, at each position, the nodes closing there,
    # leaf first, as a store of fixed height does, so each node draws the
    # buffer's unit of its creation rank: refills popped from their ends
    src = RandomSource(14)
    units = [u for _ in range(4) for u in reversed(src.laplace_vector(1.0, dyadic._DRAWS))]
    grown = make_tree(noisy=True, seed=14)
    fixed = make_tree(noisy=True, seed=14)
    for i in range(1, 300):
        grown.add_path(i, 1.0, (i - 1).bit_length() + 1)
        fixed.add_path(i, 1.0, block_levels(299))
        zs = frozen_noise(grown)
        assert zs == frozen_noise(fixed)
        for (level, index), z in zs.items():
            k = level - 1
            assert z == units[DyadicTree._creation_rank(k, index << k, block_levels(299))]


@pytest.mark.parametrize("inputs", ["uniform", "eighths"])
@pytest.mark.parametrize("store", ["window", "growing", "running_diff"])
def test_nodes_are_written_once_when_they_close(store, inputs):
    # the store holds closed nodes only; each reads its left child plus its
    # right child, and on multiples of 1/8 the exact sum of its interval
    est = {
        "window": lambda: WindowSum(6, 1.0, RandomSource(1)),
        "growing": lambda: AllWindowSum(1.0, RandomSource(1)),
        "running_diff": lambda: RunningDiffBaseline(5, 200, 1.0, RandomSource(1)),
    }[store]()
    gen = RandomSource(2)
    xs = []
    for i in range(1, 201):
        x = gen.uniform()
        xs.append(int(8 * x) / 8 if inputs == "eighths" else x)
        est.push(xs[-1])
        nodes = est.counters()
        for (level, index), c in nodes.items():
            iv = interval_of(level, index)
            assert iv.u <= i, (i, level, index)
            if (level - 1, 2 * index) in nodes and (level - 1, 2 * index + 1) in nodes:
                assert c == nodes[level - 1, 2 * index] + nodes[level - 1, 2 * index + 1]
            if inputs == "eighths":
                assert c == sum(xs[iv.l - 1 : iv.u]), (i, level, index)


def test_left_ancestor_gaps_grow_geometrically():
    # the k-th smallest left-node ancestor of leaf i ends at least 2**(k-1)-1
    # past i; exhaustive over tree heights up to 10
    for h in range(1, 11):
        size = 1 << (h - 1)
        for i in range(1, size + 1):
            lefts = [iv for iv in path_intervals(i, h) if is_left_node(iv, h)]
            lefts.sort(key=lambda iv: iv.u - iv.l)
            for k, iv in enumerate(lefts, 1):
                assert iv.u - i >= 2 ** (k - 1) - 1


def test_store_keeps_one_node_per_level():
    # after position 5 of the tree over [1, 8], each level holds its newest
    # closed node: the leaf [5, 5], [3, 4] and [1, 4]; the root [1, 8] is
    # created when it closes
    tree = make_tree(noisy=True, seed=3)
    for i in range(1, 6):
        tree.add_path(i, 1.0, 4)
    assert tree.counters() == {(1, 4): 1.0, (2, 1): 2.0, (3, 0): 4.0}
    assert frozen_noise(tree).keys() == tree.counters().keys()


def test_evicted_and_uncreated_nodes_raise():
    # the store keeps one node per level, so a node is evicted when the next
    # on its level is created, when it closes; only each level's newest reads
    tree = make_tree(noisy=True, seed=3)
    for i in range(1, 7):
        tree.add_path(i, 1.0, 4)
    # [5, 6] and [6, 6] closed at 6 and [1, 4] at 4; [5, 8] and [1, 8] are
    # not created yet, older nodes were overwritten, and levels 0, -1 and 5
    # do not exist
    assert tree.published(1, 5) == node(tree, Interval(6, 6)).value
    assert node(tree, Interval(5, 6)).c0 == 2.0
    assert node(tree, Interval(1, 4)).c0 == 4.0
    for level, index in ((1, 4), (1, 0), (1, 6), (2, 1), (2, 3), (3, 1), (4, 0),
                         (5, 0), (0, 0), (-1, 0), (4, -1)):
        with pytest.raises(ValueError):
            tree.published(level, index)
    for i in (5, 6, 2):
        with pytest.raises(ValueError, match="not the next one"):
            tree.add(i, 1.0, [1.0] * 4)  # a position whose nodes the store created
    with pytest.raises(ValueError):
        tree.add_path(2, 1.0, 4)


def test_cursors_refuse_positions_the_store_has_not_received():
    # cursors take the node add_path returns, so the store is what refuses a
    # position it has not received: a node not closed yet, or a position ahead
    aw = AllWindowSum(1.0, RandomSource(0), noisy=False)
    window = WindowCursor(4, block_levels(4))
    prefix = PrefixCursor()
    nodes = [aw.push(1.0) for _ in range(3)]
    assert [window.advance(j, v) for j, v in enumerate(nodes, 1)] == [1.0, 2.0, 3.0]
    assert [prefix.advance(j, v, 1.0) for j, v in enumerate(nodes, 1)] == [1.0, 2.0, 3.0]
    # step 4 would read [1, 4], which closes at 4 and so is open at 3
    with pytest.raises(ValueError, match="level 3, index 0"):
        aw._tree.published(3, 0)
    with pytest.raises(ValueError, match="position 5"):
        aw._tree.add_path(5, 1.0, 4)
    v = aw.push(1.0)
    assert v == aw._tree.published(3, 0) == 4.0
    assert window.advance(4, v) == prefix.advance(4, v, 1.0) == 4.0


def test_published_value_is_sum_of_c0_and_frozen_noise():
    tree = make_tree(noisy=True, seed=9, scale=3.0)
    v1 = tree.add_path(1, 0.0, 1)
    assert tree.published(1, 0) == v1
    view = node(tree, Interval(1, 1))
    assert view.value == view.c0 + view.z
    # add at position 1 creates leaf 0 with the same noise, writes its value
    # once and returns c0 + z; a second add at the same position is refused
    tree = make_tree(noisy=True, seed=9, scale=3.0)
    assert tree.add(1, 2.5, [1.0]) == tree.published(1, 0) == v1 + 2.5
    view = node(tree, Interval(1, 1))
    assert view.c0 == 2.5 and view.value == view.c0 + view.z
    with pytest.raises(ValueError, match="not the next one"):
        tree.add(1, 2.5, [1.0])
    assert tree.published(1, 0) == v1 + 2.5


EQUIVALENCE_ESTIMATORS = {
    **{f"window {W}": lambda rng, noisy, W=W: WindowSum(W, 1.0, rng, noisy=noisy)
       for W in (1, 2, 3, 6, 100, 128, 1000, 1024)},
    "running": lambda rng, noisy: RunningSum(1.0, rng, noisy=noisy),
    "fixed view": lambda rng, noisy: FixedWindowView(6, 1.0, rng, noisy=noisy),
    "running diff": lambda rng, noisy: RunningDiffBaseline(100, 600, 1.0, rng, noisy=noisy),
    "exponential": lambda rng, noisy: ExponentialSum(0.7, 1.0, rng, noisy=noisy),
    "polynomial": lambda rng, noisy: PolynomialSum(2.0, 0.25, 1.0, rng, noisy=noisy),
}


@pytest.mark.parametrize("kind", ["scalar", "lanes"])
@pytest.mark.parametrize("name", list(EQUIVALENCE_ESTIMATORS))
def test_every_estimator_matches_its_full_store_reference(name, kind):
    # the same estimator on a store that keeps every node gives == outputs,
    # and every node the one-slot store holds carries the full store's c0
    # and noise; the streams cross two blocks of every window, and reach
    # fixed view's reads of a block node below the topmost one closed.  On
    # lanes, lane t of the reader is trial t's pushes on the full store.
    make = EQUIVALENCE_ESTIMATORS[name]
    gen = RandomSource(41)
    T = 2400 if name in ("window 1000", "window 1024") else 600
    uniform = [gen.uniform() for _ in range(T)]
    streams = {"binary": [float(x < 0.5) for x in uniform], "uniform": uniform}
    for noisy in (True, False):
        for xs in streams.values():
            if kind == "lanes":
                refs = [on_full_store(lambda rng=rng: make(rng, noisy))
                        for rng in _trials(kind, 42)]
                want = [[ref.push(x) for x in xs] for ref in refs]
                got = make(_source(kind, 42), noisy).estimates_at(xs, range(1, T + 1))
                for j, v in enumerate(got):
                    assert _lanes_equal(v, [w[j] for w in want]), (noisy, j + 1)
                continue
            est = make(_source(kind, 42), noisy)
            ref = on_full_store(lambda: make(_source(kind, 42), noisy))
            tree = est._tree
            full = ref._tree
            assert isinstance(tree, DyadicTree) and isinstance(full, FullStore)
            for i, x in enumerate(xs, 1):
                assert _same(est.push(x), ref.push(x)), (noisy, i)
                zs = frozen_noise(tree)
                assert zs.keys() == tree.counters().keys()
                for (level, index), c in tree.counters().items():
                    assert c == full._c0[level - 1][index], (noisy, i, level, index)
                    assert np.array_equal(zs[level, index], full._z[level - 1][index])


# ---------------------------------------------------------------------------
# the checkpoint reader: window sums at chosen steps, without the steps between

READER_WINDOWS = (1, 2, 3, 6, 100, 128, 1000, 1024)
READER_LENGTHS = (1, 5, 300, 4096)  # below and above every window; not all powers of two
READERS = {
    "window": lambda W, T, rng, noisy: WindowSum(W, 0.7, rng, noisy=noisy),
    "running_diff": lambda W, T, rng, noisy: RunningDiffBaseline(W, T, 0.7, rng, noisy=noisy),
    "running": lambda W, T, rng, noisy: RunningSum(0.7, rng, noisy=noisy),
    "allwindow": lambda W, T, rng, noisy: FixedWindowView(W, 0.7, rng, noisy=noisy),
    # these read no window: at alpha 0.7 the discount underflows to 0.0 on
    # the top levels of the longest stream
    **{f"exp {a}": lambda W, T, rng, noisy, a=a: ExponentialSum(a, 0.7, rng, noisy=noisy)
       for a in (0.7, 0.9, 0.99)},
    **{f"poly {c}, {b}": lambda W, T, rng, noisy, c=c, b=b: PolynomialSum(c, b, 0.7, rng,
                                                                          noisy=noisy)
       for c, b in ((2.0, 0.25), (1.5, 0.5), (2.7, 0.1))},
}


def _lanes_source(lanes, seed):
    if not lanes:
        return RandomSource(seed)
    return RandomLanes(RandomSource(seed).child(t) for t in range(lanes))


def _bits_equal(a, b):
    """Same shape and the same IEEE bit patterns, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _lanes_equal(v, trials):
    """A reader's lane array ``v`` holds each trial's value, bit for bit; a
    noise-free read is one float for every lane."""
    return _bits_equal(np.broadcast_to(v, (len(trials),)), trials)


@pytest.mark.parametrize("lanes", [0, 1, 3], ids=["scalar", "lanes1", "lanes3"])
@pytest.mark.parametrize("name", list(READERS))
def test_checkpoint_reader_equals_per_step_push(name, lanes):
    # at every step of the short streams and the checkpoints of the long one,
    # on bits and on U[0,1), noisy and noise-off, with W below and above T;
    # on lanes, lane t equals the pushes of trial t alone
    make = READERS[name]
    for W in (1,) if name.startswith(("exp", "poly")) else READER_WINDOWS:
        # a poly push costs tens of microseconds, so its long stream is shorter
        for T in (1, 5, 300, 1029) if name.startswith("poly") else READER_LENGTHS:
            gen = np.random.default_rng(W * 7 + T)
            uniform = gen.random(T).tolist()
            steps = list(range(1, T + 1)) if T <= 300 else [1 << k for k in range(T.bit_length())]
            for xs in ([float(x < 0.5) for x in uniform], uniform):
                for noisy in (True, False):
                    per_step = []
                    for rng in _trials("lanes", 5)[:lanes] if lanes else [RandomSource(5)]:
                        est = make(W, T, rng, noisy)
                        per_step.append([est.push(x) for x in xs])
                    got = make(W, T, _lanes_source(lanes, 5), noisy).estimates_at(xs, steps)
                    assert len(got) == len(steps)
                    for j, v in zip(steps, got):
                        want = [p[j - 1] for p in per_step]
                        ok = _lanes_equal(v, want) if lanes else _bits_equal(v, want[0])
                        assert ok, (W, T, noisy, j)


@pytest.mark.parametrize("lanes", [0, 3], ids=["scalar", "lanes"])
@pytest.mark.parametrize("height, T", [(1, 5), (3, 37), (8, 300), (13, 300),
                                       (None, 37), (None, 300), (None, 1024)])
def test_creation_rank_gives_every_node_its_full_store_sum_and_noise(height, T, lanes):
    # a store that keeps every node, fed at a constant height as the window
    # trees are, or at (i - 1).bit_length() + 1 as the growing trees are,
    # which takes the ranks of block_levels(T) levels: each node's noise is
    # its level's scale times the unit of its creation rank, and its c0 is
    # the level's pairwise sum.  On lanes, lane t of the units read is the
    # noise of trial t's full store.
    gen = RandomSource(43)
    xs = [gen.uniform() for _ in range(T)]
    fulls = [FullStore(RandomSource(44).child(t) if lanes else RandomSource(44),
                       lambda level: 0.5 + level) for t in range(lanes or 1)]
    for full in fulls:
        for i, x in enumerate(xs, 1):
            full.add_path(i, x, height or (i - 1).bit_length() + 1)
    height = height or block_levels(T)
    sums = dyadic._level_sums(np.asarray(xs), [1.0] * height)
    ranks = {
        (k, index): DyadicTree._creation_rank(k, index << k, height)
        for k, zs in enumerate(fulls[0]._z) for index in zs
    }
    assert sorted(ranks.values()) == list(range(len(ranks)))  # every creation, once
    units = dyadic._units_at(_lanes_source(lanes, 44), ranks.values())
    for (k, index), r in ranks.items():
        zs = [full._z[k][index] for full in fulls]
        assert _bits_equal(zs if lanes else zs[0], (1.5 + k) * units[r]), (k, index)
        assert all(full._c0[k][index] == sums[k][index] for full in fulls), (k, index)


class _NegativeZeros:
    """A source whose every unit Laplace draw is -0.0."""

    def laplace_vector(self, b, n):
        return np.full(n, -0.0)

    def laplace_rows(self, b, n, rows):
        return np.full(len(rows), -0.0)


@pytest.mark.parametrize("name", list(READERS))
def test_checkpoint_reader_starts_every_fold_at_zero(name):
    # -0.0 updates and -0.0 noise publish every node as -0.0, which only the
    # cursor's 0.0 + turns into 0.0; the reader must repeat it bit for bit
    xs = [-0.0] * 40
    steps = list(range(1, 41))
    est = READERS[name](3, 40, _NegativeZeros(), True)
    per_step = [est.push(x) for x in xs]
    got = READERS[name](3, 40, _NegativeZeros(), True).estimates_at(xs, steps)
    for j, v in zip(steps, got):
        assert _bits_equal(v, per_step[j - 1]), j
    assert not np.signbit(got[0])


@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
@pytest.mark.parametrize("name", list(READERS))
def test_checkpoint_reader_refuses_a_bad_update_before_drawing_noise(name, bad):
    rng = RandomSource(8)
    est = READERS[name](3, 10, rng, True)
    with pytest.raises(ValueError, match=r"update must lie in \[0, 1\]"):
        est.estimates_at([0.5] * 9 + [bad], [1, 2])
    assert _bits_equal(rng.laplace_vector(1.0, 4), RandomSource(8).laplace_vector(1.0, 4))


@pytest.mark.parametrize("name", list(READERS))
def test_checkpoint_reader_reads_only_a_fresh_estimator_once(name):
    xs = [0.5] * 10
    pushed = READERS[name](3, 10, RandomSource(8), True)
    pushed.push(0.5)
    with pytest.raises(ValueError, match="fresh"):
        pushed.estimates_at(xs, [1])
    read = READERS[name](3, 10, RandomSource(8), True)
    read.estimates_at(xs, [4])
    with pytest.raises(ValueError):
        read.push(0.5)  # its noise is used up
    with pytest.raises(ValueError, match="fresh"):
        read.estimates_at(xs, [4])
    with pytest.raises(ValueError):
        READERS[name](3, 10, RandomSource(8), True).estimates_at(xs, [11])


def _state(obj):
    """A copy of ``vars(obj)``: containers by value, anything else as is."""
    return {k: copy.deepcopy(v) if isinstance(v, (list, dict, deque, array)) else v
            for k, v in vars(obj).items()}


@pytest.mark.parametrize("n", [1, 3, 4])
@pytest.mark.parametrize("name", ["window", "running_diff", "running", "allwindow", "exp 0.9",
                                  "poly 2.0, 0.25"])
def test_a_push_after_a_read_is_refused_by_the_store_with_no_state_changed(name, n):
    # the store's received is the estimator's one step count: after a read
    # it holds n and no node, and the next write is refused before it
    # changes the estimator, its store or its noise
    est = READERS[name](3, 10, RandomSource(8), True)
    est.estimates_at([0.25, 1.0, 0.5, 0.0][:n], [n])
    before = _state(est), _state(est._tree)
    with pytest.raises(ValueError, match="estimates_at"):
        est.push(0.5)
    assert (_state(est), _state(est._tree)) == before
    assert est._tree.received == n


@pytest.mark.parametrize("name", ["window", "running_diff", "running", "allwindow", "exp 0.9",
                                  "poly 2.0, 0.25"])
def test_a_push_on_lanes_is_refused_and_the_lanes_are_read(name):
    # lanes are read by estimates_at only: the first push refills the empty
    # buffer of unit draws, and the refill refuses a lane source
    make = READERS[name]
    with pytest.raises(ValueError, match="estimates_at"):
        make(3, 40, _lanes_source(2, 6), True).push(0.5)
    xs = [0.25, 1.0, 0.0, 0.5] * 10
    trials = []
    for rng in (RandomSource(6).child(t) for t in range(2)):
        est = make(3, 40, rng, True)
        trials.append([est.push(x) for x in xs])
    got = make(3, 40, _lanes_source(2, 6), True).estimates_at(xs, [1, 7, 40])
    for j, v in zip([1, 7, 40], got):
        assert _lanes_equal(v, [p[j - 1] for p in trials]), j
