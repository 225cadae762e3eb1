import math

import numpy as np
import pytest
from dyadic_reference import (
    EagerExponentialSum,
    Interval,
    age_tiling,
    block_node,
    decompose_nodes,
    frozen_noise,
    levels_reached,
    node,
    on_full_store,
    prefix_value,
    window_query,
)

from decaystream import dyadic
from decaystream.bounds import worst_noise_profile
from decaystream.dyadic import WindowCursor, block_levels
from decaystream.mechanisms import (
    AllWindowSum,
    DecaySpec,
    ExponentialSum,
    FixedWindowView,
    PolynomialSum,
    RunningSum,
    WindowSum,
    exp_decay_sensitivity,
    make_mechanism,
    poly_read_ages,
)
from decaystream.noise import SCHEDULE_BETA, RandomLanes, RandomSource, level_epsilons


def brute_window(xs, j, W):
    return sum(xs[i] for i in range(max(0, j - W), j))


def brute_exp(xs, j, alpha):
    return sum(xs[i] * alpha ** (j - 1 - i) for i in range(j))


def brute_poly(xs, j, c):
    return sum(xs[i] * (j - i) ** -c for i in range(j))


def random_stream(seed, T, binary=True):
    gen = RandomSource(seed)
    if binary:
        return [1.0 if gen.uniform() < 0.5 else 0.0 for _ in range(T)]
    return [gen.uniform() for _ in range(T)]


# ---------------------------------------------------------------------------
# window sum


def test_window_counter_scale_and_sizes():
    assert WindowSum(4, 1.0, RandomSource(0)).counter_scale == 3.0
    assert WindowSum(1, 2.0, RandomSource(0)).counter_scale == 0.5


def test_window_takes_any_size():
    # blocks of W' = 2**ceil(log2 W): log2 W' + 1 counters per update
    for W, levels in ((3, 3), (6, 4), (100, 8), (1000, 11)):
        w = WindowSum(W, 2.0, RandomSource(0))
        assert (w.sensitivity, w.counter_scale) == (levels, levels / 2.0)
    with pytest.raises(ValueError, match="window size"):
        WindowSum(0, 1.0, RandomSource(0))


def test_window_rejects_out_of_range_updates():
    w = WindowSum(4, 1.0, RandomSource(0))
    with pytest.raises(ValueError):
        w.push(1.5)
    with pytest.raises(ValueError):
        w.push(-0.1)


def test_window_size_one_reduces_to_noisy_item():
    w = WindowSum(1, 1.0, RandomSource(0), noisy=False)
    assert [w.push(x) for x in (0.3, 0.7, 0.0)] == [0.3, 0.7, 0.0]


def test_window_cross_block_trace():
    w = WindowSum(4, 1.0, RandomSource(0), noisy=False)
    outs = [w.push(float(x)) for x in (1, 0, 1, 1, 0, 1, 1)]
    assert outs == [1, 1, 2, 3, 2, 3, 3]
    assert outs[-1] == 3  # x4 + x5 + x6 + x7


def test_window_estimate_composes_block_counters():
    # at step 7 with W=4 the estimate must equal
    # c[1,4] - (c[1,2] + c[3,3]) + (c[5,6] + c[7,7]) over published values,
    # read from a same-seed estimator whose store keeps every node
    w = WindowSum(4, 1.0, RandomSource(5), noisy=True)
    ref = on_full_store(lambda: WindowSum(4, 1.0, RandomSource(5), noisy=True))
    xs = [1, 0, 1, 1, 0, 1, 1]
    est = None
    for x in xs:
        est = w.push(float(x))
        ref.push(float(x))
    val = lambda l, u: node(ref._tree, Interval(l, u)).value
    assert est == pytest.approx(
        val(1, 4) - (val(1, 2) + val(3, 3)) + (val(5, 6) + val(7, 7)), abs=1e-12
    )


def test_window_saturates_on_ones():
    w = WindowSum(8, 1.0, RandomSource(0), noisy=False)
    outs = [w.push(1.0) for _ in range(40)]
    assert all(o == 8.0 for o in outs[8:])


def test_window_matches_brute_force_noiseless():
    for seed in range(5):
        xs = random_stream(seed, 200, binary=False)
        for W in (1, 3, 4, 6, 32, 100):
            w = WindowSum(W, 1.0, RandomSource(seed), noisy=False)
            for j, x in enumerate(xs, 1):
                assert w.push(x) == pytest.approx(brute_window(xs, j, W), abs=1e-9)


def test_window_keeps_one_node_per_level():
    # each level of the block tree holds one node, its newest closed one, so
    # at most log2 W' + 1 counters stay live beside the cursor's W queued values
    for W in (8, 3, 6, 100, 1000):
        Wp = 1 << (W - 1).bit_length()
        xs = random_stream(W, 5 * Wp, binary=False)
        csum = np.concatenate([[0.0], np.cumsum(xs)])
        w = WindowSum(W, 1.0, RandomSource(1), noisy=False)
        for i, x in enumerate(xs, 1):
            assert w.push(x) == pytest.approx(csum[i] - csum[max(0, i - W)], abs=1e-9)
            nodes = w.counters()
            levels = min(w._h, i.bit_length())
            assert sorted(level for level, _ in nodes) == list(range(1, levels + 1)), (W, i)
            assert all((i >> (level - 1)) - 1 == index for level, index in nodes), (W, i)


# ---------------------------------------------------------------------------
# all-window / running sum


def test_allwindow_tree_doubles_with_stream():
    aw = AllWindowSum(1.0, RandomSource(0), noisy=False)
    for _ in range(3):
        aw.push(1.0)
    assert levels_reached(aw._tree) == 3  # the tree over [1, 4]
    assert (3, 0) not in aw.counters()  # the root [1, 4] is created when it closes
    aw.push(1.0)
    assert aw.counters()[(3, 0)] == 4.0  # it closes with its right child
    aw.push(1.0)
    assert levels_reached(aw._tree) == 4  # doubled: the tree over [1, 8]
    assert (4, 0) not in aw.counters()
    for _ in range(3):
        aw.push(1.0)
    assert aw.counters()[(4, 0)] == 8.0


@pytest.mark.parametrize("make", [
    lambda rng: AllWindowSum(1.0, rng),
    lambda rng: RunningSum(1.0, rng),
    lambda rng: FixedWindowView(6, 1.0, rng),
    lambda rng: PolynomialSum(2.0, 0.5, 1.0, rng),
], ids=["allwindow", "running", "fixed view", "poly"])
def test_growing_trees_draw_each_level_at_the_one_schedule_scale(make):
    # eps_k = 6 eps / (pi**2 k**2), the schedule worst_noise_profile assumes
    est = make(RandomSource(0))
    for _ in range(4096):
        est.push(0.5)
    tree = est._tree
    eps = level_epsilons(1.0, SCHEDULE_BETA, levels_reached(tree))
    assert levels_reached(tree) == 13
    assert tree._scale == [1.0 / e for e in eps]
    assert eps == pytest.approx([6.0 / (math.pi**2 * k * k) for k in range(1, 14)], rel=1e-12)
    assert sum(eps) < 1.0


@pytest.mark.parametrize("beta", [1.5, 2.0, 3.0])
def test_allwindow_store_draws_each_level_at_its_schedule_scale(beta):
    # every exponent > 1 splits eps into a valid budget, but the store draws
    # the one schedule's scales, not the split another exponent would give
    aw = AllWindowSum(1.0, RandomSource(0))
    for _ in range(4096):
        aw.push(0.5)
    tree = aw._tree
    eps = level_epsilons(1.0, beta, levels_reached(tree))
    assert levels_reached(tree) == 13
    assert sum(eps) < 1.0
    assert (tree._scale == [1.0 / e for e in eps]) == (beta == SCHEDULE_BETA)


def walk(tree, W, j):
    """A fresh W-window cursor's value at step j, walked over a store that
    keeps every node."""
    cursor = WindowCursor(W, block_levels(W))
    for step in range(1, j + 1):
        value = cursor.advance(block_node(tree, step, W))
    return value


def test_allwindow_query_examples():
    aw = on_full_store(lambda: AllWindowSum(1.0, RandomSource(0), noisy=False))
    for _ in range(8):
        aw.push(1.0)
    tree = aw._tree
    assert walk(tree, 3, 8) == pytest.approx(3.0, abs=1e-12)
    assert walk(tree, 8, 8) == pytest.approx(prefix_value(tree, 8), abs=1e-12)
    assert walk(tree, 9, 5) == pytest.approx(prefix_value(tree, 5), abs=1e-12)


def test_allwindow_query_matches_brute_force_all_windows():
    # fixed sizes stream along with the tree, each cursor fed its block's
    # node ending at j; a random size per step is read by a fresh cursor
    # walked up to that step over a same-seed store that keeps every node
    xs = random_stream(3, 128, binary=False)
    aw = AllWindowSum(1.0, RandomSource(3), noisy=False)
    ref = on_full_store(lambda: AllWindowSum(1.0, RandomSource(3), noisy=False))
    fixed = {W: WindowCursor(W, block_levels(W)) for W in (1, 2, 5, 8, 13)}
    gen = RandomSource(77)
    for j, x in enumerate(xs, 1):
        aw.push(x)
        ref.push(x)
        for W, cursor in fixed.items():
            got = cursor.advance(block_node(aw._tree, j, W))
            assert got == pytest.approx(brute_window(xs, j, W), abs=1e-9), (j, W)
        W = int(gen.uniform() * j) + 1
        assert walk(ref._tree, W, j) == pytest.approx(
            brute_window(xs, j, W), abs=1e-9
        ), (j, W)


def test_allwindow_query_validation():
    aw = AllWindowSum(1.0, RandomSource(0))
    aw.push(1.0)
    cursor = WindowCursor(1, block_levels(1))
    cursor.advance(block_node(aw._tree, 1, 1))
    with pytest.raises(ValueError):
        block_node(aw._tree, 2, 1)  # beyond current step: leaf 2 was never created
    with pytest.raises(ValueError):
        WindowCursor(0, block_levels(0))
    with pytest.raises(ValueError, match="3 levels is shorter than a window of 5"):
        WindowCursor(5, 3)  # a window of 5 needs blocks of 8
    with pytest.raises(ValueError):
        aw.push(2.0)


def test_running_sum_examples():
    r = RunningSum(1.0, RandomSource(0), noisy=False)
    assert [r.push(x) for x in (1.0, 0.0, 1.0)] == [1.0, 1.0, 2.0]
    assert prefix_value(r._tree, 0) == 0.0


def test_running_sum_matches_prefix_oracle():
    xs = random_stream(9, 256)
    r = RunningSum(1.0, RandomSource(9), noisy=False)
    prefix = 0.0
    for x in xs:
        prefix += x
        assert r.push(x) == pytest.approx(prefix, abs=1e-9)


def test_fixed_window_view_matches_oracle():
    xs = random_stream(4, 100, binary=False)
    v = FixedWindowView(5, 1.0, RandomSource(4), noisy=False)
    for j, x in enumerate(xs, 1):
        assert v.push(x) == pytest.approx(brute_window(xs, j, 5), abs=1e-9)


def test_fixed_window_view_keeps_one_node_per_level():
    # the view's estimates are the window queries of a same-seed tree that
    # keeps every node, while its own tree keeps one node per level
    W = 1000
    v = FixedWindowView(W, 1.0, RandomSource(9))
    aw = on_full_store(lambda: AllWindowSum(1.0, RandomSource(9)))
    gen = RandomSource(10)
    for step in range(1, 20_001):
        x = gen.uniform()
        aw.push(x)
        assert v.push(x) == window_query(aw._tree, step, W)
        levels = [level for level, _ in v.counters()]
        assert levels == list(range(1, step.bit_length() + 1)), step
    assert len(aw.counters()) == sum(20_000 >> k for k in range(15))  # the full store keeps all


# ---------------------------------------------------------------------------
# exponential decay


def test_exp_requires_narrow_alpha():
    for alpha in (0.5, 2.0 / 3.0, 1.0, 1.2):
        with pytest.raises(ValueError):
            ExponentialSum(alpha, 1.0, RandomSource(0))


def test_exp_sensitivity_closed_form():
    expected = (1.0 / (0.9 * math.log(2))) * (
        math.log(2 * 0.9 / 0.1) + 0.5 + math.log(2)
    )
    assert exp_decay_sensitivity(0.9) == pytest.approx(expected, rel=1e-12)
    assert exp_decay_sensitivity(0.9) == pytest.approx(6.545858, abs=1e-5)
    expected99 = (1.0 / (0.99 * math.log(2))) * (
        math.log(2 * 0.99 / 0.01) + 0.5 + math.log(2)
    )
    assert exp_decay_sensitivity(0.99) == pytest.approx(expected99, rel=1e-12)
    assert exp_decay_sensitivity(0.9) < exp_decay_sensitivity(0.99)


def test_exp_trace_on_ones():
    m = ExponentialSum(0.75, 1.0, RandomSource(0), noisy=False)
    assert [m.push(1.0) for _ in range(3)] == [1.0, 1.75, 2.3125]


def test_exp_zero_stream_stays_zero():
    m = ExponentialSum(0.9, 1.0, RandomSource(0), noisy=False)
    assert all(m.push(0.0) == 0.0 for _ in range(50))


def test_exp_matches_brute_force_noiseless():
    for seed, alpha in [(0, 0.7), (1, 0.9), (2, 0.99)]:
        xs = random_stream(seed, 300, binary=False)
        m = ExponentialSum(alpha, 1.0, RandomSource(seed), noisy=False)
        for j, x in enumerate(xs, 1):
            assert m.push(x) == pytest.approx(brute_exp(xs, j, alpha), abs=1e-9)


def test_exp_keeps_one_node_per_level():
    m = ExponentialSum(0.9, 1.0, RandomSource(0))
    for i in range(1, 3000):
        m.push(1.0)
        levels = [level for level, _ in m.counters()]
        assert len(levels) == len(set(levels))  # at most one node per level
    assert len(m.counters()) <= levels_reached(m._tree)


@pytest.mark.parametrize("lanes", [False, True], ids=["scalar", "lanes"])
@pytest.mark.parametrize("alpha, T", [(0.7, 1 << 14), (0.9, 1 << 15)])
def test_exp_draws_the_noise_of_the_eager_reference(alpha, T, lanes):
    def source():
        if lanes:
            return RandomLanes(RandomSource(21).child(t) for t in range(4))
        return RandomSource(21)

    xs = random_stream(13, T, binary=False)
    new, ref = ExponentialSum(alpha, 1.0, source()), EagerExponentialSum(alpha, 1.0, source())
    off = ExponentialSum(alpha, 1.0, source(), noisy=False)
    off_ref = EagerExponentialSum(alpha, 1.0, source(), noisy=False)
    seen = {}
    for i, x in enumerate(xs, 1):
        for a, b in ((new, ref), (off, off_ref)):
            got, want = a.push(x), b.push(x)
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), i
        seen.update(new.counters())
        if i % 1000 == 0 or i == T:
            # each level's newest node carries the noise the reference drew
            za, zb = frozen_noise(new._tree), ref._tree._z
            assert all(np.array_equal(z, zb[k - 1][index]) for (k, index), z in za.items()), i
    # every node is its level's newest for a while: both created the same
    assert seen.keys() == frozen_noise(ref._tree).keys()


@pytest.mark.parametrize("lanes", [0, 3], ids=["scalar", "lanes"])
@pytest.mark.parametrize("alpha", [0.7, 0.99])
def test_exp_node_closing_at_each_step_draws_that_steps_unit(alpha, lanes):
    # each left node is created when it closes, one per step, so the node
    # closing at step i takes the store's unit draw of rank i - 1
    def source():
        if lanes:
            return RandomLanes(RandomSource(23).child(t) for t in range(lanes))
        return RandomSource(23)

    T = 3000
    units = dyadic._units_at(source(), range(T))
    m = ExponentialSum(alpha, 1.0, source())
    for i, x in enumerate(random_stream(17, T, binary=False), 1):
        m.push(x)
        level = (i & -i).bit_length()
        index = (i >> (level - 1)) - 1
        assert m._tree._index[level - 1] == index, i
        z = frozen_noise(m._tree)[level, index]
        assert np.array_equal(z, m.counter_scale * units[i - 1]), i


# ---------------------------------------------------------------------------
# polynomial decay


def test_poly_child_windows():
    m = PolynomialSum(2.0, 0.75, 1.0, RandomSource(0), noisy=False)
    for _ in range(10):
        m.push(1.0)
    # rho = 1: a node of length L is admitted from newest age L - 1 on, so
    # the ends 10, 9, 8, 6, 4 take [10], [9], [7, 8], [5, 6], [1, 4]
    assert m.child_windows() == [1, 1, 2, 2, 4]


def test_poly_sandwich_on_ones():
    m = PolynomialSum(2.0, 0.75, 1.0, RandomSource(0), noisy=False)
    outs = [m.push(1.0) for _ in range(3)]
    exact = brute_poly([1.0] * 3, 3, 2.0)
    assert exact == pytest.approx(1 + 1 / 4 + 1 / 9, rel=1e-12)
    assert (1 - 0.75) * exact - 1e-9 <= outs[-1] <= exact + 1e-9


def test_poly_noiseless_output_within_band_everywhere():
    for seed, (c, beta) in enumerate([(1.5, 0.25), (2.0, 0.5), (4.0, 0.25)]):
        xs = random_stream(seed, 300)
        m = PolynomialSum(c, beta, 1.0, RandomSource(seed), noisy=False)
        for j, x in enumerate(xs, 1):
            out = m.push(x)
            exact = brute_poly(xs, j, c)
            assert (1 - beta) * exact - 1e-9 <= out <= exact + 1e-9, (j, c, beta)


def test_poly_tiling_weights_reproduce_noiseless_output():
    # the reference walks the tiling rule on its own; each node's newest age
    # lies in its level's read range, every age's weight is within
    # (1 - beta) of its decay weight, and on a binary stream each
    # node's sum is exact, so the noise-off output is the same float sum of
    # node sums times weights, youngest node first
    for c, beta in ((2.0, 0.5), (1.5, 0.25), (2.0, 0.75), (4.0, 0.25)):
        xs = random_stream(42, 300)
        m = PolynomialSum(c, beta, 1.0, RandomSource(42), noisy=False)
        for j, x in enumerate(xs, 1):
            out = m.push(x)
            tiles = age_tiling(j, c, beta)
            assert m.child_windows() == [iv.u - iv.l + 1 for iv, _ in tiles]
            want = 0.0
            for iv, weight in tiles:
                want += sum(xs[iv.l - 1 : iv.u]) * weight
                lo, hi = poly_read_ages(c, beta, (iv.u - iv.l + 1).bit_length())
                assert lo <= j - iv.u < hi, (c, beta, j, iv)
                for age in range(j - iv.u, j - iv.l + 1):
                    exact = (age + 1.0) ** -c
                    assert (1 - beta) * exact <= weight <= exact, (c, beta, j, age)
            assert out == want, (c, beta, j)


def poly_archive_bound(c, beta, levels):
    """Values the polynomial sum's archive may hold on levels 1..levels: a
    level-k node (length L) is archived when it closes and dropped once its
    newest age reaches hi_k, so at most ceil(hi_k / L) + 1 per level."""
    return [math.ceil(poly_read_ages(c, beta, k)[1] / (1 << (k - 1))) + 1
            for k in range(1, levels + 1)]


def test_poly_live_counters_grow_by_a_bounded_number_per_doubling():
    # the tree keeps one node per level, and the archive keeps fewer than
    # 2 / rho + 3 values per level, as hi_k <= L (1 + 2 / rho); the
    # all-window tree alone would keep 2T
    c, beta = 2.0, 0.25
    rho = (1.0 - beta) ** (-1.0 / c) - 1.0
    per_level = 2.0 / rho + 3.0
    m = PolynomialSum(c, beta, 1.0, RandomSource(0), noisy=False)
    bound = poly_archive_bound(c, beta, 16)
    live = {}
    for i in range(1, 2**15 + 1):
        m.push(1.0)
        sizes = [len(values) for values in m._archive]
        assert all(n <= b for n, b in zip(sizes, bound)), i
        if i in (2**12, 2**15):
            assert len(m.counters()) == i.bit_length(), i  # the levels of [1, i]
            live[i] = sum(sizes)
            assert live[i] < i.bit_length() * per_level, i
    assert max(bound) < per_level
    assert live[2**15] - live[2**12] < 3 * per_level


# ---------------------------------------------------------------------------
# unbiasedness (noise on)


def _window_sigma_at(j, W, eps):
    # number of published terms at step j: block-k prefix plus (if partial)
    # previous block total and prefix
    p = j - ((j - 1) // W) * W
    terms = bin(p).count("1")
    if j > W and p != W:
        terms += bin(p).count("1") + bin(W).count("1")
    scale = (math.log2(W) + 1.0) / eps
    return scale * math.sqrt(2.0 * terms)


def test_window_estimates_unbiased():
    W, j_star, trials = 8, 12, 20000
    xs = random_stream(5, j_star)
    exact = brute_window(xs, j_star, W)
    base = RandomSource(17)
    w = WindowSum(W, 1.0, RandomLanes(base.child(t) for t in range(trials)))
    for x in xs:
        est = w.push(x)
    errs = est - exact
    se = _window_sigma_at(j_star, W, 1.0) / math.sqrt(trials)
    assert abs(errs.mean()) < 5.0 * se


def test_exp_estimates_unbiased():
    alpha, j_star, trials = 0.75, 10, 20000
    xs = random_stream(6, j_star)
    exact = brute_exp(xs, j_star, alpha)
    # theoretical sigma from the tiling of [1, j]: weights alpha^(j - right)
    probe = ExponentialSum(alpha, 1.0, RandomSource(0), noisy=False)
    for x in xs:
        probe.push(x)
    weights = [
        alpha ** (j_star - right)
        for _, _, right in decompose_nodes(j_star)
    ]
    sigma = probe.counter_scale * math.sqrt(2.0 * sum(w * w for w in weights))
    base = RandomSource(18)
    m = ExponentialSum(alpha, 1.0, RandomLanes(base.child(t) for t in range(trials)))
    for x in xs:
        est = m.push(x)
    errs = est - exact
    assert abs(errs.mean()) < 5.0 * sigma / math.sqrt(trials)


def test_poly_estimates_unbiased_for_band_target():
    c, beta, j_star, trials = 2.0, 0.5, 9, 20000
    xs = random_stream(7, j_star)
    ref = PolynomialSum(c, beta, 1.0, RandomSource(0), noisy=False)
    for x in xs:
        target = ref.push(x)  # the tiled approximant F'
    # upper bound on the estimate's noise standard deviation
    sigma = worst_noise_profile(DecaySpec.polynomial(c, beta), 1.0, j_star).sigma
    base = RandomSource(19)
    m = PolynomialSum(c, beta, 1.0, RandomLanes(base.child(t) for t in range(trials)))
    for x in xs:
        est = m.push(x)
    errs = est - target
    assert abs(errs.mean()) < 5.0 * sigma / math.sqrt(trials)


# ---------------------------------------------------------------------------
# estimates only read counters frozen by their step


def test_estimate_terms_end_at_or_before_step():
    gen = RandomSource(55)
    for j in range(1, 200):
        assert all(right <= j for _, _, right in decompose_nodes(j))
        W = int(gen.uniform() * j) + 1
        Wp = 1 << (W - 1).bit_length()
        k = -(-j // Wp)
        for _, _, right in decompose_nodes(j, base=(k - 1) * Wp + 1):
            assert right <= j


# ---------------------------------------------------------------------------
# factory


def test_factory_routes_window_sizes():
    assert isinstance(
        make_mechanism(DecaySpec.window(8), 1.0, RandomSource(0)), WindowSum
    )
    for W in (3, 6, 100, 1000):  # any size: blocks of 2**ceil(log2 W)
        assert isinstance(make_mechanism(DecaySpec.window(W), 1.0, RandomSource(0)), WindowSum)
    assert isinstance(
        make_mechanism(DecaySpec.exponential(0.9), 1.0, RandomSource(0)),
        ExponentialSum,
    )
    assert isinstance(
        make_mechanism(DecaySpec.polynomial(2.0, 0.5), 1.0, RandomSource(0)),
        PolynomialSum,
    )
    assert isinstance(
        make_mechanism(DecaySpec.running(), 1.0, RandomSource(0)), RunningSum
    )


def test_decay_spec_validation_and_weights():
    with pytest.raises(ValueError):
        DecaySpec.window(0)
    with pytest.raises(ValueError):
        DecaySpec.exponential(1.0)
    with pytest.raises(ValueError):
        DecaySpec.polynomial(0.5, 0.5)
    with pytest.raises(ValueError):
        DecaySpec("nonsense")
    w = DecaySpec.window(3)
    assert [w.weight(a) for a in range(4)] == [1.0, 1.0, 1.0, 0.0]
    assert DecaySpec.exponential(0.5).weight(2) == 0.25
    assert DecaySpec.polynomial(2.0, 0.5).weight(2) == pytest.approx(1 / 9)
    assert DecaySpec.running().cumulative(7) == 7.0
    assert DecaySpec.window(3).cumulative(10) == 3.0


def _lane_factories():
    from decaystream.baselines import RandomizedResponse, RunningDiffBaseline

    return {
        "window": lambda rng: WindowSum(8, 1.0, rng),
        "window 6": lambda rng: WindowSum(6, 1.0, rng),
        "fixed view": lambda rng: FixedWindowView(6, 1.0, rng),
        "running": lambda rng: RunningSum(1.0, rng),
        "exponential": lambda rng: ExponentialSum(0.9, 1.0, rng),
        "polynomial": lambda rng: PolynomialSum(2.0, 0.5, 1.0, rng),
        "running diff": lambda rng: RunningDiffBaseline(8, 300, 1.0, rng),
        "randomized response": lambda rng: RandomizedResponse(DecaySpec.window(8), 0.5, rng),
    }


@pytest.mark.parametrize("name", list(_lane_factories()))
def test_lanes_repeat_scalar_trials_at_every_step(name):
    # lane t of an estimator on RandomLanes outputs, at every step, exactly
    # what the same estimator on source t alone outputs; 300 steps refill
    # each store's buffer of 256 unit draws
    make = _lane_factories()[name]
    xs = random_stream(12, 300)
    lanes = make(RandomLanes(RandomSource(8).child(t) for t in range(4)))
    alone = [make(RandomSource(8).child(t)) for t in range(4)]
    for i, x in enumerate(xs, 1):
        assert lanes.push(x).tolist() == [m.push(x) for m in alone], (name, i)


def test_noise_does_not_depend_on_the_data():
    # under one seed, noisy minus noise-off output is the same sequence on
    # two neighbouring streams: every node's noise draw is data-independent
    from decaystream.baselines import RunningDiffBaseline

    factories = {
        "window": lambda noisy: WindowSum(8, 1.0, RandomSource(1), noisy=noisy),
        "window 6": lambda noisy: WindowSum(6, 1.0, RandomSource(2), noisy=noisy),
        "fixed view": lambda noisy: FixedWindowView(6, 1.0, RandomSource(3), noisy=noisy),
        "running": lambda noisy: RunningSum(1.0, RandomSource(4), noisy=noisy),
        "exponential": lambda noisy: ExponentialSum(0.9, 1.0, RandomSource(5), noisy=noisy),
        "polynomial": lambda noisy: PolynomialSum(
            2.0, 0.5, 1.0, RandomSource(6), noisy=noisy
        ),
        "running diff": lambda noisy: RunningDiffBaseline(
            8, 200, 1.0, RandomSource(7), noisy=noisy
        ),
    }
    xs = random_stream(10, 200)
    for pos in (0, 37, 199):
        ys = list(xs)
        ys[pos] = 1.0 - ys[pos]
        for name, make in factories.items():
            noise = []
            for stream in (xs, ys):
                noisy, exact = make(True), make(False)
                noise.append([noisy.push(x) - exact.push(x) for x in stream])
            assert noise[0] == pytest.approx(noise[1], abs=1e-9), (name, pos)


@pytest.mark.parametrize("eps", [math.inf, 0.0, -1.0, math.nan], ids=["inf", "0", "-1", "nan"])
def test_every_estimator_refuses_an_epsilon_that_is_not_finite_and_positive(eps):
    # an infinite budget would publish noise-free values
    from decaystream.baselines import RunningDiffBaseline, rr_flip_parameter
    from decaystream.bench import ExperimentConfig
    from decaystream.extensions import DecayedHistogram, DistinctCount, KSensitiveStream

    rng = RandomSource(0)
    builders = [
        lambda: WindowSum(4, eps, rng),
        lambda: AllWindowSum(eps, rng),
        lambda: RunningSum(eps, rng),
        lambda: FixedWindowView(4, eps, rng),
        lambda: ExponentialSum(0.9, eps, rng),
        lambda: PolynomialSum(2.0, 0.5, eps, rng),
        lambda: RunningDiffBaseline(4, 16, eps, rng),
        lambda: rr_flip_parameter(eps),
        lambda: KSensitiveStream(lambda u: 1.0, 2, DecaySpec.running(), eps, rng),
        lambda: DistinctCount(eps, rng),
        lambda: DecayedHistogram(DecaySpec.window(4), eps, rng),
        lambda: ExperimentConfig(mech="running", epsilon=eps),
        *[lambda decay=decay: make_mechanism(decay, eps, rng) for decay in (
            DecaySpec.window(4), DecaySpec.exponential(0.9), DecaySpec.polynomial(2.0, 0.5),
            DecaySpec.running())],
    ]
    for build in builders:
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            build()
