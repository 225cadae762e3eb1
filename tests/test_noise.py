import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta as scipy_zeta

from decaystream.dyadic import _DRAWS
from decaystream.noise import (
    LaplaceScale,
    RandomLanes,
    RandomSource,
    laplace_from_uniform,
    laplace_sample,
    level_epsilons,
    zeta,
)


def test_inverse_cdf_midpoint_is_zero():
    assert laplace_from_uniform(0.0, 3.7) == 0.0


def test_inverse_cdf_sign_and_symmetry():
    assert laplace_from_uniform(0.3, 1.0) > 0.0
    assert laplace_from_uniform(-0.3, 1.0) == -laplace_from_uniform(0.3, 1.0)


def test_inverse_cdf_rejects_bad_args():
    with pytest.raises(ValueError):
        laplace_from_uniform(0.5, 1.0)
    with pytest.raises(ValueError):
        laplace_from_uniform(0.0, 0.0)


def test_laplace_variance_within_two_percent():
    rng = RandomSource(123)
    draws = rng.laplace_vector(1.0, 10**6)
    var = float(np.var(draws))
    assert abs(var - 2.0) < 0.02 * 2.0


def test_laplace_mean_close_to_zero():
    # standard error of the mean is b*sqrt(2)/1e3 for 1e6 draws
    for seed, b in [(0, 1.0), (99, 5.0)]:
        rng = RandomSource(seed)
        draws = rng.laplace_vector(b, 10**6)
        assert abs(float(np.mean(draws))) < 5.0 * b * math.sqrt(2.0) / 1e3


def test_same_seed_same_draws():
    a = RandomSource(42)
    b = RandomSource(42)
    assert [a.laplace(1.0) for _ in range(100)] == [b.laplace(1.0) for _ in range(100)]
    assert a.uniform() == b.uniform()


def test_scalar_and_sample_agree_with_scale_type():
    rng = RandomSource(7)
    ref = RandomSource(7)
    assert laplace_sample(rng, LaplaceScale(2.0)) == ref.laplace(2.0)


def test_child_streams_differ():
    base = RandomSource(5)
    a = base.child(0).laplace_vector(1.0, 10**4)
    b = base.child(1).laplace_vector(1.0, 10**4)
    assert not np.any(a == b)


def test_child_is_deterministic_and_independent_of_parent_use():
    base1 = RandomSource(5)
    base1.uniform()  # consuming the parent must not shift children
    base2 = RandomSource(5)
    assert base1.child(3).uniform() == base2.child(3).uniform()


def test_laplace_scale_validation():
    with pytest.raises(ValueError):
        LaplaceScale(0.0)
    assert LaplaceScale(2.0).variance == 8.0


def test_zeta_against_scipy():
    for beta in [1.1, 1.5, 2.0, 2.5, 3.0, 4.0]:
        assert zeta(beta) == pytest.approx(float(scipy_zeta(beta)), rel=1e-12)


def test_zeta_divergent_rejected():
    with pytest.raises(ValueError):
        zeta(1.0)


def test_level_epsilons_closed_forms():
    eps = level_epsilons(1.0, 2.0, 1)
    assert eps[0] == pytest.approx(6.0 / math.pi**2, rel=1e-12)
    eps2 = level_epsilons(2.0, 2.0, 2)
    assert eps2[1] == pytest.approx(2.0 / ((math.pi**2 / 6.0) * 4.0), rel=1e-12)


def test_level_epsilons_rejects_divergent_exponent():
    with pytest.raises(ValueError):
        level_epsilons(1.0, 1.0, 4)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=1.001, max_value=6.0),
    st.integers(min_value=1, max_value=200),
)
def test_level_epsilons_decreasing_partial_sums_below_total(eps, beta, k_max):
    sched = level_epsilons(eps, beta, k_max)
    assert all(a > b for a, b in zip(sched, sched[1:]))
    partial = 0.0
    for e in sched:
        assert e > 0.0
        partial += e
        assert partial < eps


class _ZeroFirstGenerator:
    """Stands in for numpy's generator: uniform draws 0.0, 0.75, 0.0, 0.75, ..."""

    def random(self, n):
        return np.resize(np.array([0.0, 0.75]), n)


def test_uniform_zero_maps_to_the_median_in_both_samplers():
    scalar = RandomSource(0)
    scalar._gen = _ZeroFirstGenerator()
    vector = RandomSource(0)
    vector._gen = _ZeroFirstGenerator()
    want = [0.0, laplace_from_uniform(0.25, 2.0)]
    assert [scalar.laplace(2.0), scalar.laplace(2.0)] == want
    assert vector.laplace_vector(2.0, 2).tolist() == want


def test_laplace_from_uniform_is_elementwise():
    u = np.array([-0.3, 0.0, 0.1, 0.49])
    out = laplace_from_uniform(u, 1.5)
    assert isinstance(out, np.ndarray)
    assert out.tolist() == [laplace_from_uniform(float(v), 1.5) for v in u]
    with pytest.raises(ValueError):
        laplace_from_uniform(np.array([0.0, 0.5]), 1.0)


def test_lanes_repeat_each_source_bit_for_bit():
    # lane t draws exactly what source t draws alone, across refills of the
    # 4096-uniform buffer and Laplace blocks longer than a store's 256 units
    lanes = RandomLanes(RandomSource(31).child(t) for t in range(5))
    alone = [RandomSource(31).child(t) for t in range(5)]
    for _ in range(3):
        u = np.array([lanes.uniform() for _ in range(5000)])
        lap = lanes.laplace_vector(2.5, 300)
        assert u.shape == (5000, 5) and lap.shape == (300, 5)
        for t, src in enumerate(alone):
            assert u[:, t].tolist() == [src.uniform() for _ in range(5000)]
            assert lap[:, t].tolist() == src.laplace_vector(2.5, 300).tolist()


@pytest.mark.parametrize("n", [1, 7, 255, 256, 257])
@pytest.mark.parametrize("lanes", [1, 7, 40, 256])
def test_one_matrix_transform_equals_per_column_transforms_bit_for_bit(n, lanes):
    # lanes transform a refill as one (n, lanes) matrix; each column must keep
    # the bits its source's own transform gives it, at lengths off the SIMD
    # width, for a contiguous matrix and for strided input
    gen = np.random.default_rng(n * 100 + lanes)
    wide = gen.random((n, 2 * lanes)) - 0.5
    wide[0, 0] = 0.0  # the median
    for u in (np.ascontiguousarray(wide[:, :lanes]), wide[:, ::2]):
        whole = laplace_from_uniform(u, 2.5)
        for t in range(lanes):
            col = u[:, t]  # a strided column slice
            want = laplace_from_uniform(col, 2.5)
            assert np.array_equal(whole[:, t].view(np.int64), want.view(np.int64))
            alone = laplace_from_uniform(col.copy(), 2.5)
            assert np.array_equal(alone.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("lanes", [0, 5], ids=["scalar", "lanes"])
def test_one_long_laplace_call_equals_consecutive_store_refills(k, lanes):
    # a store's refills of _DRAWS units may be drawn k at a time: one call
    # must give the k refills' units bit for bit
    def source():
        if lanes:
            return RandomLanes(RandomSource(17).child(t) for t in range(lanes))
        return RandomSource(17)

    whole = source().laplace_vector(1.0, k * _DRAWS)
    src = source()
    parts = np.concatenate([src.laplace_vector(1.0, _DRAWS) for _ in range(k)])
    assert whole.shape == parts.shape
    assert np.array_equal(whole.view(np.int64), parts.view(np.int64))


def test_lanes_need_fresh_sources():
    with pytest.raises(ValueError):
        RandomLanes([])
    used = RandomSource(3)
    used.uniform()
    with pytest.raises(ValueError):
        RandomLanes([RandomSource(2), used])


def _lanes_or_source(lanes, seed):
    if lanes:
        return RandomLanes(RandomSource(seed).child(t) for t in range(lanes))
    return RandomSource(seed)


@pytest.mark.parametrize("lanes", [0, 3], ids=["scalar", "lanes"])
def test_uniforms_equal_as_many_uniform_calls(lanes):
    # blocks that end inside the 4096-uniform buffer, cross a refill, span
    # several refills and are interleaved with single calls
    sizes = [1, 100, 0, 4000, 4096, 9000, 5]
    block, single = _lanes_or_source(lanes, 12), _lanes_or_source(lanes, 12)
    for n in sizes:
        got = block.uniforms(n)
        want = np.array([single.uniform() for _ in range(n)]).reshape((n,) + got.shape[1:])
        assert got.shape == ((n, lanes) if lanes else (n,))
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), n
        assert np.array_equal(np.asarray(block.uniform()), np.asarray(single.uniform()))


@pytest.mark.parametrize("n", [0, 7, 256, 4096, 4097, 9000])
@pytest.mark.parametrize("lanes", [0, 3], ids=["scalar", "lanes"])
def test_laplace_rows_are_the_rows_of_laplace_vector(n, lanes):
    # the rows asked for, in the order asked (a repeat included), of the one
    # long call, and the generator left where that call leaves it
    rows = sorted({0, n // 2, n - 1, 4095, 4096, 8191} & set(range(n)), reverse=True)
    rows += rows[:1]
    whole, part = _lanes_or_source(lanes, 21), _lanes_or_source(lanes, 21)
    want = whole.laplace_vector(1.0, n)[rows]
    got = part.laplace_rows(1.0, n, rows)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    after, want_after = part.laplace_vector(1.0, 5), whole.laplace_vector(1.0, 5)
    assert np.array_equal(after.view(np.int64), want_after.view(np.int64))


def test_laplace_rows_refuses_a_row_outside_the_draws():
    for rows in ([4], [-1]):
        with pytest.raises(ValueError, match="rows must lie"):
            RandomSource(2).laplace_rows(1.0, 4, rows)


def test_a_child_draws_the_same_whether_or_not_its_parent_drew():
    # a parent's generator is built on its first draw: one that only
    # derives children builds none, and its draws never shift a child's
    want = RandomSource(5).child(3).child(1).uniforms(10)
    idle = RandomSource(5)
    child = idle.child(3)
    assert np.array_equal(child.child(1).uniforms(10), want)
    assert "_gen" not in vars(idle) and "_gen" not in vars(child)
    used = RandomSource(5)
    used.uniform()
    early = used.child(3).child(1)
    used.laplace_vector(1.0, 7)
    assert np.array_equal(early.uniforms(10), want)
