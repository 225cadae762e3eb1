import math

import numpy as np
import pytest

from decaystream.bounds import (
    LowerBoundFamily,
    NoiseProfile,
    check_closeness,
    check_independence,
    framework_threshold,
    hoeffding_delta,
    laplace_tail,
    reference_delta,
    utility_delta,
    worst_noise_profile,
)
from decaystream.mechanisms import DecaySpec, PolynomialSum


def test_noise_profile_sigma():
    p = NoiseProfile((1.0, 2.0, 2.0))
    assert p.sigma == pytest.approx(math.sqrt(2 * (1 + 4 + 4)), rel=1e-12)
    with pytest.raises(ValueError):
        NoiseProfile(())
    with pytest.raises(ValueError):
        NoiseProfile((1.0, -1.0))


def test_laplace_tail_example():
    p = NoiseProfile((1.0,))
    expected = 2.0 * math.exp(0.75 * 0.25 * 2.0 - 0.5 * 2.5 * math.sqrt(2.0))
    assert laplace_tail(p, 2.5, 0.5) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.497, abs=5e-4)


def test_laplace_tail_monotone_and_vanishing():
    p = NoiseProfile((1.0, 3.0))
    lam = 0.2
    bounds = [laplace_tail(p, t, lam) for t in (1.0, 2.0, 4.0, 8.0, 50.0)]
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] < 1e-6
    assert laplace_tail(p, 0.1, lam) == 1.0  # clamped


def test_laplace_tail_strict_admissibility():
    p = NoiseProfile((2.0,))
    with pytest.raises(ValueError):
        laplace_tail(p, 1.0, 0.75 / 2.0)  # boundary rejected
    laplace_tail(p, 1.0, 0.75 / 2.0 - 1e-9)


def test_laplace_tail_holds_in_monte_carlo():
    rng = np.random.default_rng(1)
    n = 10**5
    for scales, t, lam in [
        ((1.0,), 2.0, 0.5),
        ((1.0, 1.0, 1.0), 1.5, 0.3),
        ((0.5, 2.0), 2.5, 0.2),
    ]:
        p = NoiseProfile(scales)
        s = sum(rng.laplace(0, b, n) for b in scales)
        rate = float(np.mean(np.abs(s) >= t * p.sigma))
        assert rate <= laplace_tail(p, t, lam)


def test_utility_delta_closed_form_when_interior():
    p = NoiseProfile((1.0,) * 20)  # small scales: minimiser is interior
    gamma = 0.05
    sigma = p.sigma
    lam_star = math.sqrt(math.log(2 / gamma) / (0.75 * sigma**2))
    assert lam_star < 0.75 / 1.0
    assert utility_delta(p, gamma) == pytest.approx(
        2.0 * sigma * math.sqrt(0.75 * math.log(2 / gamma)), rel=1e-12
    )


def test_utility_delta_monotone_in_gamma():
    p = NoiseProfile((3.0, 3.0))
    assert utility_delta(p, 0.999) < utility_delta(p, 0.01)


def test_utility_delta_dominates_monte_carlo_quantile():
    rng = np.random.default_rng(2)
    n = 10**5
    for scales in [(1.0,), (2.0, 2.0, 2.0), (0.5, 1.0, 4.0)]:
        p = NoiseProfile(scales)
        s = sum(rng.laplace(0, b, n) for b in scales)
        for gamma in (0.05, 0.01):
            q = np.quantile(np.abs(s), 1 - gamma)
            assert q <= utility_delta(p, gamma), (scales, gamma)


def test_hoeffding_delta_dominates_bounded_sums():
    rng = np.random.default_rng(3)
    n = 10**5
    ranges2 = 16 * 1.0  # 16 terms of range 1
    s = rng.uniform(-0.5, 0.5, (n, 16)).sum(axis=1)
    q = np.quantile(np.abs(s), 0.95)
    assert q <= hoeffding_delta(ranges2, 0.05)


def test_family_construction():
    fam = LowerBoundFamily(2, 2)
    assert fam.instances() == [[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1]]
    assert fam.probes == [2, 4]
    assert all(sum(fam.instance(a)) == 2 for a in (1, 2))
    with pytest.raises(ValueError):
        LowerBoundFamily(0, 2)


def test_independence_window_example():
    fam = LowerBoundFamily(4, 8)
    decay = DecaySpec.window(8)
    ok, table = check_independence(fam, decay, 3.5)
    assert ok
    assert all(w.separated for w in table)
    # doubling delta destroys separation and yields a witness pair
    ok2, table2 = check_independence(fam, decay, 7.0)
    assert not ok2
    assert any(not w.separated for w in table2)


def test_independence_large_delta_fails():
    fam = LowerBoundFamily(4, 8)
    ok, _ = check_independence(fam, DecaySpec.window(8), 8.0)
    assert not ok


def test_independence_single_instance():
    fam = LowerBoundFamily(1, 4)
    ok, table = check_independence(fam, DecaySpec.window(4), 1.5)
    assert ok and len(table) == 1
    assert table[0].gap == pytest.approx(4.0)


def test_closeness():
    fam = LowerBoundFamily(3, 4)
    ok, all_pairs = check_closeness(fam, 4)
    assert ok
    assert all_pairs == 8  # disjoint one-blocks sit at distance 2D
    ok0, _ = check_closeness(fam, 0)
    assert not ok0


def test_framework_threshold_values():
    assert framework_threshold(8, 1.0) == pytest.approx(math.log(16.0), rel=1e-12)
    assert framework_threshold(1, 2.0) == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
    assert framework_threshold(5, 2.0) == pytest.approx(
        framework_threshold(5, 1.0) / 2.0, rel=1e-12
    )


def test_reference_delta_shapes():
    # window saturates at W/2 once m >= W
    w = DecaySpec.window(8)
    assert reference_delta(w, math.exp(-20.0), 1.0) == 4.0
    assert reference_delta(w, math.exp(-3.5), 1.0) == pytest.approx(1.5)  # m=3
    # exponential approaches 1 / (2 (1 - alpha))
    e = DecaySpec.exponential(0.9)
    assert reference_delta(e, 1e-40, 1.0) == pytest.approx(5.0, abs=1e-3)
    # polynomial: generalized harmonic number over 2 (m = 3)
    p = DecaySpec.polynomial(2.0, 0.5)
    assert reference_delta(p, math.exp(-3.5), 1.0) == pytest.approx(
        (1 + 1 / 4 + 1 / 9) / 2
    )


def test_reference_delta_grows_like_log_T_before_saturation():
    w = DecaySpec.window(10**9)
    eps = 1.0
    vals = [reference_delta(w, 2.0 / (3.0 * T), eps) for T in (2**8, 2**12, 2**16, 2**20)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # slope is ln(T)/2 per doubling window: ratios approach ln growth
    assert vals[-1] == pytest.approx(math.floor(math.log(3 * 2**20 / 2)) / 2.0)


def test_family_separation_sweep_window_decay():
    # exhaustive sweep: every power-of-two window up to D separates at
    # delta = (W-1)/2, and at (D-1)/2 exactly when the window fills a block
    for q in range(1, 9):
        for D in range(1, 17):
            fam = LowerBoundFamily(q, D)
            W = 1
            while W <= D:
                decay = DecaySpec.window(W)
                ok, _ = check_independence(fam, decay, (W - 1) / 2.0)
                assert ok, (q, D, W)
                ok_close, _ = check_closeness(fam, D)
                assert ok_close
                if W == D:
                    ok_full, _ = check_independence(fam, decay, (D - 1) / 2.0)
                    assert ok_full
                W *= 2


def test_worst_noise_profiles():
    w = worst_noise_profile(DecaySpec.window(128), 1.0)
    assert len(w.scales) == 2 * 7 + 1
    assert w.scales[0] == 8.0
    e = worst_noise_profile(DecaySpec.exponential(0.9), 1.0)
    assert e.scales[0] == pytest.approx(6.545858, abs=1e-5)
    assert e.scales[1] == pytest.approx(e.scales[0] * 0.9, rel=1e-12)
    r = worst_noise_profile(DecaySpec.running(), 1.0, horizon=1024)
    assert len(r.scales) == 11
    # polynomial: leaves are read from age 0 on, so the first and largest
    # term is the level-1 scale zeta(2) / eps times the root energy of every
    # weight up to the horizon, and a longer horizon adds terms
    p = worst_noise_profile(DecaySpec.polynomial(2.0, 0.5), 1.0, horizon=256)
    energy = math.fsum((a + 1.0) ** -4 for a in range(256))
    assert p.scales[0] == p.max_scale
    assert p.scales[0] == pytest.approx(math.pi**2 / 6 * math.sqrt(energy), rel=1e-12)
    assert p.sigma < worst_noise_profile(DecaySpec.polynomial(2.0, 0.5), 1.0, 1 << 20).sigma
    # no horizon means 2**20 steps; a horizon below one step is refused
    for decay in (DecaySpec.running(), DecaySpec.polynomial(2.0, 0.5)):
        assert worst_noise_profile(decay, 1.0) == worst_noise_profile(decay, 1.0, 1 << 20)
        for horizon in (0, -1):
            with pytest.raises(ValueError, match="horizon"):
                worst_noise_profile(decay, 1.0, horizon)


class UnitVectors:
    """Stand-in random source: the unit Laplace draw of row r is the r-th
    unit vector, so the nodes a checkpoint reader computes, and any estimate
    it reads from them on an all-zero stream, are vectors of per-node noise
    coefficients times the node scales."""

    def __init__(self, dim):
        self.dim = dim

    def laplace_rows(self, scale, n, rows):
        out = np.empty(len(rows), dtype=object)
        for q, r in enumerate(rows):
            out[q] = np.zeros(self.dim)
            out[q][r] = 1.0
        return out


def test_poly_profile_dominates_every_step():
    # the laplace_tail bound uses only the sum of squared scales and the
    # largest scale; the profile must dominate both, at every step, for the
    # exact merged coefficient of every node the estimate reads
    T = 256
    for c, beta in [(1.1, 0.9), (1.5, 0.25), (2.0, 0.5), (4.0, 0.25), (8.0, 0.05)]:
        profile = worst_noise_profile(DecaySpec.polynomial(c, beta), 1.0, T)
        bound2 = sum(b * b for b in profile.scales)
        m = PolynomialSum(c, beta, 1.0, UnitVectors(4 * T))  # draws come 256 at a time
        for i, a in enumerate(m.estimates_at([0.0] * T, range(1, T + 1)), 1):
            assert a @ a <= bound2 * (1 + 1e-12), (c, beta, i)
            assert np.abs(a).max() <= profile.max_scale * (1 + 1e-12), (c, beta, i)


def test_allwindow_query_profile_triples_per_level():
    from decaystream.bounds import allwindow_query_profile

    base = worst_noise_profile(DecaySpec.running(), 1.0, horizon=1024)
    q = allwindow_query_profile(1.0, horizon=1024)
    assert len(q.scales) == 3 * len(base.scales)
    assert q.sigma == pytest.approx(math.sqrt(3) * base.sigma, rel=1e-12)
