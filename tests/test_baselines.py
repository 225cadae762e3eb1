import math

import numpy as np
import pytest
from dyadic_reference import FullStore, prefix_value

from decaystream.baselines import (
    ExactOracle,
    RandomizedResponse,
    RunningDiffBaseline,
    decayed_sum,
    rr_flip_parameter,
)
from decaystream.dyadic import block_levels
from decaystream.mechanisms import DecaySpec
from decaystream.noise import RandomLanes, RandomSource


def rr_epsilon_of_flip(f: float) -> float:
    """Privacy parameter of randomized response with bit-keep bias f."""
    if not 0.0 < f < 1.0:
        raise ValueError(f"flip parameter must lie in (0, 1), got {f}")
    return math.log((1.0 + f) / (1.0 - f))


def random_bits(seed, T):
    gen = RandomSource(seed)
    return [1 if gen.uniform() < 0.5 else 0 for _ in range(T)]


def rr_read_on_lanes(rr, xs):
    """What ``rr.push`` returns at step ``len(xs)`` on each lane of its
    RandomLanes source: the flips of every step, one uniform per step,
    summed by oracles over lane arrays and rescaled as push does."""
    stored, ones = ExactOracle(rr.decay), ExactOracle(rr.decay)
    for x, u in zip(xs, rr._rng.uniforms(len(xs))):
        s, g = stored.push(rr.flip(float(x), u)), ones.push(1.0)
    return rr.rescale(s, g)


def test_oracle_examples():
    w = ExactOracle(DecaySpec.window(3))
    assert [w.push(float(x)) for x in (1, 0, 1, 1, 0)][-1] == 2.0
    e = ExactOracle(DecaySpec.exponential(0.5))
    assert [e.push(1.0) for _ in range(3)][-1] == 1.75
    p = ExactOracle(DecaySpec.polynomial(2.0, 0.5))
    assert [p.push(1.0) for _ in range(3)][-1] == pytest.approx(1 + 1 / 4 + 1 / 9)
    r = ExactOracle(DecaySpec.running())
    assert [r.push(float(x)) for x in (1, 1, 0, 1)][-1] == 3.0


def test_oracle_rolling_matches_direct_summation():
    specs = [
        DecaySpec.window(5),
        DecaySpec.exponential(0.8),
        DecaySpec.polynomial(1.5, 0.5),
        DecaySpec.running(),
    ]
    gen = RandomSource(1)
    xs = [gen.uniform() for _ in range(64)]
    for spec in specs:
        oracle = ExactOracle(spec)
        for j, x in enumerate(xs, 1):
            assert oracle.push(x) == pytest.approx(
                decayed_sum(spec, xs, j), abs=1e-9
            ), spec.kind


def test_polynomial_oracle_equals_direct_summation_at_every_step():
    # the weight table holds decayed_sum's operands in its order: outputs ==
    spec = DecaySpec.polynomial(2.0, 0.25)
    gen = RandomSource(2)
    xs = [gen.uniform() for _ in range(300)]
    oracle = ExactOracle(spec)
    for j, x in enumerate(xs, 1):
        assert oracle.push(x) == decayed_sum(spec, xs, j), j


@pytest.mark.parametrize("spec", [DecaySpec.window(5), DecaySpec.exponential(0.8),
                                  DecaySpec.polynomial(1.5, 0.5), DecaySpec.running()],
                         ids=lambda spec: spec.kind)
def test_oracle_never_changes_a_value_it_returned(spec):
    # on lane arrays an in-place update would turn every value returned
    # earlier into the newest one; 15 pushes run two windows past the first
    gen = RandomSource(3)
    oracle = ExactOracle(spec)
    returned, copies = [], []
    for _ in range(15):
        est = oracle.push(np.array([gen.uniform() for _ in range(4)]))
        returned.append(est)
        copies.append(est.copy())
    for est, copy in zip(returned, copies):
        assert np.array_equal(est, copy)


def test_flip_parameter_budget_matching_round_trip():
    for eps in (0.1, 0.5, 1.0, 2.0):
        f = rr_flip_parameter(eps)
        assert 0.0 < f < 1.0
        assert rr_epsilon_of_flip(f) == pytest.approx(eps, rel=1e-12)
    assert rr_flip_parameter(1.0) == pytest.approx(math.tanh(0.5), rel=1e-12)


def test_rr_rejects_non_bits():
    rr = RandomizedResponse(DecaySpec.window(4), 0.5, RandomSource(0))
    with pytest.raises(ValueError):
        rr.push(0.5)
    with pytest.raises(ValueError):
        RandomizedResponse(DecaySpec.window(4), 1.0, RandomSource(0))


def test_rr_near_one_keep_bias_recovers_exact_sum():
    xs = random_bits(3, 200)
    rr = RandomizedResponse(DecaySpec.window(16), 1.0 - 1e-9, RandomSource(3))
    oracle = ExactOracle(DecaySpec.window(16))
    for x in xs:
        est = rr.push(x)
        exact = oracle.push(float(x))
    assert est == pytest.approx(exact, abs=1e-5)


def test_rr_unbiased_at_fixed_step():
    W, j_star, trials, f = 16, 24, 10000, 0.5
    xs = random_bits(11, j_star)
    exact = decayed_sum(DecaySpec.window(W), xs, j_star)
    base = RandomSource(12)
    errs = np.empty(trials)
    for t0 in range(0, trials, 1000):  # lanes buffer 4096 uniforms each
        lanes = RandomLanes(base.child(t) for t in range(t0, t0 + 1000))
        rr = RandomizedResponse(DecaySpec.window(W), f, lanes)
        errs[t0 : t0 + 1000] = rr_read_on_lanes(rr, xs) - exact
    per_bit_var = (1 - f * f) / (4 * f * f)
    se = math.sqrt(W * per_bit_var / trials)
    assert abs(errs.mean()) < 5.0 * se


def test_rr_standard_deviation_matches_theory():
    # sd of the window estimator at j = W is sqrt(W (1/f^2 - 1)) / 2
    W, f, trials = 4096, 0.5, 800
    base = RandomSource(21)
    lanes = RandomLanes(base.child(t) for t in range(trials))
    rr = RandomizedResponse(DecaySpec.window(W), f, lanes)
    vals = rr_read_on_lanes(rr, [1] * W)
    theory = math.sqrt(W * (1 / f**2 - 1)) / 2
    assert abs(vals.std(ddof=1) - theory) < 0.1 * theory


def test_rr_per_bit_variance_helper():
    rr = RandomizedResponse(DecaySpec.running(), 0.5, RandomSource(0))
    assert rr.per_bit_variance() == pytest.approx((1 - 0.25) / (4 * 0.25))


def test_running_diff_noiseless_matches_window_oracle():
    xs = random_bits(5, 300)
    straw = RunningDiffBaseline(32, 300, 1.0, RandomSource(5), noisy=False)
    oracle = ExactOracle(DecaySpec.window(32))
    for x in xs:
        assert straw.push(float(x)) == pytest.approx(oracle.push(float(x)), abs=1e-9)


@pytest.mark.parametrize("W", [300, 1000])
def test_running_diff_window_longer_than_its_horizon_reads_the_prefix(W):
    # the window is clamped to the horizon, whose one block of 256
    # positions the cursor reads, so it never slides within the 200 steps
    xs = random_bits(6, 200)
    straw = RunningDiffBaseline(W, 200, 1.0, RandomSource(5), noisy=False)
    assert [straw.push(float(x)) for x in xs] == np.cumsum(xs).tolist()


def test_running_diff_enforces_horizon():
    straw = RunningDiffBaseline(4, 8, 1.0, RandomSource(0))
    for _ in range(8):
        straw.push(1.0)
    with pytest.raises(ValueError):
        straw.push(1.0)


@pytest.mark.parametrize("W", [1, 3, 8, 100, 128, 1500])
@pytest.mark.parametrize("source", ["noisy", "noise_off", "lanes"])
def test_running_diff_evicts_behind_its_lag_and_reads_as_a_full_store(W, source):
    # the baseline keeps one node per level of its horizon tree, created
    # when it closes and overwritten by the next on its level, so after
    # position i levels 1 .. min(h, bit_length(i)) hold one; the reference is a same-seed
    # store that keeps every node, read at random access.  Its height and
    # scale are the horizon's, also for a window longer than the horizon.
    # On lanes each trial is pushed alone, and lane t of the reader is
    # trial t's pushes
    T = 1000
    xs = [x * 0.75 for x in random_bits(W, T)]
    noisy = source != "noise_off"
    lanes = 3 if source == "lanes" else 0

    def rng(t):
        return RandomSource(7).child(t) if lanes else RandomSource(7)

    h = block_levels(T)
    pushed = []
    for t in range(lanes or 1):
        straw = RunningDiffBaseline(W, T, 0.5, rng(t), noisy=noisy)
        ref = FullStore(rng(t), lambda _level: h / 0.5, noisy)
        pushed.append([])
        for i, x in enumerate(xs, 1):
            pushed[-1].append(straw.push(x))
            ref.add_path(i, x, h)
            want = prefix_value(ref, i) - prefix_value(ref, max(i - W, 0))
            assert np.array_equal(pushed[-1][-1], want), i
            closed = min(h, i.bit_length())  # levels with a closed node
            assert [level for level, _ in straw.counters()] == list(range(1, closed + 1)), i
        assert len(ref.counters()) == sum(T >> k for k in range(h))  # it kept every node
    if lanes:
        rngs = RandomLanes(rng(t) for t in range(lanes))
        got = RunningDiffBaseline(W, T, 0.5, rngs, noisy=noisy).estimates_at(xs, range(1, T + 1))
        for i, v in enumerate(got):
            want = np.array([p[i] for p in pushed])
            assert np.array_equal(np.broadcast_to(v, want.shape).view(np.int64),
                                  want.view(np.int64)), i + 1
