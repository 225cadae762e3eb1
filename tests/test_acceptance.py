"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line.  Tolerances are fixed here, not tuned:
oracle agreement 1e-9, noise calibration 10%, quantile domination strict,
flatness ratio 1.5, baseline comparison factor 0.5.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from dyadic_reference import (
    Interval,
    block_node,
    decompose_prefix,
    frozen_noise,
    node,
    on_full_store,
)
from test_extensions import first_occurrence, first_occurrence_bits

from decaystream.bench import ExperimentConfig, run_bench
from decaystream.bounds import (
    LowerBoundFamily,
    NoiseProfile,
    check_closeness,
    check_independence,
    laplace_tail,
)
from decaystream.dyadic import DyadicTree, WindowCursor, block_levels
from decaystream.extensions import DecayedHistogram, DistinctCount, KSensitiveStream
from decaystream.mechanisms import (
    AllWindowSum,
    DecaySpec,
    ExponentialSum,
    PolynomialSum,
    RunningSum,
    WindowSum,
    exp_decay_sensitivity,
)
from decaystream.noise import RandomSource, level_epsilons

JOBS = min(2, os.cpu_count() or 1)


def report(num, name, ok):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def conv_oracle(xs, decay):
    """Exact decayed sums at every step via convolution with the weights."""
    T = len(xs)
    w = np.array([decay.weight(a) for a in range(T)])
    return np.convolve(np.asarray(xs, dtype=np.float64), w)[:T]


# ---------------------------------------------------------------------------
# 1. oracle equivalence in noise-disabled mode


def test_criterion_01_oracle_equivalence():
    gen = RandomSource(101)
    windows = [1, 2, 3, 6, 8, 64, 100]
    alphas = [0.7, 0.75, 0.9, 0.99]
    polys = [(1.5, 0.25), (2.0, 0.5), (2.0, 0.75), (4.0, 0.25)]
    start = time.perf_counter()
    ok = True
    for s in range(200):
        T = 1 + int(gen.uniform() * 512)
        xs = [1.0 if gen.uniform() < 0.5 else 0.0 for _ in range(T)]
        W = windows[s % len(windows)]
        alpha = alphas[s % len(alphas)]
        c, beta = polys[s % len(polys)]
        seed_rng = RandomSource(7000 + s)

        win = WindowSum(W, 1.0, seed_rng.child(0), noisy=False)
        want_w = conv_oracle(xs, DecaySpec.window(W))
        # one tree answers every window size: several cursors read it, each
        # fed its block's node ending at j
        aw = AllWindowSum(1.0, seed_rng.child(1), noisy=False)
        sizes = [1, 2, 3, 5, 8, 13, 100] + [1 + int(gen.uniform() * T) for _ in range(3)]
        cursors = [WindowCursor(Wq, block_levels(Wq)) for Wq in sizes]
        csum = np.concatenate([[0.0], np.cumsum(xs)])
        run = RunningSum(1.0, seed_rng.child(2), noisy=False)
        want_r = np.cumsum(xs)
        ex = ExponentialSum(alpha, 1.0, seed_rng.child(3), noisy=False)
        want_e = conv_oracle(xs, DecaySpec.exponential(alpha))
        po = PolynomialSum(c, beta, 1.0, seed_rng.child(4), noisy=False)
        want_p = conv_oracle(xs, DecaySpec.polynomial(c, beta))

        for j, x in enumerate(xs, 1):
            ok &= abs(win.push(x) - want_w[j - 1]) <= 1e-9
            aw.push(x)
            for Wq, cursor in zip(sizes, cursors):
                want_q = csum[j] - csum[max(0, j - Wq)]
                ok &= abs(cursor.advance(j, block_node(aw._tree, j, Wq)) - want_q) <= 1e-9
            ok &= abs(run.push(x) - want_r[j - 1]) <= 1e-9
            ok &= abs(ex.push(x) - want_e[j - 1]) <= 1e-9
            out = po.push(x)
            ok &= (1 - beta) * want_p[j - 1] - 1e-9 <= out <= want_p[j - 1] + 1e-9
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(1, "oracle equivalence (noise off)", ok)


# ---------------------------------------------------------------------------
# 2. brute-force sensitivity of the counter vectors


def _counter_l1(a, b):
    keys = set(a) | set(b)
    total = 0.0
    for k in keys:
        va, vb = a.get(k), b.get(k)
        if va is None:
            total += float(np.sum(np.abs(vb))) if np.ndim(vb) else abs(vb)
        elif vb is None:
            total += float(np.sum(np.abs(va))) if np.ndim(va) else abs(va)
        elif np.ndim(va):
            total += float(np.sum(np.abs(va - vb)))
        else:
            total += abs(va - vb)
    return total


def _run_counters(factory, xs):
    """Every counter the run created, at its final value.

    Merging the live counters after every push keeps the overwritten ones:
    a store holds each level's newest node, which is still its level's
    newest at the step it closes, so its last value seen is final.
    """
    mech = factory()
    seen = {}
    for x in xs:
        mech.push(x)
        seen.update(mech.counters())
    return seen


def test_criterion_02_sensitivity_brute_force():
    T = 256
    gen = RandomSource(202)
    xs = [1.0 if gen.uniform() < 0.5 else 0.0 for _ in range(T)]
    ok = True

    def flips(base_counters, factory, bound, require_equality=False):
        nonlocal ok
        for pos in range(T):
            flipped = list(xs)
            flipped[pos] = 1.0 - flipped[pos]
            l1 = _counter_l1(base_counters, _run_counters(factory, flipped))
            ok &= l1 <= bound + 1e-9
            if require_equality:
                ok &= abs(l1 - bound) <= 1e-9

    # one counter per level of a block of W' = 2**ceil(log2 W) positions
    for W in (16, 6):
        win_factory = lambda W=W: WindowSum(W, 1.0, RandomSource(0), noisy=False)
        flips(_run_counters(win_factory, xs), win_factory,
              math.ceil(math.log2(W)) + 1.0, require_equality=True)

    for alpha in (0.7, 0.9, 0.99):
        exp_factory = lambda a=alpha: ExponentialSum(a, 1.0, RandomSource(0), noisy=False)
        flips(_run_counters(exp_factory, xs), exp_factory,
              exp_decay_sensitivity(alpha))

    # level-scheduled tree, alone and under the polynomial tiling: one touched
    # node per level, so the per-level change is 1 and the total is bounded
    # by the tree height
    height = (1 << (T - 1).bit_length()).bit_length()

    def per_level_flips(factory, stream=xs, substitutes=lambda x: [1.0 - x], k=1):
        # counters are keyed (..., level, index): the change per level of
        # each tree is at most k, and at most k * height in total
        nonlocal ok
        base = _run_counters(factory, stream)
        for pos in range(len(stream)):
            for sub in substitutes(stream[pos]):
                other = _run_counters(factory, stream[:pos] + [sub] + stream[pos + 1:])
                per_level = {}
                for key in set(base) | set(other):
                    d = abs(base.get(key, 0.0) - other.get(key, 0.0))
                    per_level[key[:-1]] = per_level.get(key[:-1], 0.0) + d
                ok &= all(v <= k + 1e-9 for v in per_level.values())
                ok &= sum(per_level.values()) <= k * height + 1e-9

    per_level_flips(lambda: AllWindowSum(1.0, RandomSource(0), noisy=False))
    for c, beta in ((1.5, 0.25), (4.0, 0.5)):
        per_level_flips(
            lambda cc=c, bb=beta: PolynomialSum(cc, bb, 1.0, RandomSource(0), noisy=False)
        )

    # the wrappers, on a shorter stream: a histogram record changes only its
    # own key's tree (keys are public), and a substituted element changes at
    # most k = 2 first-occurrence bits, each one counter per level of a tree
    # run at budget epsilon / 2
    n = 64
    keyed = [(str(int(gen.uniform() * 3)), x) for x in xs[:n]]
    per_level_flips(
        lambda: _Keyed(DecayedHistogram(DecaySpec.window(5), 1.0, RandomSource(0), noisy=False)),
        keyed, lambda r: [(r[0], 1.0 - r[1])],
    )
    elements = [int(gen.uniform() * 4) for _ in range(n)]
    others = lambda u: [v for v in range(4) if v != u]
    per_level_flips(lambda: _Inner(DistinctCount(1.0, RandomSource(0), noisy=False)),
                    elements, others, k=2)
    per_level_flips(
        lambda: _Inner(KSensitiveStream(first_occurrence(), 2, DecaySpec.running(), 1.0,
                                        RandomSource(0), noisy=False)),
        elements, others, k=2,
    )
    report(2, "counter sensitivity brute force", ok)


class _Inner:
    """A wrapper whose counters are those of its inner estimator."""

    def __init__(self, outer):
        self.outer = outer
        self.push = outer.push

    def counters(self):
        return self.outer.inner.counters()


class _Keyed:
    """A histogram fed (key, value) records; counters keyed (key, level, index)."""

    def __init__(self, hist):
        self.hist = hist

    def push(self, record):
        self.hist.push(*record)

    def counters(self):
        return {
            (key, *node): v
            for key, mech in self.hist._mechs.items()
            for node, v in mech.counters().items()
        }


# ---------------------------------------------------------------------------
# 3. noise calibration


def test_criterion_03_noise_calibration():
    ok = True

    def check(zs, scale):
        nonlocal ok
        zs = np.asarray(zs, dtype=np.float64)
        assert len(zs) >= 10**5
        ok &= abs(zs.var() - 2.0 * scale * scale) <= 0.1 * 2.0 * scale * scale

    def block_noise(w, blocks, x):
        # every node of each block: each is its level's newest for a while,
        # so merging the store's nodes after every push sees them all
        seen = {}
        for _ in range(blocks * w.W):
            w.push(x)
            seen.update(frozen_noise(w._tree))
        return list(seen.values())

    # window blocks, default scale
    W = 512
    w = WindowSum(W, 1.0, RandomSource(31))
    check(block_noise(w, 98, 1.0), w.counter_scale)

    # store nodes at the exponential-decay scale; a node created with c0 = 0
    # publishes its noise
    scale_e = exp_decay_sensitivity(0.9) / 1.0
    tree = DyadicTree(RandomSource(33), lambda level: scale_e)
    check([tree.add_path(i, 0.0, 1) for i in range(1, 110_001)], scale_e)

    # per-level schedule scales, pooled after normalising each draw by its
    # level's scale (normalised noise is unit-scale Laplace); position i
    # creates one node, on level (i & -i).bit_length()
    eps_k = level_epsilons(1.0, 2.0, 18)
    sched_tree = DyadicTree(RandomSource(34), lambda level: 1.0 / eps_k[level - 1])
    pooled = [sched_tree.add(i, 0.0, [1.0] * 20) * eps_k[(i & -i).bit_length() - 1]
              for i in range(1, 140_001)]
    check(pooled, 1.0)
    report(3, "counter noise calibration", ok)


# ---------------------------------------------------------------------------
# 4 + 5. utility bound domination and error flatness (shared benchmark)


@pytest.fixture(scope="module")
def window_bench():
    cfg = ExperimentConfig(
        mech="window", epsilon=1.0, gamma=0.05, trials=5000, T=4096,
        seed=20250811, source="bernoulli:0.5", W=128, jobs=JOBS,
    )
    rows = run_bench(cfg)
    return cfg, {(r.series, r.j): r for r in rows}


def test_criterion_04_utility_bound_domination(window_bench):
    cfg, rows = window_bench
    ok = True
    for (series, j), r in rows.items():
        if series != "window":
            continue
        ok &= r.q_err <= r.delta_theory
        ok &= r.q_err <= cfg.W / 2.0
    report(4, "rigorous bound dominates measured quantiles", ok)


def test_criterion_05_error_flat_in_stream_position(window_bench):
    _, rows = window_bench
    win_ratio = rows[("window", 4096)].q_err / rows[("window", 256)].q_err
    straw_ratio = (
        rows[("running_diff", 4096)].q_err / rows[("running_diff", 256)].q_err
    )
    ok = win_ratio < 1.5 < straw_ratio
    print(f"  window ratio {win_ratio:.3f}, running-diff ratio {straw_ratio:.3f}")
    report(5, "window error flat while prefix-difference error grows", ok)


# ---------------------------------------------------------------------------
# 6. randomized-response comparison at matched budget


def test_criterion_06_beats_randomized_response():
    cfg = ExperimentConfig(
        mech="window", epsilon=1.0, gamma=0.05, trials=2000, T=4096,
        seed=20250812, source="bernoulli:0.5", W=4096, jobs=JOBS,
    )
    rows = {(r.series, r.j): r for r in run_bench(cfg)}
    tree_q = rows[("window", 4096)].q_err
    rr_q = rows[("rr_matched", 4096)].q_err
    ok = tree_q < 0.5 * rr_q
    print(f"  tree q95 {tree_q:.2f} vs rr q95 {rr_q:.2f}")
    report(6, "tree mechanism beats randomized response 2x", ok)


# ---------------------------------------------------------------------------
# 7. tail bound validity


def test_criterion_07_tail_bound_monte_carlo():
    rng = np.random.default_rng(777)
    n = 10**6
    ok = True
    grid = [
        ((1.0,), (1.5, 2.5, 4.0), (0.3, 0.6)),
        ((1.0, 1.0, 1.0), (1.5, 2.5), (0.2, 0.5)),
        ((0.5, 2.0), (2.0, 3.0), (0.1, 0.3)),
        ((8.0,) * 15, (1.5, 3.0), (0.05,)),
    ]
    for scales, ts, lam_fracs in grid:
        profile = NoiseProfile(scales)
        s = np.zeros(n)
        for b in scales:
            s += rng.laplace(0.0, b, n)
        abs_s = np.abs(s)
        for t in ts:
            for frac in lam_fracs:
                lam = frac * 0.75 / profile.max_scale
                rate = float(np.mean(abs_s >= t * profile.sigma))
                ok &= rate <= laplace_tail(profile, t, lam)
    report(7, "Laplace tail bound dominates Monte Carlo", ok)


# ---------------------------------------------------------------------------
# 8. lower-bound construction


def test_criterion_08_lower_bound_family():
    ok = True
    # window: a block-filling window separates at delta just under D/2
    for q in range(1, 9):
        fam = LowerBoundFamily(q, 8)
        good, _ = check_independence(fam, DecaySpec.window(8), 3.5)
        close, _ = check_closeness(fam, 8)
        ok &= good and close
        doubled, table = check_independence(fam, DecaySpec.window(8), 7.0)
        ok &= not doubled and any(not w.separated for w in table)

    alpha, D = 0.9, 64
    delta_e = 0.9 * (1 - alpha**D) / (2 * (1 - alpha))
    fam = LowerBoundFamily(4, D)
    good, _ = check_independence(fam, DecaySpec.exponential(alpha), delta_e)
    close, _ = check_closeness(fam, D)
    ok &= good and close
    doubled, table = check_independence(
        fam, DecaySpec.exponential(alpha), 2 * delta_e
    )
    ok &= not doubled and any(not w.separated for w in table)

    c, D = 2.0, 32
    h_c = sum(m**-c for m in range(1, D + 1))
    delta_p = 0.9 * h_c / 2.0
    fam = LowerBoundFamily(4, D)
    good, _ = check_independence(fam, DecaySpec.polynomial(c, 0.5), delta_p)
    close, _ = check_closeness(fam, D)
    ok &= good and close
    doubled, table = check_independence(
        fam, DecaySpec.polynomial(c, 0.5), 2 * delta_p
    )
    ok &= not doubled and any(not w.separated for w in table)
    report(8, "lower-bound family verifier", ok)


# ---------------------------------------------------------------------------
# 9. distinct-count predicate sensitivity


def test_criterion_09_distinct_count_two_sensitive():
    ok = True
    universe = [0, 1, 2]
    for T in range(1, 7):
        for seq in itertools.product(universe, repeat=T):
            base = first_occurrence_bits(seq)
            for pos in range(T):
                for u in universe:
                    if u == seq[pos]:
                        continue
                    alt = list(seq)
                    alt[pos] = u
                    diffs = sum(
                        1 for a, b in zip(base, first_occurrence_bits(alt)) if a != b
                    )
                    ok &= diffs <= 2
    report(9, "first-occurrence predicate is 2-sensitive", ok)


# ---------------------------------------------------------------------------
# 10. structural tree figures


def test_criterion_10_tree_figures():
    ok = True
    ok &= decompose_prefix(6) == [Interval(1, 4), Interval(5, 6)]
    ok &= decompose_prefix(14, base=9) == [Interval(9, 12), Interval(13, 14)]

    # composed from a same-seed estimator whose store keeps every node
    w = WindowSum(4, 1.0, RandomSource(1), noisy=True)
    ref = on_full_store(lambda: WindowSum(4, 1.0, RandomSource(1), noisy=True))
    xs = [1, 0, 1, 1, 0, 1, 1]
    for x in xs:
        est = w.push(float(x))
        ref.push(float(x))
    val = lambda l, u: node(ref._tree, Interval(l, u)).value
    composed = val(1, 4) - (val(1, 2) + val(3, 3)) + (val(5, 6) + val(7, 7))
    ok &= abs(est - composed) < 1e-12
    noiseless = WindowSum(4, 1.0, RandomSource(2), noisy=False)
    ok &= [noiseless.push(float(x)) for x in xs][-1] == 3.0
    report(10, "dyadic tiling and window composition figures", ok)


# ---------------------------------------------------------------------------
# 11. throughput and space


def test_criterion_11_performance_and_space():
    W = 1 << 20
    w = WindowSum(W, 1.0, RandomSource(3))
    start = time.perf_counter()
    for _ in range(10**6):
        w.push(1.0)
    elapsed = time.perf_counter() - start
    nodes = w.counters()
    ok = elapsed < 10.0
    # one node per level of a block, the level's newest closed node; the
    # block node (level 21, 2**20 positions) has not closed yet
    ok &= sorted(nodes) == [(level, (10**6 >> (level - 1)) - 1) for level in range(1, 21)]

    ex = ExponentialSum(0.9, 1.0, RandomSource(4))
    for _ in range(4000):
        ex.push(1.0)
        levels = [level for level, _ in ex.counters()]
        ok &= len(levels) == len(set(levels))  # at most one node per level
    print(f"  1e6 updates in {elapsed:.2f}s; exp live nodes {len(ex.counters())}")
    report(11, "throughput under 10s and bounded space", ok)


# ---------------------------------------------------------------------------
# 12. determinism


def test_criterion_12_determinism():
    cfg = dict(
        mech="window", epsilon=1.0, gamma=0.05, trials=40, T=128,
        seed=99, source="bernoulli:0.5", W=16,
    )
    a = run_bench(ExperimentConfig(**cfg, jobs=1))
    b = run_bench(ExperimentConfig(**cfg, jobs=1))
    c = run_bench(ExperimentConfig(**cfg, jobs=2))
    ok = a == b == c
    report(12, "bit-identical reruns and thread-count invariance", ok)
