"""Lockstep trials must repeat the per-trial engine bit for bit.

``scalar_chunk`` is the per-trial engine the lane units of
``bench._run_series`` replaced: every trial builds its own estimators on
scalar random sources and replays the stream alone.  It stays here as the reference the lane engine is compared
against with ``==``.
"""

import concurrent.futures
from dataclasses import replace

import numpy as np
import pytest

from decaystream import bench
from decaystream.baselines import (
    ExactOracle,
    RandomizedResponse,
    RunningDiffBaseline,
    rr_flip_parameter,
)
from decaystream.bench import (
    ExperimentConfig,
    build_mechanism,
    checkpoints,
    make_stream,
    run_bench,
)
from decaystream.noise import RandomLanes, RandomSource


def scalar_chunk(cfg, t0, t1):
    """Errors for trials [t0, t1), one trial at a time on scalar sources."""
    stream = make_stream(cfg)
    T = len(stream)
    marks = checkpoints(T)
    names = bench._series_names(cfg, all(x in (0.0, 1.0) for x in stream))
    oracle = ExactOracle(cfg.decay())
    exact = [oracle.push(x) for x in stream]
    base = RandomSource(cfg.seed).child(bench._TRIAL_CHILD)
    out = np.empty((len(names), len(marks), t1 - t0))
    for t in range(t0, t1):
        trial = base.child(t)
        runners = {cfg.mech: build_mechanism(cfg, trial.child(0))}
        if "rr_matched" in names:
            runners["rr_matched"] = RandomizedResponse(
                cfg.decay(), rr_flip_parameter(cfg.epsilon), trial.child(1)
            )
        if "rr_raw" in names:
            runners["rr_raw"] = RandomizedResponse(cfg.decay(), cfg.epsilon, trial.child(2))
        if "running_diff" in names:
            runners["running_diff"] = RunningDiffBaseline(
                cfg.W, T, cfg.epsilon, trial.child(3), noisy=cfg.noisy
            )
        for s, name in enumerate(names):
            ests = [runners[name].push(x) for x in stream]
            for idx, j in enumerate(marks):
                out[s, idx, t - t0] = ests[j - 1] - exact[j - 1]
    return out


def assert_lockstep_matches_scalar(cfg, monkeypatch, jobs=(1, 2)):
    ref = scalar_chunk(cfg, 0, cfg.trials)
    stream = make_stream(cfg)
    data = stream, bench._exact_at_checkpoints(cfg, stream)
    # one unit per series and lane batch
    units = [(s, b0, min(b0 + bench._LANES, cfg.trials))
             for s in range(len(ref)) for b0 in range(0, cfg.trials, bench._LANES)]
    stacked = np.full_like(ref, np.nan)
    for s, t0, t1 in units:
        stacked[s, :, t0:t1] = bench._run_series(cfg, s, t0, t1, data)
    assert np.array_equal(stacked, ref)
    rows = {j: run_bench(replace(cfg, jobs=j)) for j in jobs}
    calls = []

    def recorded_scalar_unit(unit_cfg, s, t0, t1, data):
        calls.append((s, t0, t1))
        return scalar_chunk(unit_cfg, t0, t1)[s]

    with monkeypatch.context() as m:
        m.setattr(bench, "_run_series", recorded_scalar_unit)
        ref_rows = run_bench(replace(cfg, jobs=1))
    assert calls == units  # jobs=1 ran the per-trial engine once per unit
    for j in jobs:
        assert rows[j] == ref_rows, j


MECHS = [
    ("window", dict(W=8)),
    ("allwindow", dict(W=12)),
    ("exp", dict(alpha=0.9)),
    ("poly", dict(c=2.0, beta=0.25)),
    ("running", {}),
]
# a window longer than the stream, so longer than the horizon of running_diff
WIDE_WINDOW = ("window", dict(W=100))


@pytest.mark.parametrize("mech,kw", MECHS + [WIDE_WINDOW],
                         ids=[m for m, _ in MECHS] + ["window_W100"])
@pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "noise_off"])
@pytest.mark.parametrize("epsilon", [1.0, 0.5])
def test_lockstep_rows_equal_scalar_replay(monkeypatch, mech, kw, noisy, epsilon):
    # 40 trials in lane batches of 16, 16 and 8: each series is three units
    monkeypatch.setattr(bench, "_LANES", 16)
    cfg = ExperimentConfig(mech=mech, epsilon=epsilon, noisy=noisy, trials=40, T=70,
                           seed=8, **kw)
    assert_lockstep_matches_scalar(cfg, monkeypatch)


@pytest.mark.parametrize("mech,kw", [MECHS[0], MECHS[2], WIDE_WINDOW],
                         ids=["window", "exp", "window_W100"])
def test_lockstep_rows_equal_scalar_replay_on_a_file_stream(tmp_path, monkeypatch, mech, kw):
    # values that are not bits: no randomized-response series
    path = tmp_path / "stream.txt"
    gen = RandomSource(4)
    path.write_text("".join(f"{gen.uniform():.6f}\n" for _ in range(50)))
    monkeypatch.setattr(bench, "_LANES", 16)
    cfg = ExperimentConfig(mech=mech, trials=40, input_path=str(path), seed=8, **kw)
    assert_lockstep_matches_scalar(cfg, monkeypatch)


def test_lockstep_rows_equal_scalar_replay_over_full_lane_batches(monkeypatch):
    # the shipped batch size: 600 trials are lane batches of 256, 256 and 88
    cfg = ExperimentConfig(mech="window", W=8, trials=600, T=40, seed=9)
    assert_lockstep_matches_scalar(cfg, monkeypatch)


@pytest.mark.parametrize("epsilon", [1.0, 0.5])
def test_rows_are_equal_for_any_number_of_jobs(monkeypatch, epsilon):
    # 3 lane batches of 3 or 4 series: 9 or 12 units over 2, 3 or 4 workers
    monkeypatch.setattr(bench, "_LANES", 16)
    cfg = ExperimentConfig(mech="window", W=8, epsilon=epsilon, trials=40, T=70, seed=3)
    assert_lockstep_matches_scalar(cfg, monkeypatch, jobs=(1, 2, 3, 4))


@pytest.mark.parametrize("mech,kw", MECHS, ids=[m for m, _ in MECHS])
def test_checkpoint_oracle_equals_the_per_step_oracle(mech, kw):
    # the polynomial decay is summed only at the checkpoints; every value
    # must still be the per-step oracle's, bit for bit
    gen = RandomSource(6)
    stream = [gen.uniform() for _ in range(300)]
    cfg = ExperimentConfig(mech=mech, trials=30, **kw)
    oracle = ExactOracle(cfg.decay())
    per_step = [oracle.push(x) for x in stream]
    want = [per_step[j - 1] for j in checkpoints(len(stream))]
    assert bench._exact_at_checkpoints(cfg, stream) == want


# windows longer than a 64-step flip block, as long as the 300-step stream, and longer
RR_WINDOWS = [("window", dict(W=W)) for W in (100, 300, 1000)]


@pytest.mark.parametrize("mech,kw", MECHS + RR_WINDOWS,
                         ids=[m for m, _ in MECHS] + [f"window_W{kw['W']}" for _, kw in RR_WINDOWS])
@pytest.mark.parametrize("epsilon", [1.0, 0.5])
@pytest.mark.parametrize("lanes", [0, 5], ids=["scalar", "lanes"])
def test_checkpoint_randomized_response_equals_the_per_step_one(monkeypatch, mech, kw,
                                                                epsilon, lanes):
    # window and running sums count the flips block by block, the other
    # decays sum them, and all rescale only at the checkpoints; every value
    # must still be push's, bit for bit, on a scalar source and on lanes
    monkeypatch.setattr(bench, "_FLIP_ROWS", 64)  # 300 steps: 4 full blocks and one of 44
    gen = RandomSource(6)
    stream = [1.0 if gen.uniform() < 0.5 else 0.0 for _ in range(300)]
    cfg = ExperimentConfig(mech=mech, epsilon=epsilon, trials=30, **kw)

    def rng():
        if lanes:
            return RandomLanes([RandomSource(9).child(t) for t in range(lanes)])
        return RandomSource(9)

    names = [n for n in bench._series_names(cfg, True) if n.startswith("rr")]
    assert len(names) == (1 if epsilon == 1.0 else 2)
    for name in names:
        f = bench._rr_flip(cfg, name)
        rr = RandomizedResponse(cfg.decay(), f, rng())
        per_step = [rr.push(x) for x in stream]
        want = [per_step[j - 1] for j in checkpoints(len(stream))]
        got = bench._rr_at_checkpoints(cfg, f, rng(), stream)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            a, b = np.asarray(a), np.asarray(b)
            assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64)), name


def test_pool_has_no_more_workers_than_units(tmp_path, monkeypatch):
    # a stream that is not binary has one series, and 30 trials fill one batch
    path = tmp_path / "stream.txt"
    path.write_text("0.25\n0.5\n" * 10)
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    # run_bench imports the pool class when it needs one, so patch its home
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = dict(mech="exp", alpha=0.9, trials=30, input_path=str(path), seed=2)
    rows = run_bench(ExperimentConfig(**cfg, jobs=4))
    assert sizes == [1]
    assert rows == run_bench(ExperimentConfig(**cfg, jobs=1))


def test_bad_config_is_refused_before_the_stream_is_made(monkeypatch):
    def no_stream(cfg):
        raise AssertionError("the stream was made before the config was checked")

    monkeypatch.setattr(bench, "make_stream", no_stream)
    with pytest.raises(ValueError, match="--W is required"):
        run_bench(ExperimentConfig(mech="window", trials=30))
    with pytest.raises(ValueError, match="needs W >= 1"):
        run_bench(ExperimentConfig(mech="allwindow", W=0, trials=30))
    # the config itself refuses an option its mech does not read, and a bad
    # error probability or horizon
    for bad, match in ((dict(mech="running", beta=1.5), "does not read --beta"),
                       (dict(mech="rr", W=8, alpha=0.9), "another decay's"),
                       (dict(mech="window", W=8, gamma=0.0), "gamma"),
                       (dict(mech="running", T=0), "must be >= 1")):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(trials=30, **bad)


@pytest.mark.parametrize("mech", ["rr", "oracle"])
def test_bench_refuses_mechs_without_a_tree(mech):
    # the config reads a decay for rr and oracle, but they build no tree
    # estimator to compare against the baselines
    with pytest.raises(ValueError, match="builds no tree estimator"):
        run_bench(ExperimentConfig(mech=mech, W=8, trials=30))


@pytest.mark.parametrize("epsilon", [0.5, 1.0])
@pytest.mark.parametrize("mech,kw", [("running", {}), ("allwindow", dict(W=100))],
                         ids=["running", "allwindow_W100"])
def test_growing_tree_bound_dominates_at_scale(mech, kw, epsilon):
    # both series are read at the checkpoints only, so 2000 trials over a
    # stream of 4096 cost well under a second per config
    cfg = ExperimentConfig(mech=mech, epsilon=epsilon, T=4096, trials=2000, seed=25, **kw)
    rows = [r for r in run_bench(cfg) if r.series == mech]
    assert [r.j for r in rows] == checkpoints(4096)
    for r in rows:
        assert r.q_err <= r.delta_theory, r
