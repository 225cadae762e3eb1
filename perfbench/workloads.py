"""The three benchmark workloads: inputs, correctness gate, timed run, traced run.

Each workload is one class with four entry points, run by ``worker.py`` in a
fresh interpreter so that their memory and set-up never mix:

* ``setup(seed)``  -- the work a user does before the first timed call;
* ``gate(seed, checks)`` -- noise-off and determinism checks, never timed;
* ``measure(seed, seconds, checks)`` -- the end-to-end metrics;
* ``trace(seed, seconds, checks)`` -- the per-layer metrics.

All inputs come from ``--seed``.  Every timed unit of work (a "round": one
pass of the generated input through fresh estimators, or one ``run_bench``
call) is the same in every round, so a round's outputs are the same for a
fixed seed and are checked against the first round's.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

from decaystream import (
    DecayedHistogram,
    DecaySpec,
    ExactOracle,
    ExponentialSum,
    FixedWindowView,
    PolynomialSum,
    RandomSource,
    RunningSum,
    WindowSum,
    make_mechanism,
)
from decaystream import bench, cli
from decaystream.bench import ExperimentConfig, build_mechanism, checkpoints, make_stream

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".perfbench_out"
EPS = 1.0
MECHANISM_CLASSES = ("WindowSum", "ExponentialSum", "RunningSum", "FixedWindowView", "PolynomialSum")

WARMUP_S = 1.0  # untimed work first: the interpreter and CPU start slow

_clock_ns = time.perf_counter_ns


class Checks:
    """Correctness checks attempted and failed; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)


def nearest_rank(values, q: float) -> float:
    """The ceil(q*n)-th smallest value."""
    v = np.sort(np.ravel(np.asarray(values, dtype=np.float64)))
    return float(v[max(1, math.ceil(q * len(v))) - 1])


def close(a, b, tol: float = 1e-9) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


def peak_rss_mb(own: bool = True, children: bool = False) -> float:
    """Peak RSS (MB) of this process and/or of its largest waited-for child."""
    kb = 0
    if own:
        kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def timed_pushes(push, xs, lat: array) -> list:
    """Push every x, appending each call's latency (ns) to ``lat``."""
    out = []
    for x in xs:
        t0 = _clock_ns()
        y = push(x)
        lat.append(_clock_ns() - t0)
        out.append(y)
    return out


def traced_bytes(build) -> int:
    """Bytes still allocated (tracemalloc) by the object ``build()`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0] - base
        del kept
        return size
    finally:
        tracemalloc.stop()


def slow_tenth(values) -> float:
    """Nearest-rank 90th percentile over rounds (the slowest round when
    there are ten or fewer).

    Every round does the same work, so rounds differ in time only through
    the machine: on a shared host the CPU has spells, seconds to tens of
    seconds long, in which the same round runs up to 40% faster, and
    whether such spells fill half of a run decides a median over its rounds.
    The slow tenth reads the program at the machine's ordinary speed unless
    fast spells fill nine tenths of the run; a change that slows every round
    moves it in full.
    """
    return nearest_rank(values, 0.90)


def summary(walls, round_lat_ns, updates, trials, q95, rss_mb) -> dict:
    """End-to-end metrics (all but setup_s) of one workload.

    ``round_lat_ns`` holds one array of push latencies per round.  Each
    time figure is the slow tenth (``slow_tenth``) over rounds: of the round
    times, and of each round's latency percentile.
    """
    wall = slow_tenth(walls)
    lats = [np.asarray(lat, dtype=np.float64) / 1e3 for lat in round_lat_ns]

    def per_round(q):
        return slow_tenth([nearest_rank(lat, q) for lat in lats])

    return {
        "metrics": {
            "wall_s": wall,
            "updates_per_s": updates / wall,
            "trials_per_s": trials / wall,
            "push_us_p50": per_round(0.50),
            # not p99: estimator creation (a new WindowSum block every 128
            # pushes on bench-window, a key's first push on cli-histogram) is
            # 0.78% to 1.28% of pushes, so p99 falls on the cliff between the
            # two kinds of push; and higher percentiles move by up to a
            # fifth between runs on a shared machine
            "push_us_p95": per_round(0.95),
            "peak_rss_mb": rss_mb,
            "q95_abs_err": q95,
        },
        "info": {
            "rounds": len(walls),
            "latency_rounds": len(lats),
            "push_samples": sum(lat.size for lat in lats),
            "push_us_p99 (not gated)": per_round(0.99),
            "push_us_p99.5 (not gated)": per_round(0.995),
        },
    }


def layer_metrics(sp, updates: int, **given) -> dict:
    """Per-layer metrics from a span table; ``given`` supplies the rest.

    A metric a workload does not reach reads 0.
    """
    run_bench_s = sp.inclusive_s("bench.run_bench")
    m = {
        "noise.laplace_calls": sp.calls("noise.RandomSource.laplace"),
        "noise.uniform_calls": sp.calls("noise.RandomSource.uniform"),
        "noise.laplace_vector_calls": sp.calls("noise.RandomSource.laplace_vector"),
        "noise.draws": sp.calls("noise.RandomSource.uniform")
        + int(sp.counters.get("noise.vector_draws", 0)),
        "noise.self_s": sp.self_time("noise"),
        "noise.child_calls": sp.calls("noise.RandomSource.child"),
        "noise.child_s": sp.inclusive_s("noise.RandomSource.child"),
        "dyadic.add_calls": sp.calls("dyadic.DyadicTree.add"),
        "dyadic.published_calls": sp.calls("dyadic.DyadicTree.published"),
        "dyadic.evict_calls": sp.calls("dyadic.DyadicTree.evict_covered"),
        "dyadic.evict_s": sp.inclusive_s("dyadic.DyadicTree.evict_covered"),
        "dyadic.self_s": sp.self_time("dyadic"),
        "dyadic.counters_live": 0,
        "mechanisms.self_s": sp.self_time("mechanisms"),
        "mechanisms.PolynomialSum.children": 0,
        "mechanisms.WindowSum.push_calls_per_update": sp.calls("mechanisms.WindowSum.push") / updates,
        "baselines.ExactOracle.self_s": sp.self_time("baselines.ExactOracle"),
        "baselines.RandomizedResponse.self_s": sp.self_time("baselines.RandomizedResponse"),
        "baselines.RunningDiffBaseline.self_s": sp.self_time("baselines.RunningDiffBaseline"),
        "baselines.RunningDiffBaseline.init_s": sp.inclusive_s("baselines.RunningDiffBaseline.init"),
        # base: inclusive time of the run_bench calls (the trial loop runs inside)
        "baselines.share": sp.self_time("baselines") / run_bench_s if run_bench_s else 0.0,
        "bounds.calls": sp.calls("bounds"),
        "bounds.self_s": sp.self_time("bounds"),
        "bench.build_mechanism_s": sp.inclusive_s("bench.build_mechanism"),
        "bench.make_stream_s": sp.inclusive_s("bench.make_stream"),
        "bench.summary_s": sp.inclusive_under("bench.nearest_rank_quantile", "bench.run_bench")
        + sp.inclusive_under("bounds", "bench.run_bench"),
        "bench.self_s": sp.self_time("bench"),
        "extensions.keys_live": int(sp.counters.get("extensions.keys_live", 0)),
        "extensions.make_mechanism_calls": sp.calls_under("mechanisms.make_mechanism", "extensions"),
        "extensions.self_s": sp.self_time("extensions"),
        "extensions.bytes_per_key": 0,
        "cli.self_s": sp.self_time("cli"),
        "cli.output_bytes": 0,
    }
    for name in MECHANISM_CLASSES:
        m[f"mechanisms.{name}.push_us_p50"] = 0.0
        m[f"mechanisms.{name}.bytes"] = 0
    m.update(given)
    return m


def traced_run(fn):
    """Run ``fn()`` under a fresh tracer; return (spans, wall seconds).

    ``fn`` must reach the package through attributes looked up at call time
    (``bench.run_bench``, ``est.push``): names imported into this module are
    not traced.
    """
    from tracing import Tracer

    with Tracer().install() as tracer:
        t0 = time.perf_counter()
        fn()
        wall = time.perf_counter() - t0
    return tracer.spans(), wall


def save_spans(spans, workload: str) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    spans.save(SPANS_DIR / f"{workload}.spans.npz")


def p50_us(lat_ns) -> float:
    return nearest_rank(np.asarray(lat_ns, dtype=np.float64) / 1e3, 0.5)


# ---------------------------------------------------------------------------
# in-process stream workloads


class StreamRounds:
    """Timed rounds of pushing one input through fresh estimators.

    ``lat[name]`` holds every push latency (ns) of that estimator, rounds in
    order, so the arrays of all estimators line up update by update.
    """

    def __init__(self, make, xs, seconds, checks, min_rounds=2):
        warm_until = time.perf_counter() + WARMUP_S
        while time.perf_counter() < warm_until:
            for _, est in make():
                for x in xs[:2000]:
                    est.push(x)
            gc.collect()
        self.walls = []
        lat = {}
        self.first = None
        estimators = None
        deadline = time.perf_counter() + seconds
        while len(self.walls) < min_rounds or time.perf_counter() < deadline:
            # the estimators hold reference cycles; free the last round's now so
            # that peak RSS is one round's footprint, not the GC's backlog
            estimators = None
            gc.collect()
            estimators = make()
            outs = {}
            t0 = time.perf_counter()
            for name, est in estimators:
                outs[name] = timed_pushes(est.push, xs, lat.setdefault(name, array("q")))
            self.walls.append(time.perf_counter() - t0)
            if self.first is None:
                # read before the harness's own latency arrays grow with the
                # number of rounds, which depends on speed
                self.rss_mb = peak_rss_mb()
                self.first = outs
                checks.check(
                    all(np.all(np.isfinite(o)) for o in outs.values()), "non-finite estimate"
                )
            else:
                checks.check(outs == self.first, "same seed gave different outputs across rounds")
        self.lat = {k: np.frombuffer(v, dtype=np.int64) for k, v in lat.items()}

    def per_update(self):
        """Per round, the latency of publishing each update through every
        estimator (ns)."""
        total = sum(self.lat.values())
        return np.split(total, len(self.walls))


class StreamTree:
    """WindowSum(1024), ExponentialSum(0.99), RunningSum, FixedWindowView(1000).

    The gate and the traced run also cover ``PolynomialSum`` (``PolyPass``),
    which has no timed workload of its own.
    """

    n = 10_000
    replicas = 4
    decays = {
        "WindowSum": DecaySpec.window(1024),
        "ExponentialSum": DecaySpec.exponential(0.99),
        "RunningSum": DecaySpec.running(),
        "FixedWindowView": DecaySpec.window(1000),
    }

    def inputs(self, seed):
        return np.random.default_rng(seed).random(self.n).tolist()

    def estimators(self, seed, noisy=True, replica=0):
        rng = RandomSource(seed).child(replica)
        return [
            ("WindowSum", WindowSum(1024, EPS, rng.child(0), noisy=noisy)),
            ("ExponentialSum", ExponentialSum(0.99, EPS, rng.child(1), noisy=noisy)),
            ("RunningSum", RunningSum(EPS, rng.child(2), noisy=noisy)),
            ("FixedWindowView", FixedWindowView(1000, EPS, rng.child(3), noisy=noisy)),
        ]

    def setup(self, seed):
        return self.estimators(seed)

    def exact(self, xs):
        out = {}
        for name, decay in self.decays.items():
            oracle = ExactOracle(decay)
            out[name] = [oracle.push(x) for x in xs]
        return out

    def gate(self, seed, checks):
        xs = self.inputs(seed)
        exact = self.exact(xs)
        csum = np.cumsum(xs)
        checks.check(close(exact["RunningSum"], csum), "ExactOracle running != cumsum")
        for name, W in (("WindowSum", 1024), ("FixedWindowView", 1000)):
            ref = csum - np.concatenate([np.zeros(W), csum[:-W]])
            checks.check(close(exact[name], ref), f"ExactOracle window {W} != cumsum difference")
        for name, est in self.estimators(seed, noisy=False):
            out = [est.push(x) for x in xs]
            checks.check(close(out, exact[name]), f"noise-off {name} != ExactOracle")
        PolyPass().gate(seed, checks)

    def measure(self, seed, seconds, checks):
        xs = self.inputs(seed)
        r = StreamRounds(lambda: self.estimators(seed), xs, seconds, checks)
        exact = self.exact(xs)
        # RunningSum and FixedWindowView errors are set by a handful of
        # long-lived high-level counters, so a quantile over their steps is
        # not repeatable across seeds.  The pooled quantile uses the two
        # estimators whose error is stationary, over independent noise
        # replicas (replica 0 is the timed rounds' output).
        stationary = ("WindowSum", "ExponentialSum")
        outs = [r.first[k] for k in stationary]
        for rep in range(1, self.replicas):
            for name, est in self.estimators(seed, replica=rep)[:2]:
                outs.append([est.push(x) for x in xs])
        errs = np.abs(np.array(outs) - np.array([exact[k] for k in stationary] * self.replicas))
        return summary(r.walls, r.per_update(), 4 * self.n, 1, nearest_rank(errs, 0.95), r.rss_mb)

    def trace(self, seed, seconds, checks):
        xs = self.inputs(seed)
        r = StreamRounds(lambda: self.estimators(seed), xs, seconds / 2, checks)
        estimators = self.estimators(seed)

        def one_round():
            for _, est in estimators:
                for x in xs:
                    est.push(x)

        sp, wall = traced_run(one_round)
        save_spans(sp, "stream-tree")
        given = {f"mechanisms.{k}.push_us_p50": p50_us(v) for k, v in r.lat.items()}
        given["dyadic.counters_live"] = sum(len(est.counters()) for _, est in estimators[1:])
        for name, _ in estimators:
            given[f"mechanisms.{name}.bytes"] = traced_bytes(
                lambda name=name: self._pushed(seed, name, xs)
            )
        given["trace.overhead_ratio"] = wall / statistics.median(r.walls)
        given.update(PolyPass().figures(seed, checks))
        return {"metrics": layer_metrics(sp, 4 * self.n, **given)}

    def _pushed(self, seed, name, xs):
        est = dict(self.estimators(seed))[name]
        for x in xs:
            est.push(x)
        return est


class PolyPass:
    """PolynomialSum(c=2, beta=0.25): the band bank of lagged WindowSums.

    Its gate runs in ``stream-tree``'s gate, and its layer figures (push
    latency, children, bytes) come from untraced passes in ``stream-tree``'s
    traced run, after the traced round.
    """

    n = 5_000
    c = 2.0
    beta = 0.25
    gate_n = 3_000
    bytes_n = 2_000
    passes = 2

    def inputs(self, seed):
        return np.random.default_rng(seed).random(self.n).tolist()

    def estimator(self, seed, noisy=True):
        return PolynomialSum(self.c, self.beta, EPS, RandomSource(seed), noisy=noisy)

    def exact(self, xs):
        """F(i) = sum over ages a of x[i-1-a] * (a+1)**-c, by convolution."""
        w = (np.arange(len(xs)) + 1.0) ** -self.c
        return np.convolve(xs, w)[: len(xs)]

    def gate(self, seed, checks):
        xs = self.inputs(seed)[: self.gate_n]
        F = self.exact(xs)
        oracle = ExactOracle(DecaySpec.polynomial(self.c, self.beta))
        short = [oracle.push(x) for x in xs[:400]]
        checks.check(close(short, F[:400]), "ExactOracle polynomial != convolution")
        est = self.estimator(seed, noisy=False)
        Fp = np.array([est.push(x) for x in xs])
        tol = 1e-9 * np.maximum(1.0, F)
        checks.check(bool(np.all(Fp <= F + tol)), "noise-off poly output above F")
        checks.check(
            bool(np.all(Fp >= (1.0 - self.beta) * F - tol)), "noise-off poly output below (1-beta)F"
        )

    def figures(self, seed, checks):
        """``mechanisms.PolynomialSum.*`` from ``passes`` timed passes."""
        xs = self.inputs(seed)
        lat = array("q")
        outs = []
        for _ in range(self.passes):
            est = self.estimator(seed)
            outs.append(timed_pushes(est.push, xs, lat))
        checks.check(all(o == outs[0] for o in outs), "same seed gave different poly outputs")

        def pushed():  # tracemalloc slows this tenfold, so on a prefix
            e = self.estimator(seed)
            for x in xs[: self.bytes_n]:
                e.push(x)
            return e

        return {
            "mechanisms.PolynomialSum.push_us_p50": p50_us(lat),
            "mechanisms.PolynomialSum.children": len(est.child_windows()),
            "mechanisms.PolynomialSum.bytes": traced_bytes(pushed),
        }


# ---------------------------------------------------------------------------
# Monte-Carlo bench


class BenchWindow:
    """run_bench(mech=window, W=128, T=4096, bernoulli:0.5), 40 trials at jobs=2."""

    trials = 40
    jobs = 2
    chunk = 10
    replay_trials = 200

    def config(self, seed, **kw):
        base = dict(mech="window", W=128, T=4096, source="bernoulli:0.5", seed=seed,
                    trials=self.trials, jobs=self.jobs)
        base.update(kw)
        return ExperimentConfig(**base)

    def setup(self, seed):
        cfg = self.config(seed)
        cfg.decay()
        return cfg

    def gate(self, seed, checks):
        small = dict(T=512, trials=30)
        one = bench.run_bench(self.config(seed, jobs=1, **small))
        two = bench.run_bench(self.config(seed, jobs=2, **small))
        checks.check(one == two, "run_bench rows differ between jobs=1 and jobs=2")
        for row in bench.run_bench(self.config(seed, jobs=1, noisy=False, **small)):
            if row.series in ("window", "running_diff"):
                checks.check(
                    abs(row.mean_err) <= 1e-9 and row.q_err <= 1e-9,
                    f"noise-off {row.series} error at j={row.j}",
                )

    def measure(self, seed, seconds, checks):
        """Timed run_bench rounds, each followed by replaying the next
        ``chunk`` trials, until ``replay_trials`` trials have been replayed
        and ``seconds`` have passed.

        The replay times every push of the mechanism series in-process, in
        every round so that the latency figures sample the whole run, and
        gives q95_abs_err over the first ``replay_trials`` trials.
        """
        cfg = self.config(seed)
        replay = Replay(cfg)
        replay.warm_up()  # the forked bench workers inherit the warm interpreter
        walls = []
        rows0 = None
        deadline = time.perf_counter() + seconds
        while (
            len(walls) < 2
            or replay.next_trial < self.replay_trials
            or time.perf_counter() < deadline
        ):
            t0 = time.perf_counter()
            rows = bench.run_bench(cfg)
            walls.append(time.perf_counter() - t0)
            if rows0 is None:
                rows0 = rows
            else:
                checks.check(rows == rows0, "same seed gave different bench rows across rounds")
            replay.run(self.chunk)
            if len(walls) == 1:
                rss = peak_rss_mb(children=True)
        errs = np.array(replay.errs)
        head = errs[: self.trials]
        for k, row in enumerate(r for r in rows0 if r.series == "window"):
            checks.check(
                row.q_err == nearest_rank(np.abs(head[:, k]), 0.95)
                and row.mean_err == float(np.mean(head[:, k])),
                f"replayed trials disagree with run_bench at j={row.j}",
            )
        q95 = nearest_rank(np.abs(errs[: self.replay_trials]), 0.95)
        return summary(walls, replay.lat, self.trials * cfg.T, self.trials, q95, rss)

    def trace(self, seed, seconds, checks):
        # spans recorded in pool workers stay there, so the traced run is jobs=1
        cfg = self.config(seed, jobs=1)
        walls = []
        deadline = time.perf_counter() + 0.4 * seconds
        while len(walls) < 1 or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            bench.run_bench(cfg)
            walls.append(time.perf_counter() - t0)
        sp, wall = traced_run(lambda: bench.run_bench(cfg))
        save_spans(sp, "bench-window")
        replay = Replay(self.config(seed))
        replay.warm_up()
        replay.run(self.chunk)

        def pushed():
            mech = build_mechanism(cfg, RandomSource(seed))
            for x in make_stream(cfg):
                mech.push(x)
            return mech

        given = {
            "mechanisms.WindowSum.push_us_p50": p50_us(np.concatenate(replay.lat)),
            "mechanisms.WindowSum.bytes": traced_bytes(pushed),
            "trace.overhead_ratio": wall / statistics.median(walls),
        }
        return {"metrics": layer_metrics(sp, cfg.trials * cfg.T, **given)}


class Replay:
    """Replays bench trials of the mechanism series in-process, timing each push.

    Trial t uses bench's own sub-stream for it, so its errors at the
    checkpoints are those run_bench reports for trial t.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.stream = make_stream(cfg)
        oracle = ExactOracle(cfg.decay())
        self.exact = [oracle.push(x) for x in self.stream]
        self.marks = [j - 1 for j in checkpoints(len(self.stream))]
        self.base = RandomSource(cfg.seed).child(1)
        self.next_trial = 0
        self.lat: list[np.ndarray] = []
        self.errs: list[list[float]] = []

    def warm_up(self) -> None:
        """Replay untimed for WARMUP_S, then start again from trial 0."""
        until = time.perf_counter() + WARMUP_S
        while time.perf_counter() < until:
            self.run(1)
        self.lat = []
        self.next_trial = 0

    def run(self, trials: int) -> None:
        """Replay the next ``trials`` trials; their latencies become one array."""
        lat = array("q")
        for t in range(self.next_trial, self.next_trial + trials):
            mech = build_mechanism(self.cfg, self.base.child(t).child(0))
            out = timed_pushes(mech.push, self.stream, lat)
            if t == len(self.errs):
                self.errs.append([out[i] - self.exact[i] for i in self.marks])
        self.next_trial += trials
        self.lat.append(np.frombuffer(lat, dtype=np.int64))


# ---------------------------------------------------------------------------
# CLI histogram


class CliHistogram:
    """decaystream run --histogram --mech window --W 65536 --with-exact."""

    lines = 20_000
    keys = 256
    replicas = 4
    zipf = 1.3
    W = 65536

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        p = np.arange(1, self.keys + 1, dtype=np.float64) ** -self.zipf
        keys = rng.choice(self.keys, size=self.lines, p=p / p.sum())
        xs = rng.random(self.lines)
        return [f"k{k:03d}" for k in keys.tolist()], xs.tolist()

    def argv(self, seed, path, noisy=True):
        a = ["run", "--histogram", "--mech", "window", "--W", str(self.W), "--eps", str(EPS),
             "--seed", str(seed), "--with-exact", "--input", str(path)]
        return a if noisy else a + ["--no-noise"]

    def setup(self, seed):
        args = cli.build_parser().parse_args(self.argv(seed, "input.csv"))
        return self.histogram(args.seed)

    def histogram(self, seed, replica=0):
        """The CLI's histogram (replica 0), or one with independent noise."""
        rng = RandomSource(seed) if replica == 0 else RandomSource(seed).child(replica)
        return DecayedHistogram(DecaySpec.window(self.W), EPS, rng)

    def write_input(self, seed, tmp):
        keys, xs = self.inputs(seed)
        path = tmp / f"hist-{seed}.csv"
        path.write_text("".join(f"{k},{x!r}\n" for k, x in zip(keys, xs)))
        return path, keys, xs

    def run_cli(self, argv, launcher=None):
        cmd = [sys.executable, "-m", "decaystream.cli"] if launcher is None else launcher
        t0 = time.perf_counter()
        proc = subprocess.run(cmd + argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=120)
        return proc, time.perf_counter() - t0

    def parse(self, stdout: bytes, checks):
        text = stdout.decode()
        rows = text.splitlines()
        checks.check(rows[:1] == ["t,key,estimate,exact,abs_error"], "unexpected CLI header")
        keys, est, exact, err = [], [], [], []
        for line in rows[1:]:
            _, key, e, x, a = line.split(",")
            keys.append(key)
            est.append(float(e))
            exact.append(float(x))
            err.append(float(a))
        return keys, np.array(est), np.array(exact), np.array(err)

    def check_exact(self, keys_in, xs, parsed, checks):
        keys, est, exact, err = parsed
        checks.check(keys == keys_in, "CLI rows do not follow the input lines")
        acc: dict[str, float] = {}
        ref = []
        for k, x in zip(keys_in, xs):  # W exceeds the line count: window = running sum
            acc[k] = acc.get(k, 0.0) + x
            ref.append(acc[k])
        checks.check(close(exact, ref), "CLI exact column != per-key running sums")
        checks.check(close(err, np.abs(est - exact), 1e-12), "CLI abs_error != |estimate - exact|")
        return np.array(ref)

    def gate(self, seed, checks):
        with scratch_dir() as tmp:
            path, keys, xs = self.write_input(seed, tmp)
            proc, _ = self.run_cli(self.argv(seed, path, noisy=False))
        if checks.check(proc.returncode == 0, f"--no-noise CLI exit code {proc.returncode}"):
            parsed = self.parse(proc.stdout, checks)
            self.check_exact(keys, xs, parsed, checks)
            checks.check(bool(np.all(parsed[3] <= 1e-9)), "--no-noise abs_error above 1e-9")

    def replay(self, seed, updates, lat, replica=0):
        """Push the input through an in-process DecayedHistogram, timing each push."""
        gc.collect()  # free the previous pass's estimators first
        hist = self.histogram(seed, replica)
        return timed_pushes(lambda kx: hist.push(*kx)[1], updates, lat)

    def measure(self, seed, seconds, checks):
        """Timed CLI rounds, each followed by one in-process replay of the input.

        The replay gives the per-push latencies, including each key's first
        push, which creates its estimator.  Replay r >= 1 draws independent
        noise; q95_abs_err pools the CLI's abs_error column with the errors
        of replays 1 .. ``replicas`` - 1.
        """
        walls = []
        first = None
        lats = []
        with scratch_dir() as tmp:
            path, keys, xs = self.write_input(seed, tmp)
            updates = list(zip(keys, xs))
            self.replay(seed, updates, array("q"))  # warm-up
            deadline = time.perf_counter() + seconds
            while len(walls) < self.replicas or time.perf_counter() < deadline:
                proc, wall = self.run_cli(self.argv(seed, path))
                walls.append(wall)
                checks.check(proc.returncode == 0, f"CLI exit code {proc.returncode}")
                if first is None:
                    first = proc.stdout
                    parsed = self.parse(first, checks)
                    ref = self.check_exact(keys, xs, parsed, checks)
                    errs = [parsed[3]]
                else:
                    checks.check(proc.stdout == first, "same seed gave different CLI output")
                replica = len(walls) - 1
                lats.append(array("q"))
                out = self.replay(seed, updates, lats[-1], replica % self.replicas)
                if replica == 0:
                    checks.check(out == parsed[1].tolist(), "in-process DecayedHistogram != CLI")
                elif replica < self.replicas:
                    errs.append(np.abs(np.array(out) - ref))
        rss = peak_rss_mb(own=False, children=True)  # the CLI processes
        q95 = nearest_rank(errs, 0.95)
        return summary(walls, lats, self.lines, 1, q95, rss)

    def trace(self, seed, seconds, checks):
        walls = []
        spans_path = SPANS_DIR / "cli-histogram.spans.npz"
        SPANS_DIR.mkdir(exist_ok=True)
        launcher = [sys.executable, str(Path(__file__).with_name("worker.py")), "cli-traced",
                    str(spans_path)]
        with scratch_dir() as tmp:
            path, _, _ = self.write_input(seed, tmp)
            deadline = time.perf_counter() + 0.4 * seconds
            while len(walls) < 2 or time.perf_counter() < deadline:
                proc, wall = self.run_cli(self.argv(seed, path))
                checks.check(proc.returncode == 0, f"CLI exit code {proc.returncode}")
                walls.append(wall)
            traced, wall = self.run_cli(self.argv(seed, path), launcher)
        checks.check(traced.returncode == 0, f"traced CLI exit code {traced.returncode}")
        checks.check(traced.stdout == proc.stdout, "traced CLI output differs from untraced")
        from tracing import Spans

        sp = Spans.load(spans_path)
        per_key = 8

        def one_key():
            mech = make_mechanism(DecaySpec.window(self.W), EPS, RandomSource(seed))
            mech.push(0.5)
            return mech

        def hist_keys():
            hist = self.setup(seed)
            for k in range(per_key):
                hist.push(f"k{k:03d}", 0.5)
            return hist

        given = {
            "mechanisms.WindowSum.bytes": traced_bytes(one_key),
            "extensions.bytes_per_key": traced_bytes(hist_keys) / per_key,
            "cli.output_bytes": len(traced.stdout),
            "trace.overhead_ratio": wall / statistics.median(walls),
        }
        return {"metrics": layer_metrics(sp, self.lines, **given)}


@contextlib.contextmanager
def scratch_dir():
    """A per-process directory under the checkout, removed on exit."""
    path = ROOT / ".perfbench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another benchmark process still uses it


WORKLOADS = {
    "stream-tree": StreamTree,
    "bench-window": BenchWindow,
    "cli-histogram": CliHistogram,
}
