"""The benchmark's hooks must still run against the package.

``perfbench/tracing.py`` wraps the package's public functions and methods by
name at run time, and ``perfbench/workloads.py`` drives the estimators
through their public API; renaming or reshaping one of them would otherwise
fail only the benchmark run.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from decaystream import baselines, bench, dyadic, mechanisms
from decaystream.noise import RandomSource

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_against_the_package():
    tracing = load("tracing")
    before = dict(vars(dyadic.DyadicTree))
    tracer = tracing.Tracer().install()  # raises if a traced name is gone
    try:
        wrapped = [
            name
            for name, member in vars(dyadic.DyadicTree).items()
            if inspect.isfunction(member) and member is not before[name]
        ]
        assert wrapped, "no dyadic.DyadicTree method was wrapped"
        assert {"add_path", "add", "published", "counters"} <= set(wrapped)
    finally:
        tracer.uninstall()
    assert dict(vars(dyadic.DyadicTree)) == before


def test_every_growing_tree_reader_push_traces_one_base_push():
    # the readers subclass AllWindowSum and take their node from its push,
    # looked up at call time: each traced push holds exactly one
    # mechanisms.AllWindowSum.push span, so the benchmark's per-layer
    # attribution sees the base push also after the subclassing
    tracing = load("tracing")
    readers = {
        "RunningSum": mechanisms.RunningSum(1.0, RandomSource(0)),
        "FixedWindowView": mechanisms.FixedWindowView(6, 1.0, RandomSource(1)),
        "PolynomialSum": mechanisms.PolynomialSum(2.0, 0.25, 1.0, RandomSource(2)),
    }
    pushes = 40
    tracer = tracing.Tracer().install()
    try:
        for est in readers.values():
            for _ in range(pushes):
                est.push(0.5)
    finally:
        tracer.uninstall()
    names = np.array(tracer.names)[np.frombuffer(tracer.name_id, dtype=np.int64)]
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    base = np.flatnonzero(names == "mechanisms.AllWindowSum.push")
    for name in readers:
        spans = np.flatnonzero(names == f"mechanisms.{name}.push")
        assert len(spans) == pushes, name
        children = np.bincount(parent[base], minlength=len(parent))[spans]
        assert children.tolist() == [1] * pushes, name
    assert len(base) == pushes * len(readers)


def test_every_running_diff_push_traces_one_window_sum_push():
    # the baseline is a WindowSum whose one block spans its horizon, and its
    # push calls WindowSum.push, looked up at call time: each traced
    # baseline push holds exactly one mechanisms.WindowSum.push span
    tracing = load("tracing")
    straw = baselines.RunningDiffBaseline(5, 100, 1.0, RandomSource(0))
    pushes = 40
    tracer = tracing.Tracer().install()
    try:
        for _ in range(pushes):
            straw.push(0.5)
    finally:
        tracer.uninstall()
    names = np.array(tracer.names)[np.frombuffer(tracer.name_id, dtype=np.int64)]
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    base = np.flatnonzero(names == "mechanisms.WindowSum.push")
    spans = np.flatnonzero(names == "baselines.RunningDiffBaseline.push")
    assert len(spans) == len(base) == pushes
    children = np.bincount(parent[base], minlength=len(parent))[spans]
    assert children.tolist() == [1] * pushes


def test_poly_hooks_run_against_the_package():
    # the (1 - beta) F <= F' <= F gate and the PolynomialSum layer figures
    workloads = load("workloads")
    checks = workloads.Checks()
    poly = workloads.PolyPass()
    poly.gate(1, checks)
    figures = poly.figures(1, checks)
    assert checks.attempted > 0
    assert checks.failed == 0
    assert figures["mechanisms.PolynomialSum.children"] > 1
    assert figures["mechanisms.PolynomialSum.bytes"] > 0


def test_stream_tree_gate_passes():
    # noise-off window, fixed-window, running and exponential outputs against
    # ExactOracle over the workload's 1e4 updates, then the poly (1 - beta) gate
    workloads = load("workloads")
    checks = workloads.Checks()
    workloads.StreamTree().gate(1, checks)
    assert checks.attempted > 0
    assert checks.failed == 0


def test_bench_window_gate_and_replay_agree_with_run_bench():
    # bench-window's gate, then its == check of run_bench rows against
    # trials replayed one at a time on scalar sources (BenchWindow.measure)
    workloads = load("workloads")
    checks = workloads.Checks()
    bench_window = workloads.BenchWindow()
    bench_window.gate(1, checks)
    cfg = bench_window.config(1, T=512, trials=30)
    replay = workloads.Replay(cfg)
    replay.run(cfg.trials)
    errs = np.array(replay.errs)
    for k, row in enumerate(r for r in bench.run_bench(cfg) if r.series == "window"):
        checks.check(
            row.q_err == workloads.nearest_rank(np.abs(errs[:, k]), 0.95)
            and row.mean_err == float(np.mean(errs[:, k])),
            f"replayed trials disagree with run_bench at j={row.j}",
        )
    assert checks.attempted > len(errs[0])
    assert checks.failed == 0
