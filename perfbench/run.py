"""decaystream benchmark: one workload, its correctness gate and its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each phase runs in a fresh interpreter (``worker.py``), one after
another, so memory and set-up of one phase never count in another:

1. gate    -- noise-off and determinism checks (never timed);
2. setup   -- with ``--trace 0``, SETUP_PROBES fresh interpreters import
              decaystream and build the workload's estimators or config,
              half before and half after the measure phase; ``setup_s`` is
              their median;
3. measure -- with ``--trace 0``, the end-to-end metrics, for about S seconds;
   trace   -- with ``--trace 1``, the per-layer metrics from an untraced and
              a traced run of the same work.

Human-readable lines (each metric with its unit, the sample counts and the
failed-check fraction) come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units are those declared in BENCHMARK.json.  Workloads and metrics are
described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170  # the whole run, all phases together


class BenchError(Exception):
    pass


def worker_env() -> dict:
    src = str(ROOT / "src")
    old = os.environ.get("PYTHONPATH")
    # a fixed hash seed removes one source of speed differences between
    # interpreters; no output depends on it
    return dict(os.environ, PYTHONPATH=src if not old else src + os.pathsep + old,
                PYTHONHASHSEED="0")


def run_worker(deadline: float, *args) -> dict:
    # a session of its own, so a worker that overruns is stopped together
    # with the processes it started (bench pool, CLI)
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *map(str, args)],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(deadline: float, workload: str, seed: int, probes: int) -> list[float]:
    out = []
    for _ in range(probes):
        t0 = time.monotonic_ns()
        ready = run_worker(deadline, "setup", workload, seed)["ready_ns"]
        out.append((ready - t0) / 1e9)
    return out


def check_layout() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "decaystream" / "__init__.py").is_file():
        raise BenchError(f"no decaystream package under {ROOT / 'src'}")
    if not spec_path.is_file():
        raise BenchError(f"missing {spec_path}")
    return json.loads(spec_path.read_text())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        spec = check_layout()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("--seed must be >= 0 and --seconds > 0")
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        gate = run_worker(deadline, "gate", args.workload, args.seed)
        if args.trace:
            result = run_worker(deadline, "trace", args.workload, args.seed, args.seconds)
        else:
            # probes on both sides of the measurement, so one slow spell of
            # a shared machine does not set them all
            setup = setup_seconds(deadline, args.workload, args.seed, SETUP_PROBES // 2)
            result = run_worker(deadline, "measure", args.workload, args.seed, args.seconds)
            setup += setup_seconds(deadline, args.workload, args.seed, SETUP_PROBES - len(setup))
            result["metrics"]["setup_s"] = statistics.median(setup)
            result.setdefault("info", {})["setup_probes"] = len(setup)
        metrics = result["metrics"]
        if set(metrics) != set(declared):
            raise BenchError(
                f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json"
            )
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    attempted = gate["attempted"] + result["attempted"]
    failed = gate["failed"] + result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in sorted(result.get("info", {}).items()):
        print(f"  {key:44s} {value}")
    print(f"  {'ops_failed_frac':44s} {failed / attempted:.6g} ({failed} of {attempted} checks)")
    for name, unit in declared.items():
        print(f"  {name:44s} {metrics[name]:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": u} for n, u in declared.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
