"""Where a polynomial-decay ``bench`` spends its time, from a traced run.

    python3 perfbench/poly_oracle.py [--T 1024] [--trials 30] [--seed 7]

Runs ``run_bench(mech=poly, c=2, beta=0.25)`` at jobs=1 with the bench, the
oracle, the baselines and ``PolynomialSum.push`` traced, and prints each
one's inclusive time as a share of ``run_bench``.  The polynomial oracle
(``decayed_sum``, called on every step by ``ExactOracle`` inside randomized
response) re-sums the whole prefix, so it is O(T^2) per trial.  This is why
the benchmark has no polynomial ``bench`` workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from decaystream import bench  # noqa: E402
from tracing import Tracer, entry_points  # noqa: E402

TRACED = (
    "bench.run_bench",
    "bench.make_stream",
    "baselines.decayed_sum",
    "baselines.ExactOracle.push",
    "baselines.RandomizedResponse.push",
    "mechanisms.PolynomialSum.push",
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--T", type=int, default=1024)
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    cfg = bench.ExperimentConfig(mech="poly", c=2.0, beta=0.25, T=args.T, trials=args.trials,
                                 seed=args.seed, jobs=1)
    with Tracer().install([t for t in entry_points() if t[2] in TRACED]) as tracer:
        bench.run_bench(cfg)
    sp = tracer.spans()
    total = sp.inclusive_s("bench.run_bench")
    report = {"config": {"T": args.T, "trials": args.trials, "seed": args.seed},
              "run_bench_s": total}
    for name in TRACED[1:]:
        report[name] = {"calls": sp.calls(name), "inclusive_s": sp.inclusive_s(name),
                        "share": sp.inclusive_s(name) / total}
    for name in TRACED[1:]:
        r = report[name]
        print(f"{name:36s} {r['calls']:>9d} calls {r['inclusive_s']:8.3f} s {r['share']:6.1%}")
    print(f"{'bench.run_bench':36s} {'':>15s} {total:8.3f} s")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
