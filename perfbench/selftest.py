"""Self-test of the benchmark harness (takes a few minutes).

    python3 perfbench/selftest.py

Checks that
* BENCHMARK.json declares well-formed names, units and bounds;
* a deliberately wrong stand-in estimator (every output off by one) fails
  the correctness gate, so ``ops_failed_frac`` would be above 0;
* every workload, traced and untraced, prints exactly the metrics that
  BENCHMARK.json declares, with their units, and passes its own checks;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src on the path)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class OffByOne:
    """Stand-in estimator whose every output is one too high."""

    def __init__(self, inner):
        self.inner = inner

    def push(self, x):
        return self.inner.push(x) + 1.0


class WrongTree(workloads.StreamTree):
    def estimators(self, seed, noisy=True):
        ests = super().estimators(seed, noisy)
        name, est = ests[0]
        return [(name, OffByOne(est))] + ests[1:]


class WrongPoly(workloads.PolyPass):
    def estimator(self, seed, noisy=True):
        return OffByOne(super().estimator(seed, noisy))


def check_spec(spec) -> list[str]:
    errors = []
    names = [w["name"] for w in spec["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for m in spec[section]:
            names.append(m["name"])
            if not UNIT.fullmatch(m["unit"]):
                errors.append(f"bad unit {m['unit']!r}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound of {m['name']} outside (0, 0.25]")
    errors += [f"bad name {n!r}" for n in names if not NAME.fullmatch(n)]
    errors += [f"name {n!r} used twice" for n in set(names) if names.count(n) > 1]
    if not any(m["name"] == "setup_s" for m in spec["end_to_end"]):
        errors.append("no setup_s metric")
    return errors


def check_wrong_estimators() -> list[str]:
    errors = []
    for cls in (WrongTree, WrongPoly):
        checks = workloads.Checks()
        with contextlib.redirect_stderr(io.StringIO()):  # the expected failures
            cls().gate(1, checks)
        if not checks.failed > 0:
            errors.append(f"{cls.__name__}: gate did not catch an off-by-one estimator")
    return errors


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600,
    )


def check_outputs(spec) -> list[str]:
    errors = []
    for w in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", 3, "--seconds", 1,
                             "--trace", trace)
            where = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit code {proc.returncode}")
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(out)}")
            if not (out["correct"] and out["failed"] == 0 and out["attempted"] >= 1):
                errors.append(f"{where}: {out['failed']} of {out['attempted']} checks failed")
            declared = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != declared:
                errors.append(f"{where}: metrics/units differ from BENCHMARK.json")
            for k, v in out["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not NAME.fullmatch(k):
                    errors.append(f"{where}: bad metric {k}={v['value']!r}")
                if section == "end_to_end" and not v["value"] > 0:
                    errors.append(f"{where}: end-to-end metric {k} is not positive")
    return errors


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in Path(__file__).parent.glob("*"):
            if f.is_file():
                shutil.copy(f, bare / "perfbench")
        proc = run_bench(bare, "--workload", "stream-tree", "--seed", 1, "--seconds", 1,
                         "--trace", 0)
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["benchmark ran without the source tree"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for step in (check_spec, check_wrong_estimators, check_bare_directory, check_outputs):
        found = step(spec) if step in (check_spec, check_outputs) else step()
        print(f"{step.__name__}: {'ok' if not found else 'FAIL'}")
        errors += found
    for e in errors:
        print(f"  {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
