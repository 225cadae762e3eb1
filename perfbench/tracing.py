"""In-memory span tracer that wraps decaystream's public entry points at run time.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each target
function or method by a wrapper (in every ``decaystream`` module namespace
that holds it, so ``from .x import f`` aliases are covered too) and
``uninstall`` puts the originals back.  Each call becomes one span
``(name, start_ns, end_ns, parent span, run id)``, kept in flat arrays and
written out once at the end with :meth:`Spans.save`.

A span's self time is its duration minus the durations of its direct child
spans.  Calls are synchronous and single-threaded, so children nest inside
their parent and that difference is the time the parent spent in its own
code, including any private helper that is not wrapped.  Generator functions
are never wrapped: their body runs after the call returns, so its time is
counted as self time of the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

_now = time.perf_counter_ns


def entry_points():
    """(owner, attribute, span name, hook) for every traced public entry point.

    The span name is ``<module>.<qualified name>``; its first component is the
    layer.  A hook ``hook(tracer, args, result)`` runs after a call returns.
    """
    from decaystream import baselines, bench, bounds, cli, dyadic, extensions, mechanisms, noise

    def count_vector_draws(tr, args, result):
        tr.count("noise.vector_draws", len(result))

    def remember_histogram(tr, args, result):
        tr.objects.setdefault("histogram", args[0])

    targets = []
    for attr in ("child", "uniform", "laplace", "laplace_vector"):
        hook = count_vector_draws if attr == "laplace_vector" else None
        targets.append((noise.RandomSource, attr, f"noise.RandomSource.{attr}", hook))
    for fn in ("laplace_from_uniform", "laplace_sample", "level_epsilons", "zeta"):
        targets.append((noise, fn, f"noise.{fn}", None))
    for attr, member in vars(dyadic.DyadicTree).items():
        if attr.startswith("_") or not inspect.isfunction(member):
            continue
        if inspect.isgeneratorfunction(member):
            continue
        targets.append((dyadic.DyadicTree, attr, f"dyadic.DyadicTree.{attr}", None))
    for cls in (
        mechanisms.WindowSum,
        mechanisms.AllWindowSum,
        mechanisms.RunningSum,
        mechanisms.FixedWindowView,
        mechanisms.ExponentialSum,
        mechanisms.PolynomialSum,
    ):
        targets.append((cls, "push", f"mechanisms.{cls.__name__}.push", None))
    targets.append((mechanisms, "make_mechanism", "mechanisms.make_mechanism", None))
    for cls in (baselines.ExactOracle, baselines.RandomizedResponse, baselines.RunningDiffBaseline):
        targets.append((cls, "push", f"baselines.{cls.__name__}.push", None))
    targets.append(
        (baselines.RunningDiffBaseline, "__init__", "baselines.RunningDiffBaseline.init", None)
    )
    targets.append((baselines, "decayed_sum", "baselines.decayed_sum", None))
    for name, member in vars(bounds).items():
        if (
            inspect.isfunction(member)
            and member.__module__ == bounds.__name__
            and not name.startswith("_")
        ):
            targets.append((bounds, name, f"bounds.{name}", None))
    for fn in ("run_bench", "build_mechanism", "make_stream", "nearest_rank_quantile", "checkpoints"):
        targets.append((bench, fn, f"bench.{fn}", None))
    targets.append(
        (extensions.DecayedHistogram, "push", "extensions.DecayedHistogram.push", remember_histogram)
    )
    for fn in ("main", "cmd_run", "cmd_bench", "cmd_bound", "cmd_lbverify"):
        targets.append((cli, fn, f"cli.{fn}", None))
    return targets


class Tracer:
    """Span recorder; single-threaded, one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.current = -1
        self.run_id = 0
        self.counters: dict[str, float] = {}
        self.objects: dict[str, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, name, hook):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tr.current
            idx = len(tr.start)
            tr.name_id.append(nid)
            tr.parent.append(parent)
            tr.run.append(tr.run_id)
            tr.end.append(0)
            tr.current = idx
            tr.start.append(_now())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = _now()
                tr.current = parent
            if hook is not None:
                hook(tr, args, result)
            return result

        return traced

    def install(self, targets=None) -> "Tracer":
        for owner, attr, name, hook in entry_points() if targets is None else targets:
            original = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
            traced = self._wrap(original, name, hook)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, traced)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "decaystream" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, traced)
        return self

    def _patch(self, owner, attr, original, traced):
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self) -> "Spans":
        return Spans(
            list(self.names),
            np.frombuffer(self.name_id, dtype=np.int64).copy(),
            np.frombuffer(self.start, dtype=np.int64).copy(),
            np.frombuffer(self.end, dtype=np.int64).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.run, dtype=np.int64).copy(),
            dict(self.counters),
        )


class Spans:
    """Recorded spans as numpy columns, with self-time aggregation."""

    def __init__(self, names, name_id, start, end, parent, run, counters):
        self.names = names
        self.name_id = name_id
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.counters = counters
        dur = (end - start).astype(np.float64) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self.dur = dur
        self.self_s = dur - child
        k = len(names)
        self._count = np.bincount(name_id, minlength=k)
        self._incl = np.bincount(name_id, weights=dur, minlength=k)
        self._self = np.bincount(name_id, weights=self.self_s, minlength=k)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            start=self.start,
            end=self.end,
            parent=self.parent,
            run=self.run,
            counters=np.array(json.dumps(self.counters)),
        )

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as f:
            return cls(
                [str(n) for n in f["names"]],
                f["name_id"],
                f["start"],
                f["end"],
                f["parent"],
                f["run"],
                json.loads(str(f["counters"])),
            )

    def _select(self, prefix: str) -> list[int]:
        return [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]

    def calls(self, prefix: str) -> int:
        """Spans whose name is ``prefix`` or lies under it."""
        return int(sum(self._count[i] for i in self._select(prefix)))

    def inclusive_s(self, prefix: str) -> float:
        return float(sum(self._incl[i] for i in self._select(prefix)))

    def self_time(self, prefix: str) -> float:
        return float(sum(self._self[i] for i in self._select(prefix)))

    def calls_under(self, prefix: str, parent_prefix: str) -> int:
        """Spans under ``prefix`` whose direct parent lies under ``parent_prefix``."""
        return int(self._under(prefix, parent_prefix).sum())

    def inclusive_under(self, prefix: str, parent_prefix: str) -> float:
        return float(self.dur[self._under(prefix, parent_prefix)].sum())

    def _under(self, prefix, parent_prefix):
        mine = np.isin(self.name_id, self._select(prefix))
        ok = self.parent >= 0
        parent_ids = np.full(len(self.parent), -1)
        parent_ids[ok] = self.name_id[self.parent[ok]]
        return mine & np.isin(parent_ids, self._select(parent_prefix))
