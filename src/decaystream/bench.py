"""Seeded Monte-Carlo benchmark of the private estimators against baselines.

A benchmark run fixes one input stream and measures, over a number of
trials, the chosen mechanism (plus the randomized-response baseline and,
for window mode, the running-difference baseline), each trial with its own
noise.  Errors against the exact oracle are collected at power-of-two
checkpoints and summarised with nearest-rank quantiles next to the
theoretical utility curve and the lower-bound reference.

:class:`ExperimentConfig` is the one reading of a mech and its options for
every command: its decay, its tree estimator (:func:`build_mechanism`, which
also validates it), its stream and its theory profile (:func:`theory_profile`).

Trials run in lockstep: each series is built once per batch of at most
``_LANES`` trials on :class:`~decaystream.noise.RandomLanes`, one lane per
trial, and read at the checkpoints only.  A batch pays per batch, not per
lane or per step.  Every tree mechanism and the running-difference
baseline is read by its ``estimates_at``
(:func:`~decaystream.dyadic.read_at`), with one noise draw per lane that
transforms only the units read.  Randomized response draws and flips a
block of steps at once and is rescaled only at the checkpoints; over a
window or running decay its flips are counted, one cumulative sum per block
(:func:`_rr_at_checkpoints`).
The unit of work is one series on one lane batch.  With ``jobs`` = 1 the
units run in turn in the calling process; with ``jobs`` > 1 they go, in
series order, to a pool of at most ``jobs`` worker processes (never more
than there are units) and an idle worker takes the next unit.  Either way
the stream and its exact values are computed once, and the errors are put
back together by unit.  Trial t always uses the sub-stream
``child(1).child(t)`` of the base seed, and lane t repeats the arithmetic of
trial t run alone bit for bit, so output is bit-identical for a fixed seed
regardless of how many worker processes are used or how trials are batched.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .baselines import (
    ExactOracle,
    RandomizedResponse,
    RunningDiffBaseline,
    decayed_sum,
    rr_flip_parameter,
)
from .bounds import (
    NoiseProfile,
    allwindow_query_profile,
    hoeffding_delta,
    reference_delta,
    utility_delta,
    worst_noise_profile,
)
from .mechanisms import DecaySpec, FixedWindowView, make_mechanism
from .noise import RandomLanes, RandomSource, check_epsilon

_STREAM_CHILD = 0
_TRIAL_CHILD = 1
_LANES = 256  # trials per lockstep batch; bounds the memory of lane arrays
# sub-stream of a trial that each baseline series draws from; the mechanism's is 0
_SERIES_CHILD = {"rr_matched": 1, "rr_raw": 2, "running_diff": 3}
_FLIP_ROWS = 256  # steps whose randomized-response flips are made, and held, at once


# the estimators built on the dyadic tree, and the two baselines `run` also takes
TREE_MECHS = ("window", "allwindow", "exp", "poly", "running")
MECHS = TREE_MECHS + ("rr", "oracle")
# the decay options each tree mech reads; rr and oracle read those of one decay
_DECAY_OPTIONS = {"window": ("W",), "allwindow": ("W",), "exp": ("alpha",),
                  "poly": ("c", "beta"), "running": ()}


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark or run: the only place that reads what a mech and its
    options mean.  Worker processes receive it as it is (it pickles)."""

    mech: str  # one of MECHS
    epsilon: float = 1.0
    gamma: float = 0.05
    trials: int = 100
    T: int = 1024
    seed: int = 0
    source: str = "bernoulli:0.5"  # bernoulli:p | ones | blocks:<period>
    input_path: str | None = None
    W: int | None = None
    alpha: float | None = None
    c: float | None = None
    beta: float | None = None
    noisy: bool = True
    jobs: int = 1

    def __post_init__(self):
        """Refuse, in O(1), an unknown mech, a decay option the mech does not
        read, and a budget, error probability or horizon out of range."""
        if self.mech not in MECHS:
            raise ValueError(f"unknown mechanism {self.mech!r}")
        check_epsilon(self.epsilon)
        stray = [f"--{o}" for o in ("W", "alpha", "c", "beta")
                 if getattr(self, o) is not None and o not in _DECAY_OPTIONS[self._decay_mech()]]
        if stray:
            why = " beside another decay's options" if self.mech in ("rr", "oracle") else ""
            raise ValueError(f"--mech {self.mech} does not read {' '.join(stray)}{why}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        if self.T < 1:
            raise ValueError(f"--T (stream length or horizon) must be >= 1, got {self.T}")

    def _decay_mech(self) -> str:
        """The tree mech whose decay the config estimates: its own, or for ``rr``
        and ``oracle`` the first whose options are given, else the running sum."""
        if self.mech not in ("rr", "oracle"):
            return self.mech
        return next((m for m in ("window", "exp", "poly")
                     if any(getattr(self, o) is not None for o in _DECAY_OPTIONS[m])), "running")

    def decay(self) -> DecaySpec:
        """The decay the config estimates (``rr`` and ``oracle``: see ``_decay_mech``)."""
        mech = self._decay_mech()
        if mech in ("window", "allwindow"):
            if self.W is None:
                raise ValueError(f"--W is required for mech {self.mech!r}")
            return DecaySpec.window(self.W)
        if mech == "exp":
            if self.alpha is None:
                raise ValueError(f"--alpha is required for mech {self.mech!r}")
            return DecaySpec.exponential(self.alpha)
        if mech == "poly":
            if self.c is None or self.beta is None:
                raise ValueError(f"--c and --beta are required for mech {self.mech!r}")
            return DecaySpec.polynomial(self.c, self.beta)
        return DecaySpec.running()


@dataclass(frozen=True)
class ErrorSummary:
    """One benchmark table row: error statistics of one series at one step."""

    series: str
    j: int
    trials: int
    mean_err: float
    sd_err: float
    q_err: float  # nearest-rank (1 - gamma) quantile of |error|
    delta_theory: float | None
    delta_lb_ref: float


class DataError(ValueError):
    """Input data that cannot be used, such as a bad stream line or a stream
    file with no values (exit code 3 on the command line)."""


def parse_stream(lines, keyed: bool = False) -> list:
    """Validate a stream file: one value in [0, 1] per line, or ``key,value``.

    Surrounding whitespace (CRLF endings included) is stripped and blank
    lines are skipped.  The key is everything before the first comma, so a
    key containing a comma leaves a value that is not a number.  Returns the
    values, or (key, value) pairs when ``keyed``; raises :class:`DataError`
    ``line N: ...`` at the first bad line.
    """
    out = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        text = line
        if keyed:
            key, sep, text = line.partition(",")
            if not sep:
                raise DataError(f"line {lineno}: expected key,value: {line!r}")
        try:
            x = float(text)
        except ValueError:
            raise DataError(f"line {lineno}: not a number: {text!r}") from None
        if not 0.0 <= x <= 1.0:
            raise DataError(f"line {lineno}: value {x} outside [0, 1]")
        out.append((key, x) if keyed else x)
    return out


def read_stream(path: str, keyed: bool = False) -> list:
    """Parse a stream file, or stdin for ``-``, with :func:`parse_stream`; a
    file with no values is a :class:`DataError`."""
    if path == "-":
        stream = parse_stream(sys.stdin, keyed)
    else:
        with open(path) as fh:
            stream = parse_stream(fh, keyed)
    if not stream:
        raise DataError(f"stream file {path!r} holds no values")
    return stream


def make_stream(cfg: ExperimentConfig) -> list[float]:
    """Materialise the input stream for a config (deterministic in the seed)."""
    if cfg.input_path is not None:
        return read_stream(cfg.input_path)
    name, _, arg = cfg.source.partition(":")
    if name == "ones":
        return [1.0] * cfg.T
    if name == "bernoulli":
        p = float(arg) if arg else 0.5
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli rate must lie in [0, 1], got {p}")
        u = RandomSource(cfg.seed).child(_STREAM_CHILD).uniforms(cfg.T)
        return (u < p).astype(np.float64).tolist()
    if name == "blocks":
        period = int(arg) if arg else max(1, cfg.W or 1)
        if period < 1:
            raise ValueError(f"block period must be >= 1, got {period}")
        return [float(1 - (i // period) % 2) for i in range(cfg.T)]
    raise ValueError(f"unknown stream source {cfg.source!r}")


def build_mechanism(cfg: ExperimentConfig, rng: RandomSource):
    """The tree estimator of a config (``rr`` and ``oracle`` have none)."""
    if cfg.mech not in TREE_MECHS:
        raise ValueError(f"mech {cfg.mech!r} builds no tree estimator; "
                         f"pick --mech {'|'.join(TREE_MECHS)}")
    decay = cfg.decay()  # refuses missing or bad decay options
    if cfg.mech == "allwindow":
        return FixedWindowView(decay.W, cfg.epsilon, rng, noisy=cfg.noisy)
    return make_mechanism(decay, cfg.epsilon, rng, noisy=cfg.noisy)


def theory_profile(cfg: ExperimentConfig, T: int) -> NoiseProfile:
    """Noise profile of the config's estimator over horizon ``T``."""
    if cfg.mech == "allwindow":
        return allwindow_query_profile(cfg.epsilon, T)
    return worst_noise_profile(cfg.decay(), cfg.epsilon, T)


def checkpoints(T: int) -> list[int]:
    return [1 << k for k in range(T.bit_length()) if (1 << k) <= T]


def _series_names(cfg: ExperimentConfig, binary_stream: bool) -> list[str]:
    names = [cfg.mech]
    if binary_stream:
        names.append("rr_matched")
        if cfg.epsilon < 1.0:
            names.append("rr_raw")
    if cfg.mech == "window":
        names.append("running_diff")
    return names


def _exact_at_checkpoints(cfg: ExperimentConfig, stream) -> list[float]:
    """The exact oracle's values at the checkpoints of ``stream``, whose items
    are values or lane arrays (one value per lane).

    A polynomial decay has no rolling recurrence, so its value is summed
    directly at each checkpoint only, in the oracle's own order; it needs
    ``stream`` as a sequence.  The other decays read it once, in order, so
    any iterable will do."""
    decay = cfg.decay()
    if decay.kind == "polynomial":
        return [decayed_sum(decay, stream, j) for j in checkpoints(len(stream))]
    oracle = ExactOracle(decay)
    exact = []
    for i, x in enumerate(stream, 1):
        v = oracle.push(x)
        if i & (i - 1) == 0:  # i is a power of two: a checkpoint
            exact.append(v)
    return exact


def _rr_flip(cfg: ExperimentConfig, name: str) -> float:
    """Bit-keep bias of an ``rr`` series: budget-matched, or epsilon itself."""
    return rr_flip_parameter(cfg.epsilon) if name == "rr_matched" else cfg.epsilon


def _flip_blocks(rr: RandomizedResponse, rng, stream):
    """Yield the flipped bits of each block of ``_FLIP_ROWS`` steps: shape
    (rows,), or (rows, lanes) on lanes.  ``rng`` draws one uniform per step
    in stream order, as ``rr.push`` does."""
    for i0 in range(0, len(stream), _FLIP_ROWS):
        bits = stream[i0:i0 + _FLIP_ROWS]
        u = rng.uniforms(len(bits))
        yield rr.flip(np.reshape(bits, (-1,) + (1,) * (u.ndim - 1)), u)


def _rr_at_checkpoints(cfg: ExperimentConfig, f: float, rng, stream) -> list:
    """The estimates at the checkpoints of the bit ``stream`` of randomized
    response with keep bias ``f`` on ``rng``, ``==`` to its per-step ``push``.

    A window or running decay sums flips that are exactly 0.0 or 1.0, so
    every partial sum is an integer below 2**53 and its oracle's value at j
    is ``count(j) - count(j - W)`` (the lag dropped for a running sum), with
    ``count`` the running count of flips: each block's counts are one
    ``np.cumsum``, and only those at the checkpoints and their lags are
    kept.  Its all-ones sum is ``min(j, W)``.  Other decays sum the flips,
    and the all-ones stream, with :func:`_exact_at_checkpoints`; a
    polynomial decay keeps all flips, as the per-step oracle keeps its
    buffer.  Either way the rescale runs only at the checkpoints.
    """
    decay = cfg.decay()
    rr = RandomizedResponse(decay, f, rng)
    blocks = _flip_blocks(rr, rng, stream)
    T = len(stream)
    marks = checkpoints(T)
    if decay.kind in ("exponential", "polynomial"):
        flips = (y for block in blocks for y in block)
        if decay.kind == "polynomial":
            flips = list(flips)
        ones = _exact_at_checkpoints(cfg, [1.0] * T)
        return [rr.rescale(s, g) for s, g in zip(_exact_at_checkpoints(cfg, flips), ones)]
    W = decay.W if decay.kind == "window" else T
    lag = [max(j - W, 0) for j in marks]
    kept = set(marks + lag) - {0}
    count = {0: 0.0}
    end = 0  # steps counted so far
    total = 0.0  # their count
    for block in blocks:
        c = total + np.cumsum(block, axis=0)
        mine = [i for i in kept if end < i <= end + len(c)]
        count.update(zip(mine, c[[i - end - 1 for i in mine]]))  # copies the rows kept
        end += len(c)
        total = c[-1]
    return [rr.rescale(count[j] - count[m], float(min(j, W))) for j, m in zip(marks, lag)]


def _is_binary(stream) -> bool:
    return set(stream) <= {0.0, 1.0}


def _run_series(cfg: ExperimentConfig, s: int, t0: int, t1: int, data) -> np.ndarray:
    """Errors of series ``s`` for one lane batch of trials [t0, t1): shape
    (checkpoints, trials).

    The batch is one estimator of the series on lanes of the trials'
    sub-streams (``trial.child(k)``, k from ``_SERIES_CHILD``), read at the
    checkpoints only, ``==`` to its per-step ``push``: randomized response
    by :func:`_rr_at_checkpoints`, every tree estimator and
    ``running_diff`` by its ``estimates_at``.  Each estimate is an array
    with one lane per trial (a float when the series draws no noise).
    ``data`` is the pair (stream, :func:`_exact_at_checkpoints`).
    """
    stream, exact = data
    T = len(stream)
    name = _series_names(cfg, _is_binary(stream))[s]
    base = RandomSource(cfg.seed).child(_TRIAL_CHILD)
    k = _SERIES_CHILD.get(name, 0)
    rng = RandomLanes([base.child(t).child(k) for t in range(t0, t1)])
    if name.startswith("rr"):
        ests = _rr_at_checkpoints(cfg, _rr_flip(cfg, name), rng, stream)
    else:
        runner = (RunningDiffBaseline(cfg.W, T, cfg.epsilon, rng, noisy=cfg.noisy)
                  if name == "running_diff" else build_mechanism(cfg, rng))
        ests = runner.estimates_at(stream, checkpoints(T))
    out = np.empty((len(exact), t1 - t0), dtype=np.float64)
    for idx, est in enumerate(ests):
        out[idx] = est - exact[idx]
    return out


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*n)-th smallest value."""
    if len(values) == 0:
        raise ValueError("no values")
    srt = np.sort(values)
    rank = max(1, math.ceil(q * len(srt)))
    return float(srt[rank - 1])


def _delta_theory(
    cfg: ExperimentConfig, name: str, j: int, T: int, diff: RunningDiffBaseline | None
) -> float | None:
    decay = cfg.decay()
    if name == cfg.mech:
        return utility_delta(theory_profile(cfg, T), cfg.gamma)
    if name.startswith("rr"):
        f = _rr_flip(cfg, name)
        range2 = decay.energy(j) / (f * f)
        return hoeffding_delta(range2, cfg.gamma)
    if name == "running_diff":
        terms = max(1, 2 * (diff._h - 1))  # levels of the padded horizon tree
        return utility_delta(NoiseProfile((diff.counter_scale,) * terms), cfg.gamma)
    return None


def run_bench(cfg: ExperimentConfig) -> list[ErrorSummary]:
    """Execute the benchmark and return summary rows in deterministic order."""
    if cfg.trials < 30:
        raise ValueError(f"need at least 30 trials, got {cfg.trials}")
    if cfg.jobs < 1:
        raise ValueError(f"need at least 1 job, got {cfg.jobs}")
    build_mechanism(cfg, RandomSource(cfg.seed))  # refuses a bad config in O(1)
    stream = make_stream(cfg)
    T = len(stream)
    marks = checkpoints(T)
    names = _series_names(cfg, _is_binary(stream))
    # one unit per series and lane batch
    units = [(s, b0, min(b0 + _LANES, cfg.trials))
             for s in range(len(names)) for b0 in range(0, cfg.trials, _LANES)]
    n = len(units)
    data = stream, _exact_at_checkpoints(cfg, stream)
    args = [cfg] * n, *zip(*units), [data] * n
    if cfg.jobs == 1:
        parts = list(map(_run_series, *args))
    else:
        # imported here: the process pool costs every other run its import time
        from concurrent.futures import ProcessPoolExecutor

        # an idle worker takes the next unit
        with ProcessPoolExecutor(max_workers=min(cfg.jobs, n)) as pool:
            parts = list(pool.map(_run_series, *args))
    errors = np.empty((len(names), len(marks), cfg.trials))
    for (s, b0, b1), part in zip(units, parts):
        errors[s, :, b0:b1] = part
    decay = cfg.decay()
    lb = reference_delta(decay, cfg.gamma, cfg.epsilon)
    # the baseline's noise scale and height, read from the baseline itself
    diff = (RunningDiffBaseline(cfg.W, T, cfg.epsilon, RandomSource(0))
            if "running_diff" in names else None)
    rows = []
    for s, name in enumerate(names):
        for idx, j in enumerate(marks):
            errs = errors[s, idx, :]
            rows.append(
                ErrorSummary(
                    series=name,
                    j=j,
                    trials=cfg.trials,
                    mean_err=float(np.mean(errs)),
                    sd_err=float(np.std(errs, ddof=1)),
                    q_err=nearest_rank_quantile(np.abs(errs), 1.0 - cfg.gamma),
                    delta_theory=_delta_theory(cfg, name, j, T, diff),
                    delta_lb_ref=lb,
                )
            )
    return rows
