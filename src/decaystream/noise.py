"""Seeded randomness, Laplace sampling and the per-level privacy budget schedule.

All randomness in the library flows through :class:`RandomSource`, a splittable
counter-based generator (Philox) so that any experiment is reproducible from a
single 64-bit seed and independent sub-streams can be handed to parallel
trials, tree nodes or histogram keys.  :class:`RandomLanes` draws from many
fresh sources in lockstep, one numpy lane per source, so one checkpoint
reader can read many Monte-Carlo trials at once.

This generator is NOT cryptographically secure and the Laplace sampler works
in plain IEEE double precision (no snapping / discretisation).  The library
studies the accuracy of private estimators, not attack resistance; do not use
it to protect real data against an adversary exploiting floating-point
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

_BUFFER = 4096

# exponent beta of every growing tree's level schedule eps_k = epsilon / (zeta(beta) * k**beta)
SCHEDULE_BETA = 2.0


def laplace_from_uniform(u, b: float):
    """Inverse-CDF transform of u in (-1/2, 1/2) to a zero-mean Laplace(b) draw.

    The one transform behind every sampler: both of :class:`RandomSource`
    and that of :class:`RandomLanes`.  ``u``
    is a float or a numpy array (transformed elementwise, returning an
    array).  u = 0 maps to the median 0; the endpoints +-1/2 are excluded to
    avoid log(0).
    """
    if not b > 0.0:
        raise ValueError(f"Laplace scale must be positive, got {b}")
    a = np.abs(u)
    if not np.all(a < 0.5):
        raise ValueError(f"uniform input must lie in (-1/2, 1/2), got {u}")
    out = -b * np.sign(u) * np.log(1.0 - 2.0 * a)
    return out if isinstance(out, np.ndarray) else float(out)


def _centred(u: np.ndarray) -> np.ndarray:
    """Uniforms u in [0, 1), centred as u - 1/2 for :func:`laplace_from_uniform`.

    The draw u = 0 would give log(0); like u = 1/2 it maps to the median 0
    (probability 2**-53 per draw).
    """
    v = u - 0.5
    v[u == 0.0] = 0.0
    return v


class RandomSource:
    """Deterministic splittable random source.

    Identical seeds give identical draw sequences on every platform.
    ``child(i)`` derives an independent stream for each index ``i``, so
    parallel trials never share state.  The generator is built on the first
    draw, so a source that only derives children (``base.child(t)`` in
    ``base.child(t).child(k)``) builds none.  Single-owner: a source may be
    moved between threads but must never be used concurrently.
    """

    def __init__(self, seed: int, _path: tuple = ()):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = int(seed)
        self._path = tuple(_path)
        self._buf: list[float] = []
        self._pos = 0

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self._path))
        )

    def child(self, index: int) -> "RandomSource":
        """Derive the ``index``-th independent sub-stream (index < 2**64)."""
        if not 0 <= index < 2**64:
            raise ValueError(f"child index out of range: {index}")
        return RandomSource(self.seed, self._path + (index & 0xFFFFFFFF, index >> 32))

    def uniform(self) -> float:
        """One double in [0, 1)."""
        if self._pos >= len(self._buf):
            self._buf = self._gen.random(_BUFFER).tolist()
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def uniforms(self, n: int) -> np.ndarray:
        """What n calls of :meth:`uniform` return, as one array, from the
        same buffer."""
        out: list[float] = []
        while len(out) < n:
            if self._pos >= len(self._buf):
                self._buf = self._gen.random(_BUFFER).tolist()
                self._pos = 0
            take = self._buf[self._pos:self._pos + n - len(out)]
            self._pos += len(take)
            out += take
        return np.array(out, dtype=np.float64)

    def laplace(self, b: float) -> float:
        """One zero-mean Laplace(b) draw via the inverse CDF (the scalar
        form of :func:`_centred`)."""
        u = self.uniform()
        return laplace_from_uniform(u - 0.5 if u else 0.0, b)

    def laplace_vector(self, b: float, n: int) -> np.ndarray:
        """n independent Laplace(b) draws (vectorised, same transform)."""
        return laplace_from_uniform(_centred(self._gen.random(n)), b)

    def laplace_rows(self, b: float, n: int, rows) -> np.ndarray:
        """``laplace_vector(b, n)[rows]``, leaving the generator as that call
        would (:func:`_laplace_rows`)."""
        return _laplace_rows([self._gen], b, n, rows)[:, 0]


class RandomLanes:
    """Fresh random sources drawn in lockstep, one lane per source.

    Each draw is a numpy array whose lane t holds exactly what source t
    would have drawn alone, so a checkpoint reader (``estimates_at``) on
    lanes reads one trial per lane: the estimators create noise nodes in an
    order that does not depend on the data, and a scalar counter plus a
    lane array of noise repeats each trial's IEEE operations in the scalar
    order.  Estimators on lanes are read, never pushed.  Every lane's
    uniforms come from its own source's generator, drawn straight into its
    row of one (lanes, n) matrix, and :meth:`laplace_rows` transforms the
    units read in one call.  numpy's elementwise ``log`` rounds an element
    the same wherever it sits in the array, so each lane equals its
    source's :meth:`RandomSource.laplace_vector` bit for bit:
    ``tests/test_noise.py`` checks the one-matrix transform against
    per-column transforms on the int64 bit patterns, at lengths that are not
    multiples of the SIMD width, on contiguous and strided input.
    """

    def __init__(self, sources):
        self._sources = list(sources)
        if not self._sources:
            raise ValueError("need at least one lane")
        if any(s._buf for s in self._sources):
            raise ValueError("lanes need sources with no buffered uniform draws")
        self._buf = np.empty((0, len(self._sources)))
        self._pos = 0

    def uniforms(self, n: int) -> np.ndarray:
        """What n calls of :meth:`RandomSource.uniform` return per lane,
        stacked: shape (n, lanes)."""
        parts = []
        while n:
            if self._pos >= len(self._buf):
                buf = np.empty((len(self._sources), _BUFFER))
                for s, row in zip(self._sources, buf):
                    s._gen.random(out=row)
                self._buf, self._pos = buf.T, 0
            take = self._buf[self._pos:self._pos + n]
            self._pos += len(take)
            n -= len(take)
            parts.append(take)
        return np.concatenate(parts or [self._buf[:0]])

    def laplace_rows(self, b: float, n: int, rows) -> np.ndarray:
        """The ``rows`` of n Laplace(b) draws per lane, shape (len(rows),
        lanes), leaving every lane's generator as
        :meth:`RandomSource.laplace_vector` would (:func:`_laplace_rows`)."""
        return _laplace_rows([s._gen for s in self._sources], b, n, rows)


def _laplace_rows(gens, b: float, n: int, rows) -> np.ndarray:
    """The ``rows`` of n Laplace(b) draws per generator in ``gens``, shape
    (len(rows), len(gens)).

    Each generator draws its n uniforms in chunks of at most ``_BUFFER``,
    so it ends as after one ``random(n)`` call, and keeps only the rows
    read.  Only those are transformed: the transform is elementwise, and
    rounds a value the same wherever it sits (see :class:`RandomLanes`).
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.size and not (0 <= rows.min() and rows.max() < n):
        raise ValueError(f"rows must lie in [0, {n})")
    u = np.empty((len(gens), len(rows)))
    for c0 in range(0, n, _BUFFER):
        m = min(_BUFFER, n - c0)
        mine = (c0 <= rows) & (rows < c0 + m)
        at = rows[mine] - c0
        for gen, row in zip(gens, u):
            row[mine] = gen.random(m)[at]
    return laplace_from_uniform(_centred(u.T), b)


@dataclass(frozen=True)
class LaplaceScale:
    """Scale parameter b of a zero-mean Laplace distribution (variance 2*b**2)."""

    b: float

    def __post_init__(self):
        if not self.b > 0.0:
            raise ValueError(f"Laplace scale must be positive, got {self.b}")

    @property
    def variance(self) -> float:
        return 2.0 * self.b * self.b


def laplace_sample(rng: RandomSource, scale: LaplaceScale) -> float:
    """One draw from the zero-mean Laplace distribution with the given scale."""
    return rng.laplace(scale.b)


@lru_cache(maxsize=None)
def zeta(beta: float) -> float:
    """Riemann zeta via truncated series plus Euler-Maclaurin tail.

    Accurate to well below 1e-12 for beta > 1; beta = 2 short-circuits to the
    closed form pi**2 / 6.
    """
    if not beta > 1.0:
        raise ValueError(f"zeta series diverges for beta <= 1, got {beta}")
    if beta == 2.0:
        return math.pi**2 / 6.0
    n = 1_000_000
    k = np.arange(1, n, dtype=np.float64)
    head = float(np.sum(k**-beta))
    tail = (
        n ** (1.0 - beta) / (beta - 1.0)
        + 0.5 * n**-beta
        + beta * n ** (-beta - 1.0) / 12.0
    )
    return head + tail


def check_epsilon(epsilon: float) -> None:
    """Refuse a privacy budget that is not finite and positive."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


def level_epsilons(epsilon: float, beta: float, k_max: int) -> list[float]:
    """Per-level budgets eps_k = epsilon / (zeta(beta) * k**beta), k = 1..k_max.

    The infinite series sums to exactly ``epsilon``, so any finite prefix
    stays strictly below it.  The growing trees of
    :mod:`~decaystream.mechanisms` draw level k's noise at scale ``1 / eps_k``.
    """
    check_epsilon(epsilon)
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    z = zeta(beta)
    return [epsilon / (z * k**beta) for k in range(1, k_max + 1)]
