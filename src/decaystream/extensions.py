"""Predicate sums, distinct counting and per-key decayed histograms.

A per-item predicate maps each universe element to [0, 1] independently, so
feeding predicate values into a private decayed-sum estimator inherits its
privacy and accuracy unchanged.  A stream-dependent (holistic) predicate
that changes at most k output positions under one substituted input costs a
k-fold privacy factor, paid by a predicate stream whose inner estimator runs
at budget epsilon / k.  The distinct count is the 2-sensitive predicate sum
of first-occurrence indicators.  Histograms route each update to exactly one
per-key estimator, so the input is partitioned and the overall budget stays
epsilon.
"""

from __future__ import annotations

import hashlib
from typing import Callable

from .mechanisms import DecaySpec, make_mechanism
from .noise import RandomSource, check_epsilon


class PredicateStream:
    """Applies a per-item predicate and feeds its values to the estimator
    ``inner``."""

    def __init__(self, predicate: Callable[[object], float], inner):
        self.predicate = predicate
        self.inner = inner

    def push(self, u) -> float:
        p = self.predicate(u)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"predicate value {p!r} outside [0, 1] for input {u!r}")
        return self.inner.push(p)


class KSensitiveStream(PredicateStream):
    """Holistic-predicate sum with a declared sensitivity k.

    ``predicate`` may keep state across calls but must change at most k
    positions of its output sequence when one input is substituted.  The
    inner estimator runs at budget epsilon / k, so the whole stream is
    epsilon-private.
    """

    def __init__(
        self,
        predicate: Callable[[object], float],
        k: int,
        decay: DecaySpec,
        epsilon: float,
        rng: RandomSource,
        *,
        noisy: bool = True,
    ):
        if k < 1:
            raise ValueError(f"sensitivity k must be >= 1, got {k}")
        check_epsilon(epsilon)
        super().__init__(predicate, make_mechanism(decay, epsilon / k, rng, noisy=noisy))
        self.k = k
        self.epsilon = epsilon
        assert abs(self.k * self.inner.epsilon - self.epsilon) < 1e-12 * self.epsilon


class DistinctCount(KSensitiveStream):
    """Private running count of distinct elements seen so far.

    The first-occurrence predicate changes at most two output positions when
    one update is substituted, so this is its 2-sensitive predicate sum: a
    running-sum estimator at budget epsilon / 2.  The seen-set is exact;
    approximate membership would add error the privacy analysis does not
    cover.
    """

    def __init__(self, epsilon: float, rng: RandomSource, *, noisy: bool = True):
        seen = self.seen = set()

        def first_occurrence(u) -> float:
            if u in seen:
                return 0.0
            seen.add(u)
            return 1.0

        super().__init__(first_occurrence, 2, DecaySpec.running(), epsilon, rng, noisy=noisy)


def _key_index(key) -> int:
    data = key if isinstance(key, bytes) else str(key).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


class DecayedHistogram:
    """Per-key decayed sums sharing one decay spec and budget.

    Keys are opaque strings or bytes and the key set is treated as public
    (standard for event-level privacy over partitioned streams).  Each key's
    estimator is created lazily with a sub-stream seeded from a stable hash
    of the key, so results do not depend on arrival order of other keys.
    """

    def __init__(
        self,
        decay: DecaySpec,
        epsilon: float,
        rng: RandomSource,
        *,
        noisy: bool = True,
    ):
        check_epsilon(epsilon)
        self.decay = decay
        self.epsilon = epsilon
        self.noisy = noisy
        self._rng = rng
        self._mechs: dict = {}

    def push(self, key, x: float) -> tuple[object, float]:
        mech = self._mechs.get(key)
        if mech is None:
            mech = make_mechanism(
                self.decay, self.epsilon, self._rng.child(_key_index(key)),
                noisy=self.noisy,
            )
            self._mechs[key] = mech
        return key, mech.push(x)

    def keys(self):
        return self._mechs.keys()
