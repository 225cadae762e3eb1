"""Non-private exact oracle and baseline estimators used for evaluation.

The oracle is the ground truth every mechanism is scored against.  The
randomized-response baseline is the classic per-bit local scheme: its error
grows with the square root of the decay function's energy, which is what the
tree mechanisms are designed to beat.  The running-difference baseline
estimates a window sum as the difference of two private prefix sums from a
single uniform-noise tree: it is the window sum whose one block spans the
horizon, and its error grows with the stream position instead of staying
bounded by the window.
"""

from __future__ import annotations

import math
from collections import deque

from .dyadic import WindowCursor
from .mechanisms import DecaySpec, WindowSum
from .noise import RandomSource, check_epsilon


def decayed_sum(decay: DecaySpec, xs, j: int | None = None) -> float:
    """Exact decayed sum of xs[:j] by direct summation (reference oracle)."""
    if j is None:
        j = len(xs)
    if not 0 <= j <= len(xs):
        raise ValueError(f"step {j} outside [0, {len(xs)}]")
    return sum(xs[i] * decay.weight(j - 1 - i) for i in range(j))


class ExactOracle:
    """Streaming exact decayed sum.

    Uses rolling recurrences where they are exact (window: add/subtract;
    exponential: F <- alpha * F + x; running: accumulate) and direct
    summation for polynomial decay, over a table of the weights appended
    once per push: the operands and order of :func:`decayed_sum`.  A value
    once returned is never changed, also when it is a lane array.
    """

    def __init__(self, decay: DecaySpec):
        self.decay = decay
        self.step = 0
        self._acc = 0.0
        self._recent: deque[float] | None = (
            deque() if decay.kind == "window" else None
        )
        self._buffer: list[float] | None = (
            [] if decay.kind == "polynomial" else None
        )
        # weight(0), weight(1), ..., one per push
        self._weights: list[float] | None = (
            [] if decay.kind == "polynomial" else None
        )

    def push(self, x: float) -> float:
        self.step += 1
        kind = self.decay.kind
        # `acc = acc + x`, not `acc += x`: on a lane array `+=` would change
        # the array the previous push returned
        if kind == "window":
            self._recent.append(x)
            self._acc = self._acc + x
            if len(self._recent) > self.decay.W:
                self._acc = self._acc - self._recent.popleft()
            return self._acc
        if kind == "exponential":
            self._acc = self.decay.alpha * self._acc + x
            return self._acc
        if kind == "polynomial":
            self._buffer.append(x)
            self._weights.append(self.decay.weight(self.step - 1))
            return sum([y * w for y, w in zip(self._buffer, reversed(self._weights))])
        self._acc = self._acc + x
        return self._acc


def rr_flip_parameter(epsilon: float) -> float:
    """Bit-keep bias whose randomized response is epsilon-private.

    Flipping a bit with probability (1 - f)/2 gives privacy parameter
    ln((1 + f) / (1 - f)); inverting yields f = tanh(epsilon / 2).
    """
    check_epsilon(epsilon)
    return math.tanh(epsilon / 2.0)


class RandomizedResponse:
    """Per-bit randomized response with an unbiased decayed-sum estimate.

    Each input bit is replaced by 1 - x with probability (1 - f)/2 and the
    exact decayed statistic of the flipped stream is kept.  The estimate
    rescales each stored bit y to (y - (1 - f)/2) / f, which has expectation
    x, so the decayed estimate is unbiased; its standard deviation scales
    with the square root of the decay function's energy.
    """

    def __init__(self, decay: DecaySpec, flip_parameter: float, rng: RandomSource):
        if not 0.0 < flip_parameter < 1.0:
            raise ValueError(
                f"flip parameter must lie in (0, 1), got {flip_parameter}"
            )
        self.decay = decay
        self.f = flip_parameter
        self._rng = rng
        self._flip_p = (1.0 - flip_parameter) / 2.0
        self._stored = ExactOracle(decay)  # decayed sum of flipped bits
        self._ones = ExactOracle(decay)  # decayed sum of the all-ones stream
        self.step = 0

    def push(self, x) -> float:
        if x not in (0, 1):
            raise ValueError(f"randomized response takes bits, got {x}")
        self.step += 1
        y = self.flip(float(x), self._rng.uniform())
        return self.rescale(self._stored.push(y), self._ones.push(1.0))

    def flip(self, x, u):
        """The reported bit 1 - x where the uniform u < (1 - f)/2, else x.

        ``x`` and ``u`` are floats, lane arrays of :class:`~decaystream.noise.RandomLanes`
        or any arrays that broadcast, such as a column of bits against rows of
        lane uniforms; every result is exactly 0.0 or 1.0, whatever the shape.
        """
        return abs(x - (u < self._flip_p))

    def rescale(self, s, g):
        """Unbiased estimate from the decayed sum ``s`` of the flipped bits
        and the decayed sum ``g`` of the all-ones stream at the same step."""
        return (s - self._flip_p * g) / self.f

    def per_bit_variance(self) -> float:
        """Variance of the rescaled single-bit estimator."""
        return (1.0 - self.f * self.f) / (4.0 * self.f * self.f)


class RunningDiffBaseline(WindowSum):
    """Window sum as a difference of private prefix sums (known horizon).

    A :class:`~decaystream.mechanisms.WindowSum` whose one block spans the
    horizon, padded to a power of two ``horizon'``: one dyadic counter store
    with uniform per-node noise of scale ``(log2(horizon') + 1) / epsilon``,
    whose window estimate at step i is prefix(i) - prefix(i - W).  Error at
    step i grows with the number of tiling nodes of the two prefixes, i.e.
    with log i, and for large i dwarfs the window range.  A window longer
    than the horizon is clamped to it: it never slides, and reads prefix(i).
    """

    def __init__(
        self,
        W: int,
        horizon: int,
        epsilon: float,
        rng: RandomSource,
        *,
        noisy: bool = True,
    ):
        if W < 1 or horizon < 1:
            raise ValueError("window size and horizon must be >= 1")
        WindowSum.__init__(self, horizon, epsilon, rng, noisy=noisy)
        self._window = WindowCursor(min(W, horizon), self._h)
        self.W = W
        self.horizon = horizon

    def push(self, x: float) -> float:
        if self.step >= self.horizon:
            raise ValueError(f"stream exceeds the declared horizon {self.horizon}")
        return WindowSum.push(self, x)

    def estimates_at(self, xs, steps) -> list:
        if len(xs) > self.horizon:
            raise ValueError(f"stream exceeds the declared horizon {self.horizon}")
        return WindowSum.estimates_at(self, xs, steps)
