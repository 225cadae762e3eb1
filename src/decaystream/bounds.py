"""Theory calculators: Laplace tail bounds, explicit utility curves and the
lower-bound construction verifier.

Every quantity that the analysis states asymptotically is emitted here with
an explicit constant so it can be printed, plotted and checked against Monte
Carlo.  The utility curve ``utility_delta`` is a rigorous high-probability
bound: empirical quantiles at the same gamma must never exceed it.  The
lower-bound reference curve hides an unknown constant and is emitted for
orientation only, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import decayed_sum
from .dyadic import block_levels
from .mechanisms import (
    _TINY_WEIGHT,
    DecaySpec,
    exp_decay_sensitivity,
    poly_read_ages,
)
from .noise import SCHEDULE_BETA, check_epsilon, level_epsilons


@dataclass(frozen=True)
class NoiseProfile:
    """Scales of the independent Laplace terms composing one estimate."""

    scales: tuple[float, ...]

    def __post_init__(self):
        if not self.scales:
            raise ValueError("noise profile needs at least one scale")
        if any(b <= 0.0 for b in self.scales):
            raise ValueError("noise scales must be positive")
        object.__setattr__(self, "scales", tuple(float(b) for b in self.scales))

    @property
    def sigma(self) -> float:
        return math.sqrt(2.0 * sum(b * b for b in self.scales))

    @property
    def max_scale(self) -> float:
        return max(self.scales)


def laplace_tail(profile: NoiseProfile, t: float, lam: float) -> float:
    """Chernoff bound on P(|sum of Laplace terms| >= t * sigma).

    Valid for 0 < lam < 0.75 / max scale; returns
    2 * exp(0.75 * lam**2 * sigma**2 - lam * t * sigma) clamped to [0, 1].
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if not 0.0 < lam < 0.75 / profile.max_scale:
        raise ValueError(
            f"lam must lie in (0, {0.75 / profile.max_scale:.6g}), got {lam}"
        )
    sigma = profile.sigma
    bound = 2.0 * math.exp(0.75 * lam * lam * sigma * sigma - lam * t * sigma)
    return min(1.0, max(0.0, bound))


def utility_delta(profile: NoiseProfile, gamma: float) -> float:
    """Smallest additive error certified to hold with probability 1 - gamma.

    Minimises 0.75 * lam * sigma**2 + ln(2/gamma) / lam over admissible lam;
    the unconstrained minimiser sqrt(ln(2/gamma) / (0.75 sigma**2)) is used
    when it satisfies lam <= 0.75 / max scale, otherwise the boundary value.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    sigma2 = profile.sigma**2
    log_term = math.log(2.0 / gamma)
    lam_star = math.sqrt(log_term / (0.75 * sigma2))
    lam = min(lam_star, 0.75 / profile.max_scale)
    return 0.75 * lam * sigma2 + log_term / lam


def hoeffding_delta(variables_range2: float, gamma: float) -> float:
    """Additive error of a sum of independent bounded terms, via Hoeffding.

    ``variables_range2`` is the sum of squared term ranges; the bound is
    sqrt(variables_range2 * ln(2/gamma) / 2).
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    if variables_range2 < 0.0:
        raise ValueError("sum of squared ranges must be >= 0")
    return math.sqrt(variables_range2 * math.log(2.0 / gamma) / 2.0)


# ---------------------------------------------------------------------------
# worst-case estimate profiles of the mechanisms


def worst_noise_profile(
    decay: DecaySpec,
    epsilon: float,
    horizon: int | None = None,
) -> NoiseProfile:
    """Noise profile of the worst-case single estimate of each mechanism.

    window: one previous-block total plus two partial-prefix tilings of up to
    log2(W') nodes each, W' = 2**ceil(log2 W), all of scale (log2 W' + 1)/eps.  exponential: one node
    per level with effective scale (lam/eps) * alpha**(2**m - 1).  running:
    one node per level with the per-level schedule scales.

    polynomial: the estimate at step i < T reads each node of one tiling of
    the all-window tree (the one schedule, level-k scale s_k = 1/eps_k)
    once, weighted by the decay weight w of its oldest age.  A level-k node
    (length L) is read only at newest ages a >= A_k (:func:`poly_read_ages`),
    and its weight is at most w(a') for each of its L ages a', so the
    disjoint level-k nodes have squared weights summing to at most
    ``sum_{A_k <= a < T} w(a)**2 / L``, each at most ``w(A_k)**2``.  One
    term per level of scale ``s_k * max(sqrt(that sum), w(A_k))`` then
    bounds both the sum of squared node scales and the largest one, which is
    all :func:`laplace_tail` uses, at every step up to the horizon.
    """
    check_epsilon(epsilon)
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if decay.kind == "window":
        h = block_levels(decay.W)
        return NoiseProfile((h / epsilon,) * (2 * h - 1))
    if decay.kind == "exponential":
        base = exp_decay_sensitivity(decay.alpha) / epsilon
        scales = []
        m = 0
        while True:
            w = decay.alpha ** ((1 << m) - 1)
            if w < _TINY_WEIGHT or (horizon is not None and (1 << m) > 2 * horizon):
                break
            scales.append(base * w)
            m += 1
        return NoiseProfile(tuple(scales) or (base,))
    if decay.kind == "polynomial":
        T = 1 << 20 if horizon is None else horizon
        # tail[a] = sum of w(a')**2 over a <= a' < T, summed oldest first so
        # that a small weight is not lost next to a large one
        tail = np.cumsum(np.arange(T, 0, -1, dtype=np.float64) ** (-2.0 * decay.c))[::-1]
        scales = []
        eps = level_epsilons(epsilon, SCHEDULE_BETA, T.bit_length())
        for k, eps_k in enumerate(eps, 1):
            A = poly_read_ages(decay.c, decay.beta, k)[0]
            if A >= T:
                break
            energy = float(tail[A]) / (1 << (k - 1))
            scale = max(math.sqrt(energy), decay.weight(A)) / eps_k
            if not scale:
                break  # the weights left underflow to zero
            scales.append(scale)
        return NoiseProfile(tuple(scales))
    # running sum: one node per level of the grown tree
    T = 1 << 20 if horizon is None else horizon
    h = (1 << (max(T - 1, 1)).bit_length()).bit_length()
    eps_k = level_epsilons(epsilon, SCHEDULE_BETA, h)
    return NoiseProfile(tuple(1.0 / e for e in eps_k))


def allwindow_query_profile(epsilon: float, horizon: int | None = None) -> NoiseProfile:
    """Over-bound of one window estimate on the level-scheduled tree.

    A window cursor sums two block prefixes (at most one node per level
    each) and the previous block's total, so three nodes per level is a
    rigorous upper bound whatever the window size.
    """
    base = worst_noise_profile(DecaySpec.running(), epsilon, horizon)
    return NoiseProfile(base.scales * 3)


# ---------------------------------------------------------------------------
# lower-bound instance family


@dataclass(frozen=True)
class LowerBoundFamily:
    """q + 1 streams of length D*q: the zero stream and q one-block streams.

    Instance a >= 1 places a run of D ones in positions ((a-1)D, aD]; the
    probe set contains every multiple of D.  All nonzero instances are at
    Hamming distance D from the zero stream (and 2D from each other).
    """

    q: int
    D: int

    def __post_init__(self):
        if self.q < 1 or self.D < 1:
            raise ValueError("q and D must be >= 1")

    @property
    def T(self) -> int:
        return self.D * self.q

    @property
    def probes(self) -> list[int]:
        return [self.D * a for a in range(1, self.q + 1)]

    def instance(self, a: int) -> list[int]:
        if not 0 <= a <= self.q:
            raise ValueError(f"instance index {a} outside [0, {self.q}]")
        xs = [0] * self.T
        if a >= 1:
            for i in range((a - 1) * self.D, a * self.D):
                xs[i] = 1
        return xs

    def instances(self) -> list[list[int]]:
        return [self.instance(a) for a in range(self.q + 1)]


def hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


@dataclass(frozen=True)
class IndependenceWitness:
    a: int
    b: int
    probe: int
    gap: float
    separated: bool


def check_independence(
    family: LowerBoundFamily, decay: DecaySpec, delta: float
) -> tuple[bool, list[IndependenceWitness]]:
    """Probe-set separation: every instance pair must differ by more than
    2*delta at some probe step.  Returns the verdict and, per pair, the probe
    with the largest exact-oracle gap.
    """
    xs = family.instances()
    probes = family.probes
    table = []
    ok = True
    values = [
        {j: decayed_sum(decay, x, j) for j in probes} for x in xs
    ]
    for a in range(len(xs)):
        for b in range(a + 1, len(xs)):
            best_j, best_gap = probes[0], -1.0
            for j in probes:
                gap = abs(values[a][j] - values[b][j])
                if gap > best_gap:
                    best_j, best_gap = j, gap
            separated = best_gap > 2.0 * delta
            ok = ok and separated
            table.append(IndependenceWitness(a, b, best_j, best_gap, separated))
    return ok, table


def check_closeness(family: LowerBoundFamily, D: int) -> tuple[bool, int]:
    """Hamming closeness to the zero instance (the form the argument uses).

    Returns (every nonzero instance within D of instance 0, the all-pairs
    maximum distance, which reaches 2D for disjoint one-blocks).
    """
    xs = family.instances()
    ok = all(hamming(xs[0], x) <= D for x in xs[1:])
    all_pairs = max(
        (hamming(xs[a], xs[b]) for a in range(len(xs)) for b in range(a + 1, len(xs))),
        default=0,
    )
    return ok, all_pairs


def framework_threshold(n_instances: int, epsilon: float) -> float:
    """(ln N + ln 2) / epsilon: a probe-separated family of N + 1 instances
    that stays this close in Hamming distance rules out (delta, 2/(3q))
    utility for private algorithms.
    """
    if n_instances < 1:
        raise ValueError(f"need at least one nonzero instance, got {n_instances}")
    check_epsilon(epsilon)
    return (math.log(n_instances) + math.log(2.0)) / epsilon


def reference_delta(decay: DecaySpec, gamma: float, epsilon: float) -> float:
    """Reference lower-bound curve G(m)/2 with m = max(1, floor(ln(1/gamma)/eps)).

    G is the cumulative decay weight, so: window -> min(W, m)/2, exponential
    -> (1 - alpha**m) / (2 (1 - alpha)), polynomial -> H_c(m)/2, running ->
    m/2.  The hidden constant of the formal bound is set to 1; treat this as
    a plotting reference, not a certified bound.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    check_epsilon(epsilon)
    m = max(1, math.floor(math.log(1.0 / gamma) / epsilon))
    return decay.cumulative(m) / 2.0
