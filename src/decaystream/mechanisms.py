"""Private streaming estimators for decayed sums.

Four estimators behind one contract (``push(x) -> estimate`` for inputs in
[0, 1]):

* :class:`WindowSum` -- sum of the last W updates, for any W >= 1.  The
  stream is cut into blocks of ``W' = 2**ceil(log2 W)`` positions, each an
  aligned subtree of one dyadic counter store; a window spanning two blocks
  is a block suffix plus a block prefix, so each update changes exactly
  ``log2(W') + 1`` counters, which sets the sensitivity, while the store
  writes each counter once, when it closes (amortized O(1) writes per
  update); each estimate takes the node the update closed plus one queued
  value, and its noise still sums ``O(log W)`` counters.
* :class:`AllWindowSum` -- one growing tree serving window estimates for
  every W simultaneously, with per-level budgets ``eps_k`` that sum to the
  total budget.  Its subclasses are post-processing of the one tree:
  :class:`RunningSum` (undiscounted prefix sum), :class:`FixedWindowView`
  (one window size: the paper's all-window construction, ``--mech
  allwindow``) and :class:`PolynomialSum`.
* :class:`ExponentialSum` -- geometrically discounted sum on a growing tree;
  each left node holds the discounted sum of its interval, created, drawing
  its noise, and written once when it closes (a binary counter's carry
  chain), and each estimate discounts the previous prefix estimate and adds
  one node.
* :class:`PolynomialSum` -- power-law discounted sum read from the
  all-window tree as a weighted tiling whose node lengths grow in proportion
  to age, each node weighted by its oldest age; the noise-free output F'
  satisfies (1 - beta) * F <= F' <= F.

Window estimates are read by :class:`~decaystream.dyadic.WindowCursor`,
prefix sums by :class:`~decaystream.dyadic.PrefixCursor`.
Estimates at step j read only counters whose intervals end at or before j,
so the whole output sequence is a deterministic function of the noisy
counter vector.  Every store keeps one node per level; the polynomial sum
alone also archives the closed nodes its tiling can still read.

With ``noisy=False`` all initialisation noise is pinned to zero; outputs are
then exact (window/exponential/running) or within the (1 - beta) factor
(polynomial) and NOT private.

Mechanism states are single-owner and mutable: push is not reentrant and
must never run concurrently on one state.  Parallel experiments give every
trial its own state and its own child random source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dyadic import DyadicTree, PrefixCursor, WindowCursor, block_levels, window_sums_at
from .noise import SCHEDULE_BETA, RandomSource, check_epsilon, level_epsilons

_TINY_WEIGHT = 1e-300  # discount weights below this clamp to zero


@dataclass(frozen=True)
class DecaySpec:
    """Which discount applies to past updates.

    kind is one of ``window`` (weight 1 on the last W updates), ``exponential``
    (weight alpha**age), ``polynomial`` (weight (age+1)**-c) or ``running``
    (weight 1 everywhere).  ``beta`` is the multiplicative slack used by the
    polynomial estimator.
    """

    kind: str
    W: int | None = None
    alpha: float | None = None
    c: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind == "window":
            if self.W is None or self.W < 1:
                raise ValueError("window decay needs W >= 1")
        elif self.kind == "exponential":
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError("exponential decay needs alpha in (0, 1)")
        elif self.kind == "polynomial":
            if self.c is None or not self.c > 1.0:
                raise ValueError("polynomial decay needs c > 1")
            if self.beta is None or not 0.0 < self.beta < 1.0:
                raise ValueError("polynomial decay needs beta in (0, 1)")
        elif self.kind != "running":
            raise ValueError(f"unknown decay kind: {self.kind!r}")

    @classmethod
    def window(cls, W: int) -> "DecaySpec":
        return cls("window", W=W)

    @classmethod
    def exponential(cls, alpha: float) -> "DecaySpec":
        return cls("exponential", alpha=alpha)

    @classmethod
    def polynomial(cls, c: float, beta: float) -> "DecaySpec":
        return cls("polynomial", c=c, beta=beta)

    @classmethod
    def running(cls) -> "DecaySpec":
        return cls("running")

    def weight(self, age: int) -> float:
        """Discount applied to an update ``age`` steps in the past."""
        if age < 0:
            raise ValueError("age must be >= 0")
        if self.kind == "window":
            return 1.0 if age < self.W else 0.0
        if self.kind == "exponential":
            w = self.alpha**age
            return w if w >= _TINY_WEIGHT else 0.0
        if self.kind == "polynomial":
            return (age + 1.0) ** -self.c
        return 1.0

    def cumulative(self, m: int) -> float:
        """Sum of the first m weights (ages 0..m-1)."""
        if m <= 0:
            return 0.0
        if self.kind == "window":
            return float(min(m, self.W))
        if self.kind == "exponential":
            return (1.0 - self.alpha**m) / (1.0 - self.alpha)
        if self.kind == "polynomial":
            return sum((i + 1.0) ** -self.c for i in range(m))
        return float(m)

    def energy(self, m: int) -> float:
        """Sum of squared weights over ages 0..m-1."""
        if self.kind == "window":
            return float(min(max(m, 0), self.W))
        if self.kind == "running":
            return float(max(m, 0))
        return sum(self.weight(i) ** 2 for i in range(m))


# ---------------------------------------------------------------------------
# sensitivity constants


def exp_decay_sensitivity(alpha: float) -> float:
    """Worst-case L1 counter change for one substituted update, exponential decay.

    Touched counters sit at geometrically growing distances, so the change is
    bounded by (1 / (alpha ln 2)) * (ln(2 alpha / (1 - alpha)) + 1/2 + ln 2).
    Valid (and increasing) on alpha in (2/3, 1); below 2/3 the estimand's
    range is at most 3 and a constant output is already accurate.
    """
    if not 2.0 / 3.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (2/3, 1), got {alpha}")
    return (1.0 / (alpha * math.log(2.0))) * (
        math.log(2.0 * alpha / (1.0 - alpha)) + 0.5 + math.log(2.0)
    )


# ---------------------------------------------------------------------------
# window sum


class WindowSum:
    """Private sliding-window sum on aligned blocks of one dyadic store.

    Block b holds positions ``b*W' + 1 .. (b+1)*W'``, ``W' = 2**ceil(log2
    W)``, as one aligned subtree of the store, so one update changes
    ``sensitivity = log2 W' + 1`` counters by at most 1 and every counter
    carries Laplace noise of scale ``sensitivity / epsilon``.  A
    :class:`~decaystream.dyadic.WindowCursor` composes each window from the
    node each update closes and its queue of block prefixes, so the store
    keeps one node per level.
    """

    def __init__(
        self,
        W: int,
        epsilon: float,
        rng: RandomSource,
        *,
        noisy: bool = True,
    ):
        check_epsilon(epsilon)
        self.W = W
        self.epsilon = epsilon
        self._h = block_levels(W)  # levels of one block subtree
        self.sensitivity = float(self._h)
        self.counter_scale = scale = self._h / epsilon
        self._tree = DyadicTree(rng, lambda _level: scale, noisy)
        self._window = WindowCursor(W, self._h)
        self.step = 0

    def push(self, x: float) -> float:
        """Feed one update, return the window estimate at the new step."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"update must lie in [0, 1], got {x}")
        i = self.step + 1
        self.step = i
        return self._window.advance(self._tree.add_path(i, x, self._h))

    def estimates_at(self, xs, steps) -> list:
        """The estimates ``push`` returns at ``steps`` when this fresh
        estimator is fed ``xs``, read at those steps only
        (:func:`~decaystream.dyadic.window_sums_at`).  The read uses up the
        estimator's noise: a later push is refused."""
        return window_sums_at(self._tree, self._window, xs, steps, self._h)

    def counters(self) -> dict[tuple[int, int], float]:
        """Noiseless value of each level's newest node, keyed (level, index)."""
        return self._tree.counters()


# ---------------------------------------------------------------------------
# all-window sum / running sum


class AllWindowSum:
    """One growing tree serving window estimates for every window size.

    Level k counters carry noise of scale ``1 / eps_k``, eps_k the k-th term
    of the one level schedule ``eps_k = 6 epsilon / (pi**2 k**2)``
    (:func:`~decaystream.noise.level_epsilons` at ``SCHEDULE_BETA``), so the
    per-level budgets sum to ``epsilon`` over the infinite tree.  ``push``
    returns the published value of the topmost node the update closed; each
    subclass's ``push`` post-processes it, calling ``AllWindowSum.push(self,
    x)`` (looked up at call time, so a wrapper of it sees every call).
    """

    def __init__(
        self,
        epsilon: float,
        rng: RandomSource,
        *,
        noisy: bool = True,
    ):
        check_epsilon(epsilon)
        self.epsilon = epsilon
        self.step = 0
        self._tree = DyadicTree(
            rng, lambda k: 1.0 / level_epsilons(epsilon, SCHEDULE_BETA, k)[-1], noisy
        )

    def push(self, x: float):
        """Feed one update; return the published value of the node of
        length ``i & -i`` ending at the new step i."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"update must lie in [0, 1], got {x}")
        i = self.step + 1
        self.step = i
        # the tree [1, 2**(height-1)] holds i; it doubles when i - 1 is a
        # power of two, and its new root is created when its right child closes
        return self._tree.add_path(i, x, (i - 1).bit_length() + 1)

    def counters(self) -> dict[tuple[int, int], float]:
        return self._tree.counters()


class RunningSum(AllWindowSum):
    """Streaming prefix-sum estimator: one prefix walk over the growing tree."""

    def __init__(self, epsilon: float, rng: RandomSource, *, noisy: bool = True):
        super().__init__(epsilon, rng, noisy=noisy)
        self._prefix = PrefixCursor()

    def push(self, x: float) -> float:
        return self._prefix.advance(AllWindowSum.push(self, x))

    def estimates_at(self, xs, steps) -> list:
        """As :meth:`WindowSum.estimates_at`: window sums over one block
        that spans the stream."""
        h = block_levels(len(xs))
        return window_sums_at(self._tree, WindowCursor(1 << (h - 1), h), xs, steps, h)


class FixedWindowView(AllWindowSum):
    """One window size read from the growing tree as post-processing.

    The paper's all-window construction for one W (``--mech allwindow``);
    :class:`WindowSum` answers the same window with less noise.  Its cursor
    walks aligned blocks of ``W' = 2**ceil(log2 W)`` positions and takes, at
    step j, the node of length ``min(j & -j, W')`` ending at j: the node
    the update closed, or, when that one spans more than a block, the
    block's node below it, read from the store.  The tree keeps one node per
    level.
    """

    def __init__(self, W: int, epsilon: float, rng: RandomSource, *, noisy: bool = True):
        super().__init__(epsilon, rng, noisy=noisy)
        self.W = W
        self._top = top = block_levels(W)  # level of a whole block's node
        self._window = WindowCursor(W, top)

    def push(self, x: float) -> float:
        node = AllWindowSum.push(self, x)
        j = self.step
        top = self._top
        if (j & -j) >> top:  # longer than a block: read the block's node
            node = self._tree.published(top, (j >> (top - 1)) - 1)
        return self._window.advance(node)

    def estimates_at(self, xs, steps) -> list:
        """As :meth:`WindowSum.estimates_at`."""
        return window_sums_at(self._tree, self._window, xs, steps, block_levels(len(xs)))


# ---------------------------------------------------------------------------
# exponential decay


class ExponentialSum:
    """Private geometrically discounted sum on a growing tree.

    Node [l, u] holds ``sum_i x_i * alpha**(u - i)``.  As in a binary
    counter, each node is written once, when it closes at step u: the chain
    of right nodes ending at u is folded upwards, each step discounting the
    left sibling's value by ``alpha**len`` and adding it, and the left node
    the chain reaches takes the sum.  Right nodes are never written or read,
    and no open node is stored.  One update enters the left nodes containing
    it, whose gaps grow geometrically, so :func:`exp_decay_sensitivity`
    bounds the change.

    The estimate at step i is the estimate at ``i - low`` (``low = i & -i``)
    discounted by ``alpha**low``, plus the published node ending at i: one
    node read per push, on nodes that ended by step i.  Each left node is
    created, and draws its noise, when it closes, by the one
    :meth:`~decaystream.dyadic.DyadicTree.add` call of the push that closes
    it, so the node closing at step u takes the store's unit draw of rank
    u - 1, whatever the data, and the store keeps one node per level.
    """

    def __init__(
        self,
        alpha: float,
        epsilon: float,
        rng: RandomSource,
        *,
        noisy: bool = True,
    ):
        self.sensitivity = exp_decay_sensitivity(alpha)  # validates alpha in (2/3, 1)
        check_epsilon(epsilon)
        self.alpha = alpha
        self.epsilon = epsilon
        self.counter_scale = scale = self.sensitivity / epsilon
        self.step = 0
        self._tree = DyadicTree(rng, lambda _level: scale, noisy)
        # per level (index = level, 1 = leaves), grown when a level's first
        # node closes: alpha**(2**(level-1)), the last closed left node's
        # noiseless value, and the estimate memoised under the level of its
        # last node (slot 0 is the empty prefix)
        self._disc = [1.0, alpha]
        self._left = [0.0, 0.0]
        self._memo = [0.0, 0.0]

    def push(self, x: float) -> float:
        """Feed one update, return the discounted-sum estimate."""
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"update must lie in [0, 1], got {x}")
        i = self.step + 1
        self.step = i
        disc, left, memo = self._disc, self._left, self._memo
        low = i & -i
        level = low.bit_length()
        if level == len(disc):  # the level's first node closes
            disc.append(self.alpha**low)
            left.append(0.0)
            memo.append(0.0)
        v = x
        for k in range(1, level):
            # the level-k node ending at i is a right node: fold it into its
            # parent, which ends here too
            v = left[k] * disc[k] + v
        left[level] = v
        node = self._tree.add(level, (i >> (level - 1)) - 1, v)
        rest = i - low
        est = memo[(rest & -rest).bit_length()] * disc[level] + node
        memo[level] = est
        return est

    def counters(self) -> dict[tuple[int, int], float]:
        """Noiseless value of each level's newest closed left node."""
        return self._tree.counters()


# ---------------------------------------------------------------------------
# polynomial decay


def poly_read_ages(c: float, beta: float, level: int) -> tuple[int, int]:
    """Newest ages ``[lo, hi)`` at which :class:`PolynomialSum` reads ``level``.

    A node of length ``L = 2**(level - 1)`` and newest age a is admitted when
    ``L = 1`` or ``L <= rho * (a + 1)``, ``rho = (1 - beta)**(-1/c) - 1`` (its
    ages' weights are then within a factor 1 - beta), i.e. from
    ``lo = ceil(L / rho) - 1`` on.  From the next level's ``lo'`` on, nodes
    of length 2L are admitted, so the walk takes this level only at the
    first multiple of L at or below ``e - L_e``, (e, L_e) being the last node
    it took below age ``lo'``; as ``L_e <= L`` divides e, that end is within
    L of e, so reads stop below ``hi = lo' + L``.
    """
    rho = (1.0 - beta) ** (-1.0 / c) - 1.0
    L = 1 << (level - 1)
    lo = 0 if level == 1 else math.ceil(L / rho) - 1
    return lo, math.ceil(2 * L / rho) - 1 + L


class PolynomialSum(AllWindowSum):
    """Private power-law discounted sum as post-processing of one tree.

    At step i the estimate walks the ends e = i, i - L, ... down to 0 of the
    growing tree (the one level schedule), taking at each the
    largest aligned node ending there that its newest age i - e admits
    (:func:`poly_read_ages`), weighted by the decay weight
    ``(i - e + L)**-c`` of its oldest age.  Each node is read once, and the
    noise-free output F' satisfies (1 - beta) F <= F' <= F for the true sum
    F.  One update changes one counter per level by at most 1, and the level
    budgets sum to epsilon.  The tree keeps one node per level, so the
    estimator archives each node's published value when it closes and drops
    it once its newest age passes its level's reads: O(log T) values stay
    live, at most ``ceil(hi_k / 2**(k-1)) + 1`` on level k.
    """

    def __init__(
        self, c: float, beta: float, epsilon: float, rng: RandomSource, *, noisy: bool = True
    ):
        if not c > 1.0:
            raise ValueError(f"c must exceed 1, got {c}")
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {beta}")
        if not (1.0 - beta) ** (-1.0 / c) - 1.0 > 0.0:  # poly_read_ages divides by it
            raise ValueError(f"rho = (1 - beta)**(-1/c) - 1 rounds to 0 at c = {c}, beta = {beta}")
        super().__init__(epsilon, rng, noisy=noisy)
        self.c = c
        self.beta = beta
        # read ranges [lo, hi) of levels 1, 2, ..., grown in push until one
        # level is not yet admitted at any age
        self._los: list[int] = []
        self._his: list[int] = []
        # per level: published values of its closed nodes still read, and
        # the index of the first
        self._archive: list[list] = []
        self._base: list[int] = []

    def _tiling(self):
        """(level, index, weight) of the nodes tiling [1, step], youngest first."""
        i = self.step
        negc = -self.c
        los = self._los
        cap = 1  # longest node the current age admits
        e = i
        while e:
            a = i - e
            while a >= los[cap.bit_length()]:
                cap <<= 1
            low = e & -e
            L = low if low < cap else cap
            level = L.bit_length()
            yield level, (e >> (level - 1)) - 1, (a + L) ** negc
            e -= L

    def push(self, x: float) -> float:
        """Feed one update, return the discounted-sum estimate."""
        node = AllWindowSum.push(self, x)
        i = self.step
        los, his = self._los, self._his
        while not los or los[-1] < i:
            lo, hi = poly_read_ages(self.c, self.beta, len(los) + 1)
            los.append(lo)
            his.append(hi)
        archive, base = self._archive, self._base
        # the nodes closing at i, one per level below the topmost, which
        # the tree returned
        top = (i & -i).bit_length() - 1
        if top == len(archive):
            archive.append([])
            base.append(0)
        published = self._tree.published
        for k in range(top):
            archive[k].append(published(k + 1, (i >> k) - 1))
        archive[top].append(node)
        est = 0.0
        for level, index, weight in self._tiling():
            est += archive[level - 1][index - base[level - 1]] * weight
        # a level-k node is dead once its newest age reaches hi_k; that
        # bound moves past one more node whenever 2**(k-1) divides i - hi_k
        for k, hi in enumerate(his):
            m = i - hi
            if m < 0:
                break
            if m and not m & ((1 << k) - 1):
                del archive[k][0]
                base[k] += 1
        return est

    def child_windows(self) -> list[int]:
        """Node lengths of the current step's tiling, youngest first."""
        return [1 << (level - 1) for level, _, _ in self._tiling()]


# ---------------------------------------------------------------------------
# factory


def make_mechanism(
    decay: DecaySpec,
    epsilon: float,
    rng: RandomSource,
    *,
    noisy: bool = True,
):
    """Build the streaming estimator for a decay spec and privacy budget.

    The growing trees (running and polynomial) draw at the one level schedule.
    """
    if decay.kind == "window":
        return WindowSum(decay.W, epsilon, rng, noisy=noisy)
    if decay.kind == "exponential":
        return ExponentialSum(decay.alpha, epsilon, rng, noisy=noisy)
    if decay.kind == "polynomial":
        return PolynomialSum(decay.c, decay.beta, epsilon, rng, noisy=noisy)
    return RunningSum(epsilon, rng, noisy=noisy)
