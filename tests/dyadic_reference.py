"""Reference helpers for inspecting and reading a dyadic counter store in tests:
a store that keeps every node, the random-access reads the package's cursors
must match, and the eagerly updated exponential sum that ``ExponentialSum``
must match.

Node intervals are 1-based inclusive position ranges ``[l, u]`` whose length
is a power of two; the node at level ``k`` with index ``j`` covers
``[j * 2**(k-1) + 1, (j + 1) * 2**(k-1)]``.  ``height`` is the height of a
complete tree over ``[1, 2**(height-1)]``, whose root reports as no left node.
"""

from array import array
from typing import NamedTuple
from unittest import mock

from decaystream import mechanisms
from decaystream.dyadic import _DRAWS
from decaystream.mechanisms import _TINY_WEIGHT, ExponentialSum


class Interval(NamedTuple):
    """Inclusive 1-based node interval [l, u]; u - l + 1 is a power of two."""

    l: int
    u: int


class TreeNode(NamedTuple):
    """Inspection view of one counter: published value is c0 + z."""

    interval: Interval
    c0: float
    z: float

    @property
    def value(self) -> float:
        return self.c0 + self.z


def interval_of(level, index):
    length = 1 << (level - 1)
    l = index * length + 1
    return Interval(l, l + length - 1)


def node_of(iv):
    """(level, index) of a node interval; raises for any other range."""
    length = iv.u - iv.l + 1
    if length < 1 or length & (length - 1):
        raise ValueError(f"{iv} is not a node interval (length not a power of two)")
    if (iv.l - 1) % length:
        raise ValueError(f"{iv} is not aligned")
    return length.bit_length(), (iv.l - 1) // length


def is_left_node(iv, height):
    """True iff the node precedes its sibling; the root reports False."""
    level, index = node_of(iv)
    if level == height:
        return False  # root convention: callers decide root handling
    return index % 2 == 0


def path_intervals(i, height):
    """All node intervals containing leaf i, leaf first (one per level)."""
    if not 1 <= i <= 1 << (height - 1):
        raise ValueError(f"leaf {i} outside [1, {1 << (height - 1)}]")
    return [interval_of(k, (i - 1) >> (k - 1)) for k in range(1, height + 1)]


def checked_prefix(u, base):
    """(block offset, prefix length) of [base, u], checking the alignment."""
    a = base - 1
    p = u - a
    if a < 0 or p < 0:
        raise ValueError(f"prefix [{base}, {u}] is not a range of positions >= 1")
    if p and a & ((1 << (p - 1).bit_length()) - 1):
        raise ValueError(f"prefix [{base}, {u}] does not start an aligned block")
    return a, p


def decompose_nodes(u, base=1):
    """Tile [base, u] with maximal nodes, as (level, index, right_end).

    ``base - 1`` must be a multiple of a power of two at least
    ``u - base + 1`` (the start of an aligned block holding the prefix).
    The tiles are disjoint, sorted, of distinct power-of-two lengths, at
    most ceil(log2(u - base + 1)) of them; ``u = base - 1`` yields none.
    """
    a, p = checked_prefix(u, base)
    while p:
        k = p.bit_length() - 1
        s = 1 << k
        yield k + 1, a >> k, a + s
        a += s
        p -= s


def decompose_prefix(u, base=1):
    """The tiling of [base, u] as intervals."""
    return [interval_of(level, index) for level, index, _ in decompose_nodes(u, base)]


# ---------------------------------------------------------------------------
# the store that keeps every node


class FullStore:
    """The dyadic counter store before it kept one node per level: every
    node it creates stays, in a dict per level, and any of them can be read.

    Same interface, same arithmetic and same noise as
    :class:`~decaystream.dyadic.DyadicTree`: every node is created, drawing
    the next unit of the same buffer, and written once, when it closes.
    ``add_path`` creates the nodes closing at its position, leaf first, and
    returns the published value of the topmost; ``add`` creates the left
    node closing at its position, folding the discounted chain over the
    left siblings it keeps, and returns its published value; ``_create``
    creates a named node, newer than its level's newest.  ``published``
    reads any node created.
    """

    def __init__(self, rng, scale_for_level, noisy=True):
        self._rng = rng
        self._scale_for_level = scale_for_level
        self.noisy = noisy
        self._c0 = []  # per level (list index = level - 1): {index: c0}, oldest first
        self._z = []  # per level: {index: z}
        self._scale = []
        self._units = array("d")
        self.received = 0

    def _reach(self, height):
        while len(self._c0) < height:
            level = len(self._c0) + 1
            self._scale.append(self._scale_for_level(level) if self.noisy else 0.0)
            self._c0.append({})
            self._z.append({})

    def _create(self, k, index, c0):
        self._reach(k + 1)
        if self._c0[k] and index <= next(reversed(self._c0[k])):
            raise ValueError(f"node (level {k + 1}, index {index}) is not newer than the newest")
        self._c0[k][index] = c0
        if not self.noisy:
            self._z[k][index] = 0.0
            return
        units = self._units
        if not units:
            units.frombytes(self._rng.laplace_vector(1.0, _DRAWS).tobytes())
        self._z[k][index] = self._scale[k] * units.pop()

    def add_path(self, i, x, height):
        if i != self.received + 1:
            raise ValueError(f"position {i} is not the next one, {self.received + 1}")
        self._reach(height)
        v = x
        k = 0
        while True:
            self._create(k, (i >> k) - 1, v)
            if k + 1 == height or i >> k & 1:
                break
            v = self._c0[k][(i >> k) - 2] + v  # the left sibling
            k += 1
        self.received = i
        return self.published(k + 1, (i >> k) - 1)

    def add(self, i, x, disc):
        if i != self.received + 1:
            raise ValueError(f"position {i} is not the next one, {self.received + 1}")
        level = (i & -i).bit_length()
        v = x
        for k in range(1, level):
            # the level-k node ending at i is a right node: add its left sibling
            v = self._c0[k - 1][(i >> (k - 1)) - 2] * disc[k] + v
        index = (i >> (level - 1)) - 1
        self._create(level - 1, index, v)
        self.received = i
        return self.published(level, index)

    def published(self, level, index):
        try:
            if level < 1:
                raise KeyError
            return self._c0[level - 1][index] + self._z[level - 1][index]
        except (IndexError, KeyError):
            raise ValueError(f"node (level {level}, index {index}) was never created") from None

    def counters(self):
        return {(k + 1, j): c for k, c0 in enumerate(self._c0) for j, c in c0.items()}


def on_full_store(make):
    """``make()`` with every store it builds a :class:`FullStore`."""
    with mock.patch.object(mechanisms, "DyadicTree", FullStore):
        return make()


def frozen_noise(tree):
    """The stored noise term of every node a store holds, keyed (level,
    index): every node created on a :class:`FullStore`, each level's newest
    on a ``DyadicTree``."""
    if isinstance(tree, FullStore):
        return {(k + 1, j): z for k, zs in enumerate(tree._z) for j, z in zs.items()}
    return {(k + 1, j): z for k, (j, z) in enumerate(zip(tree._index, tree._z)) if j >= 0}


def levels_reached(tree):
    """Number of levels a store has reached so far."""
    return len(tree._c0)


def c0_at(tree, level, index):
    return tree.counters().get((level, index), 0.0)


def node(tree, iv):
    """Inspection view of a readable node at a node interval."""
    level, index = node_of(iv)
    tree.published(level, index)  # raises unless the node is live
    return TreeNode(iv, c0_at(tree, level, index), frozen_noise(tree)[(level, index)])


# ---------------------------------------------------------------------------
# random-access reads: the bit-exact references of the package's cursors


def prefix_value(tree, u, base=1):
    """Sum of the published nodes tiling [base, u] of a :class:`FullStore`;
    0 for the empty prefix.

    Tiles are added largest first, to 0.0, so every value equals
    ``PrefixCursor`` bit for bit.
    """
    total = 0.0
    for level, index, _ in decompose_nodes(u, base):
        total += tree.published(level, index)
    return total


def block_node(tree, j, W):
    """The published node a W-window cursor takes at step j: the node of
    length ``min(j & -j, W')`` ending at j, ``W' = 2**ceil(log2 W)``."""
    L = min(j & -j, 1 << (W - 1).bit_length())
    return tree.published(L.bit_length(), j // L - 1)


def window_query(tree, j, W):
    """Published estimate of the W most recent updates as of step j.

    W is aligned up to a power of two W' that only sets block boundaries;
    the estimate still targets the exact W-window.  W >= j degenerates to
    the prefix [1, j].  ``WindowCursor(W, block_levels(W))`` fed :func:`block_node` returns
    these values bit for bit at j = 1, 2, 3, ...
    """
    if W < 1:
        raise ValueError(f"window size must be >= 1, got {W}")
    if j == 0:
        return 0.0
    if W >= j:
        return prefix_value(tree, j)
    Wp = 1 << (W - 1).bit_length()
    k = -(-j // Wp)  # ceil
    block_k = (k - 1) * Wp + 1
    if j - W >= block_k - 1:
        # window inside block k
        return prefix_value(tree, j, base=block_k) - prefix_value(tree, j - W, base=block_k)
    block_prev = (k - 2) * Wp + 1
    return (
        prefix_value(tree, block_k - 1, base=block_prev)
        - prefix_value(tree, j - W, base=block_prev)
        + prefix_value(tree, j, base=block_k)
    )


# ---------------------------------------------------------------------------
# the polynomial estimator's tiling, straight from its rule


def age_tiling(i, c, beta):
    """The nodes ``(interval, weight)`` tiling [1, i] at step i, youngest first.

    At each end e, from e = i down, the largest aligned node [e - L + 1, e]
    with L = 1 or L <= rho * (i - e + 1), rho = (1 - beta)**(-1/c) - 1,
    weighted by the decay weight (i - e + L)**-c of its oldest age.
    """
    rho = (1.0 - beta) ** (-1.0 / c) - 1.0
    tiles = []
    e = i
    while e:
        L = 1 << (e.bit_length() - 1)
        while e % L or (L > 1 and L > rho * (i - e + 1)):
            L //= 2
        tiles.append((Interval(e - L + 1, e), (i - e + L) ** -c))
        e -= L
    return tiles


# ---------------------------------------------------------------------------
# the exponential sum, updated eagerly and read by random access


class EagerExponentialSum(ExponentialSum):
    """:class:`ExponentialSum` on a :class:`FullStore` with every update
    added to each open left node.

    Each push adds ``x * alpha**(u - i)`` to the eager value of every left
    node [l, u] holding position i (skipping weights below
    ``_TINY_WEIGHT``), seeds a new root with the old root's value discounted
    by ``alpha**span`` when the tree doubles, and creates a node in the
    store (``FullStore._create``) only when it closes, so the node closing
    at step u draws the store's unit u - 1, as in :class:`ExponentialSum`.
    The estimate is read as the tiles of [1, i], each discounted by
    ``alpha**(i - right)``.
    """

    def __init__(self, alpha, epsilon, rng, *, noisy=True):
        super().__init__(alpha, epsilon, rng, noisy=noisy)
        scale = self.counter_scale
        self._tree = FullStore(rng, lambda _level: scale, noisy)
        self._eager = {}  # (level, index) of each open left node: its value

    def push(self, x):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"update must lie in [0, 1], got {x}")
        tree, eager = self._tree, self._eager
        i = tree.received + 1
        alpha = self.alpha
        off = i - 1
        height = off.bit_length() + 1  # the tree [1, 2**(height-1)] holds i
        if off and not off & (off - 1):  # the tree doubles
            eager[height, 0] = alpha**off * c0_at(tree, height - 1, 0)
        for level in range(1, height + 1):
            idx = off >> (level - 1)
            if idx & 1:
                continue  # right node, never updated
            u = (idx + 1) << (level - 1)
            w = alpha ** (u - i)
            if w >= _TINY_WEIGHT:
                eager[level, idx] = eager.get((level, idx), 0.0) + x * w
            if u == i:  # it closes
                tree._create(level - 1, idx, eager.pop((level, idx)))
        tree.received = i
        est = 0.0
        for level, idx, right in decompose_nodes(i):
            est += tree.published(level, idx) * alpha ** (i - right)
        return est
