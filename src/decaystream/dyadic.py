"""The one dyadic counter store behind every tree in the package.

Stream positions 1, 2, 3, ... are the leaves of an unbounded binary tree.  The
node at level ``k`` (leaves are level 1) with 0-based index ``j`` covers the
positions ``[j * 2**(k-1) + 1, (j + 1) * 2**(k-1)]``.  Each node carries a
noiseless value ``c0`` and a noise term ``z`` fixed when the node is
created; the published value is always ``c0 + z`` and is never stored
separately, so noise cannot drift.

Updates reach the store in position order, and :meth:`DyadicTree.add_path`
runs it as a binary counter (Chan, Shi and Song 2011): a node's ``c0`` is
written once, when its interval ends, as its left child's plus its right
child's, so an update writes about two nodes whatever the tree's height.
An open node reads 0.0.

Every tree is a view of this store, chosen by its caller:

* growing trees (running, all-window and exponential sums) use the subtree
  rooted at ``[1, 2**(h-1)]``; when it fills up, the next root is created
  and takes its value from its children when it closes, and the
  exponential sum writes its own discounted nodes with :meth:`DyadicTree.add`;
* window trees use aligned subtrees of ``W' = 2**ceil(log2 W)`` leaves as
  blocks (:func:`block_levels`), and their :class:`WindowCursor` evicts
  the blocks it has left;
* the prefix-difference baseline uses one subtree spanning its horizon.

Storage is level-indexed and append-only: each level keeps a list of ``c0``,
a list of ``z`` and the index held in slot 0.  A node is created at its first
position (or, through :meth:`DyadicTree.add`, when first touched), together
with any uncreated node before it on its level.  Its ``z`` is the level's
scale times the next value of the store's buffer of unit Laplace draws, so
which draw a node gets depends only on the order in which nodes are
created; callers keep that order independent of the data.
Eviction drops a prefix of a level; reading an evicted or uncreated node
raises ``ValueError``.  A :class:`PrefixCursor` walks the prefix sums of one
block, and a :class:`WindowCursor` the window sums, each reading one node
per step; no other code in the package splits a window or knows its
blocks.  Both raise past the last position :meth:`DyadicTree.add_path`
has received, so they read only closed nodes.  The polynomial estimator
reads the growing tree by its own age tiling, and the exponential sum by its
own discounted prefix walk.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Callable

from .noise import RandomSource

_DRAWS = 256  # unit Laplace draws fetched per refill of a store's buffer


class DyadicTree:
    """Append-only dyadic counter store with frozen per-node Laplace noise.

    ``scale_for_level`` maps a level (1 = leaves) to the Laplace scale of the
    noise of that level's nodes; it is called once per level, when the level
    is first reached.  It must not refer to the store's owner: that cycle
    would keep a discarded owner's counters alive until a full garbage
    collection.  With ``noisy=False`` every ``z`` is pinned to zero (test
    mode, not private).  With a :class:`~decaystream.noise.RandomLanes`
    source every ``z``, and so every published value, is an array with one
    lane per trial, while ``c0`` stays a float.  :meth:`add_path` takes the
    positions 1, 2, 3, ... in order and writes each node once, when it
    closes; :meth:`add` writes any node at any time.  Single-owner mutable
    structure.
    """

    def __init__(
        self,
        rng: RandomSource,
        scale_for_level: Callable[[int], float],
        noisy: bool = True,
    ):
        self._rng = rng
        self._scale_for_level = scale_for_level
        self.noisy = noisy
        # per level (list index = level - 1)
        self._c0: list[list[float]] = []
        self._z: list[list[float]] = []
        self._lo: list[int] = []  # node index held in slot 0
        self._scale: list[float] = []
        self._left: list[float] = []  # last closed left node's c0, per level
        # unit Laplace draws not yet given to a node, taken from the end: packed
        # doubles from a scalar source, else one draw (lanes: a row) per item
        self._units = array("d") if isinstance(rng, RandomSource) else []
        self.received = 0  # the last position add_path has received

    # -- node creation --------------------------------------------------------

    def _reach(self, height: int) -> None:
        while len(self._c0) < height:
            level = len(self._c0) + 1
            self._scale.append(self._scale_for_level(level) if self.noisy else 0.0)
            self._c0.append([])
            self._z.append([])
            self._lo.append(0)
            self._left.append(0.0)

    def _create(self, k: int, n: int) -> None:
        """Append ``n`` nodes to level ``k + 1``, drawing their noise."""
        self._c0[k].extend([0.0] * n)
        if not self.noisy:
            self._z[k].extend([0.0] * n)
            return
        units = self._units
        if len(units) < n:
            draws = self._rng.laplace_vector(1.0, max(n, _DRAWS))
            units[:0] = array("d", draws.tobytes()) if isinstance(units, array) else list(draws)
        scale = self._scale[k]
        self._z[k].extend([scale * u for u in units[-n:]])
        del units[-n:]

    # -- updates ---------------------------------------------------------------

    def add_path(self, i: int, x: float, height: int) -> None:
        """Receive ``x`` at position ``i``, the next one, on a tree of
        ``height`` levels.

        As in a binary counter, a node is written once, when it closes: the
        leaf takes ``x``, and while the node just closed is a right child
        below ``height``, its parent, which ends at i too, takes the left
        sibling's value plus its own.  The topmost node closed at i is kept
        in ``_left`` for its right sibling.  Nodes are created, so their
        noise drawn, at their first position: when ``height`` grows, the new
        levels' nodes that started before i first, then the nodes starting
        at i, leaf first.  Until it closes, a node's ``c0`` reads 0.0.
        """
        if i != self.received + 1:
            raise ValueError(f"position {i} is not the next one, {self.received + 1}")
        off = i - 1
        c0s = self._c0
        lo = self._lo
        if height > len(c0s):
            first = len(c0s)
            self._reach(height)
            for k in range(first, height):
                if off >> k << k != off:  # a new top node, started before i
                    self._create(k, (off >> k) + 1)
        units, zs, scales = self._units, self._z, self._scale
        for k in range(min(height, (off & -off).bit_length()) if off else height):
            c = c0s[k]
            j = (off >> k) - lo[k]
            n = len(c)
            if j == n and units:  # the next node, noise at hand
                c.append(0.0)
                zs[k].append(scales[k] * units.pop())
            elif j >= n:
                self._create(k, j + 1 - n)
            elif j < 0:
                raise ValueError(f"node (level {k + 1}, index {off >> k}) was evicted")
        left = self._left
        v = x
        k = 0
        j = off - lo[0]
        while True:
            if j < 0:
                raise ValueError(f"node (level {k + 1}, index {j + lo[k]}) was evicted")
            c0s[k][j] = v
            if k + 1 == height or i >> k & 1:
                break  # a left child, or the top level
            v = left[k] + v
            k += 1
            j = (i >> k) - 1 - lo[k]
        left[k] = v
        self.received = i

    def add(self, level: int, index: int, w: float) -> None:
        """Add the weighted value ``w`` at one node, creating it if needed."""
        if level < 1:
            raise ValueError(f"levels start at 1, got {level}")
        if level > len(self._c0):
            self._reach(level)
        k = level - 1
        c = self._c0[k]
        j = index - self._lo[k]
        if j >= len(c):
            self._create(k, j + 1 - len(c))
        elif j < 0:
            raise ValueError(f"node (level {level}, index {index}) was evicted")
        c[j] += w

    # -- reads -----------------------------------------------------------------

    def published(self, level: int, index: int) -> float:
        """Noisy counter value c0 + z of a live node."""
        k = level - 1
        try:
            j = index - self._lo[k]
            if k < 0 or j < 0:
                raise IndexError
            return self._c0[k][j] + self._z[k][j]
        except IndexError:
            raise ValueError(f"node (level {level}, index {index}) is not live") from None

    # -- eviction and inspection ----------------------------------------------

    def evict_covered(self, level: int, index: int) -> None:
        """Drop the nodes of ``level`` whose index is below ``index``.

        Callers drop nodes no later tiling can read: those whose parent
        interval has ended (exponential sums), whose block has left the
        window (window sums) or that end at or before the lagged step of the
        prefix-difference baseline.
        """
        k = level - 1
        if not 0 <= k < len(self._c0):
            return
        n = index - self._lo[k]
        if n > 0:
            del self._c0[k][:n]
            del self._z[k][:n]
            self._lo[k] = index

    def evict_through(self, end: int) -> None:
        """Drop every node that ends at or before position ``end``."""
        for level in range(1, len(self._c0) + 1):
            self.evict_covered(level, end >> (level - 1))

    def counters(self) -> dict[tuple[int, int], float]:
        """Noiseless values of all live nodes, keyed (level, index); a node
        that :meth:`add_path` has not closed yet reads 0.0."""
        return {
            (k + 1, lo + j): c
            for k, (lo, c0) in enumerate(zip(self._lo, self._c0))
            for j, c in enumerate(c0)
        }


class PrefixCursor:
    """Published prefix sums of [base, base + p - 1] for p = 1, 2, 3, ... in turn.

    The tiling of the first p positions is the tiling of the first
    ``p - low`` positions plus the node of length ``low = p & -p`` ending at
    position ``base + p - 1``.  Memoising each prefix sum under the level of
    its last node makes every step read one node; the tiles, of distinct
    power-of-two lengths, are added to 0.0 largest first.  ``base - 1`` must
    be a multiple of a power of two at least as long as every prefix
    reached.  The value returned is the cursor's own memo: callers must not
    update it in place (on lanes it is an array).
    """

    __slots__ = ("_tree", "_a", "p", "_memo")

    def __init__(self, tree: DyadicTree, base: int = 1):
        self._tree = tree
        self._a = base - 1
        self.p = 0
        self._memo = [0.0] * 65  # by level; slot 0 is the empty prefix

    def advance(self) -> float:
        """Move to the next position and return the prefix sum up to it."""
        p = self.p + 1
        end = self._a + p
        if end > self._tree.received:
            raise ValueError(f"position {end} has not reached the store")
        self.p = p
        low = p & -p
        level = low.bit_length()
        if end & (low - 1):
            raise ValueError(f"prefix from {self._a + 1} to {end} is not block-aligned")
        rest = p - low
        total = self._memo[(rest & -rest).bit_length()] + self._tree.published(
            level, end // low - 1
        )
        self._memo[level] = total
        return total


def block_levels(W: int) -> int:
    """Levels of one aligned block of ``W' = 2**ceil(log2 W)`` positions, the
    blocks a window of W is read over: ``log2 W' + 1``."""
    return (W - 1).bit_length() + 1


class WindowCursor:
    """Published window sums over [j - W + 1, j] for j = 1, 2, 3, ... in turn.

    One prefix walk over aligned blocks of ``W' = 2**ceil(log2 W)`` reads
    one node per step, as a :class:`PrefixCursor` does, for j's block
    prefix, and a queue keeps the walk's last W values, so the one it drops
    at step j is its value at m = j - W: each published prefix is read from
    the store once and reused, as in a continual-observation counter
    (Dwork et al. 2010; Chan, Shi and Song 2011).  The window is j's block
    prefix when m <= 0 or m ends a block, minus m's prefix when m is in j's
    block, else plus the previous block's total (the walk's last value in
    it) minus m's prefix.  Reads stay in j's block, on nodes ending by step
    j, and :meth:`evict` drops every node older than the previous block.
    The value returned may be a memo: do not update it in place (lanes).
    """

    __slots__ = ("_tree", "W", "_mask", "_top", "j", "_now", "_past", "_total")

    def __init__(self, tree: DyadicTree, W: int):
        if W < 1:
            raise ValueError(f"window size must be >= 1, got {W}")
        self._tree = tree
        self.W = W
        self._top = top = block_levels(W)  # level of a whole block's node
        self._mask = (1 << (top - 1)) - 1  # W' - 1
        self.j = 0
        self._now = [0.0] * (top + 1)  # prefix sums by level, as in PrefixCursor
        self._past: deque = deque()  # the walk's values at steps j - W + 1 .. j
        self._total = 0.0

    def evict(self) -> None:
        """Drop the store's nodes this cursor will never read: when step
        ``j + 1`` starts a block, those ending before the previous block.
        Call it after the add of step ``j + 1`` and before :meth:`advance`,
        and only on a store no other cursor reads."""
        off = self.j
        mask = self._mask
        if off > 2 * mask + 1 and not off & mask:
            self._tree.evict_through(off - mask - 1)

    def advance(self) -> float:
        """Move to the next step j and return the window sum ending at j."""
        j = self.j + 1
        if j > self._tree.received:
            raise ValueError(f"position {j} has not reached the store")
        self.j = j
        mask = self._mask
        memo = self._now
        p = ((j - 1) & mask) + 1  # j's place in its block
        if p == 1:
            self._total = memo[self._top]  # the block just ended
        low = p & -p
        level = low.bit_length()
        rest = p - low
        cur = memo[(rest & -rest).bit_length()] + self._tree.published(level, j // low - 1)
        memo[level] = cur
        past = self._past
        past.append(cur)
        m = j - self.W
        if m <= 0:
            return cur
        lag = past.popleft()  # the walk's value at step m
        q = ((m - 1) & mask) + 1  # m's place in its block
        if q > mask:
            return cur  # m ends the block before j's
        if q < p:  # m lies in j's block
            return cur - lag
        return (self._total - lag) + cur
