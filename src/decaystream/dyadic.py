"""The one dyadic counter store behind every tree in the package.

Stream positions 1, 2, 3, ... are the leaves of an unbounded binary tree.  The
node at level ``k`` (leaves are level 1) with 0-based index ``j`` covers the
positions ``[j * 2**(k-1) + 1, (j + 1) * 2**(k-1)]``.  Each node carries a
noiseless value ``c0`` and a noise term ``z`` fixed when the node is
created; the published value is always ``c0 + z`` and is never stored
separately, so noise cannot drift.

Updates reach the store in position order, and :meth:`DyadicTree.add_path`
runs it as a binary counter (Chan, Shi and Song 2011): a node is created,
drawing its noise, and its ``c0`` written once, when its interval ends, as
its left child's plus its right child's, so an update writes about two
nodes whatever the tree's height, and ``add_path`` returns the published
value of the topmost node it closed.

Every tree is a view of this store, chosen by its caller:

* growing trees (running, all-window and exponential sums) use the subtree
  rooted at ``[1, 2**(h-1)]``, whose root closes when it fills up; fed n
  positions, such a store creates the nodes of a store of
  ``block_levels(n)`` levels, in the same order.  The exponential sum
  writes its own discounted left nodes with :meth:`DyadicTree.add`, each
  created when it closes: one node per step;
* window trees use aligned subtrees of ``W' = 2**ceil(log2 W)`` leaves as
  blocks (:func:`block_levels`); the prefix-difference baseline is the
  window tree whose one block spans its horizon.

As in the binary mechanism, each node is published once, when it closes, so
the store keeps one node per level: the level's newest, in one slot holding
its index, ``c0`` and ``z``.  Creating a node overwrites its level's slot;
its ``z`` is the level's scale times the next value of the store's buffer of
unit Laplace draws, so which draw a node gets depends only on the order in
which nodes close, which never depends on the data.
Two readers take at every step the node ``add_path`` just closed: a
:class:`PrefixCursor` walks the running sum's prefixes, and a
:class:`WindowCursor` the window sums over blocks of the levels its owner
gives (``W'`` for the window sum and fixed window view, the horizon for the
baseline, whose longer window is clamped to it); no other code in the
package splits a window or knows its blocks.  The polynomial estimator
keeps its own archive of the closed nodes its age tiling reads, and the
exponential sum reads the node each :meth:`DyadicTree.add` returns.

A window estimate is post-processing of O(log n) closed nodes, so
:func:`window_sums_at` reads a fresh store and window cursor at chosen steps
only, ``==`` to pushing every step: it sums each node's ``c0`` from the
stream pairwise, level by level, and takes its noise from the node's
creation rank (:meth:`DyadicTree._creation_rank`): one
``laplace_rows`` call draws the uniforms of the store's refills, a bounded
chunk at a time, and transforms only the units it reads.  A running sum is
the window sum over one block that spans the stream.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Callable

import numpy as np

from .noise import RandomSource

_DRAWS = 256  # unit Laplace draws fetched per refill of a store's buffer


class DyadicTree:
    """Dyadic counter store of one node per level, with frozen Laplace noise.

    ``scale_for_level`` maps a level (1 = leaves) to the Laplace scale of the
    noise of that level's nodes; it is called once per level, when the level
    is first reached.  It must not refer to the store's owner: that cycle
    would keep a discarded owner's counters alive until a full garbage
    collection.  With ``noisy=False`` every ``z`` is pinned to zero (test
    mode, not private).  With a :class:`~decaystream.noise.RandomLanes`
    source every ``z``, and so every published value, is an array with one
    lane per trial, while ``c0`` stays a float.  Every node is created,
    drawing its noise, and written once, when it closes: by :meth:`add_path`,
    which takes the positions 1, 2, 3, ... in order, or by :meth:`add`,
    which names the node.  Single-owner mutable structure.
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
        # the newest node of each level (list index = level - 1); -1: none yet
        self._index: list[int] = []
        self._c0: list[float] = []
        self._z: list[float] = []
        self._scale: list[float] = []
        self._left: list[float] = []  # last closed left node's c0, per level
        # unit Laplace draws not yet given to a node, taken from the end: packed
        # doubles from a scalar source, else one draw (lanes: a row) per item
        self._units = array("d") if isinstance(rng, RandomSource) else []
        self.received = 0  # the last position add_path has received

    def _reach(self, height: int) -> None:
        while len(self._index) < height:
            level = len(self._index) + 1
            self._scale.append(self._scale_for_level(level) if self.noisy else 0.0)
            self._index.append(-1)
            self._c0.append(0.0)
            self._z.append(0.0)
            self._left.append(0.0)

    def _draw(self):
        """The buffer's next unit Laplace draw, refilled when empty."""
        units = self._units
        if not units:
            draws = self._rng.laplace_vector(1.0, _DRAWS)
            units[:0] = array("d", draws.tobytes()) if isinstance(units, array) else list(draws)
        return units.pop()

    @staticmethod
    def _creation_rank(k: int, s: int, height: int) -> int:
        """How many nodes a store of ``height`` levels fed by :meth:`add_path`
        creates before the node of 0-based level ``k`` starting at offset
        ``s``: so its unit draw is the buffer's item of that rank, refill
        ``rank // _DRAWS`` popped from its end.  Each position i' creates
        the levels k' < height with 2**k' dividing i', leaf first, so the
        positions before the node's end e = s + 2**k create ``(e - 1) >> k'``
        nodes on level k', and e creates k before it.
        """
        e = s + (1 << k)
        return k + sum((e - 1) >> kk for kk in range(height))

    def add_path(self, i: int, x: float, height: int):
        """Receive ``x`` at position ``i``, the next one, on a tree of
        ``height`` levels, and return the published value of the topmost
        node that closes at i.

        As in a binary counter, each node closing at i is created, drawing
        its noise, and written, leaf first: the leaf takes ``x``, and while
        the node just closed is a right child below ``height``, its parent,
        which ends at i too, takes the left sibling's value plus its own.
        The topmost node closed at i is kept in ``_left`` for its right
        sibling.
        """
        if i != self.received + 1:
            raise ValueError(f"position {i} is not the next one, {self.received + 1}")
        if height > len(self._index):
            self._reach(height)
        index, c0s, zs, scales, units = self._index, self._c0, self._z, self._scale, self._units
        v = x
        k = 0
        while True:
            index[k] = (i >> k) - 1
            c0s[k] = v
            if self.noisy:
                zs[k] = scales[k] * (units.pop() if units else self._draw())
            if k + 1 == height or i >> k & 1:
                break  # a left child, or the top level
            v = self._left[k] + v
            k += 1
        self._left[k] = v
        self.received = i
        return v + zs[k]

    def add(self, level: int, index: int, w: float):
        """Create node ``index`` of ``level`` as the level's newest, drawing
        its noise, write the weighted value ``w`` to it and return its
        published value.  A node is created once: an index not newer than
        its level's newest is refused."""
        if level < 1:
            raise ValueError(f"levels start at 1, got {level}")
        if level > len(self._index):
            self._reach(level)
        k = level - 1
        if index <= self._index[k]:
            raise ValueError(
                f"node (level {level}, index {index}) is not newer than its level's newest"
            )
        self._index[k] = index
        self._c0[k] = w
        z = self._scale[k] * self._draw() if self.noisy else 0.0
        self._z[k] = z
        return w + z

    def published(self, level: int, index: int):
        """Noisy counter value c0 + z of a level's newest node."""
        k = level - 1
        if not (0 <= k < len(self._index) and self._index[k] == index >= 0):
            raise ValueError(f"node (level {level}, index {index}) is not a level's newest node")
        return self._c0[k] + self._z[k]

    def counters(self) -> dict[tuple[int, int], float]:
        """Noiseless value of each level's newest node, keyed (level, index)."""
        return {
            (k + 1, j): c for k, (j, c) in enumerate(zip(self._index, self._c0)) if j >= 0
        }


class PrefixCursor:
    """Published prefix sums of one aligned block, for p = 1, 2, 3, ... in turn.

    The tiling of the first p positions is the tiling of the first
    ``p - low`` positions plus the node of length ``low = p & -p`` ending at
    position p of the block.  Memoising each prefix sum under the level of
    its last node makes every step take one node, the one
    :meth:`DyadicTree.add_path` just closed; the tiles, of distinct
    power-of-two lengths, are added to 0.0 largest first.  The value
    returned is the cursor's own memo: callers must not update it in place
    (on lanes it is an array).
    """

    __slots__ = ("p", "_memo")

    def __init__(self):
        self.p = 0
        self._memo = [0.0] * 65  # by level; slot 0 is the empty prefix

    def advance(self, node):
        """Move to the next position, given the published value ``node`` of
        the node of length ``p & -p`` ending there; return the prefix sum."""
        p = self.p + 1
        self.p = p
        low = p & -p
        rest = p - low
        total = self._memo[(rest & -rest).bit_length()] + node
        self._memo[low.bit_length()] = total
        return total


def block_levels(W: int) -> int:
    """Levels of one aligned block of ``W' = 2**ceil(log2 W)`` positions, the
    blocks a window of W is read over: ``log2 W' + 1``."""
    return (W - 1).bit_length() + 1


class WindowCursor:
    """Published window sums over [j - W + 1, j] for j = 1, 2, 3, ... in turn.

    Its owner's aligned blocks have ``levels`` levels, so
    ``B = 2**(levels - 1) >= W' = 2**ceil(log2 W)`` positions.  One prefix
    walk over them takes one node per step, as a :class:`PrefixCursor`
    does, for j's block prefix, and a queue keeps the walk's last W values,
    so the one it drops at step j is its value at m = j - W: each published
    prefix is computed once and reused, as in a continual-observation
    counter (Dwork et al. 2010; Chan, Shi and Song 2011).  The window is
    j's block prefix when m <= 0 or m ends a block, minus m's prefix when m
    is in j's block, else plus the previous block's total (the walk's last
    value in it) minus m's prefix.  The value returned may be a memo: do
    not update it in place (lanes).
    """

    __slots__ = ("W", "_mask", "_top", "j", "_now", "_past", "_total")

    def __init__(self, W: int, levels: int):
        if W < 1:
            raise ValueError(f"window size must be >= 1, got {W}")
        if levels < block_levels(W):
            raise ValueError(f"a block of {levels} levels is shorter than a window of {W}")
        self.W = W
        self._top = levels  # level of a whole block's node
        self._mask = (1 << (levels - 1)) - 1  # B - 1
        self.j = 0
        self._now = [0.0] * (levels + 1)  # prefix sums by level, as in PrefixCursor
        self._past: deque = deque()  # the walk's values at steps j - W + 1 .. j
        self._total = 0.0

    def advance(self, node):
        """Move to the next step j, given the published value ``node`` of the
        node of length ``min(j & -j, B)`` ending at j; return the window sum
        ending at j."""
        j = self.j + 1
        self.j = j
        mask = self._mask
        memo = self._now
        p = ((j - 1) & mask) + 1  # j's place in its block
        if p == 1:
            self._total = memo[self._top]  # the block just ended
        low = p & -p
        rest = p - low
        cur = memo[(rest & -rest).bit_length()] + node
        memo[low.bit_length()] = cur
        past = self._past
        past.append(cur)
        m = j - self.W
        if m <= 0:
            return cur
        lag = past.popleft()  # the walk's value at step m
        q = m & mask  # m's place in its block, 0 where m ends one
        if not q:
            return cur  # m ends the block before j's
        if q < p:  # m lies in j's block
            return cur - lag
        return (self._total - lag) + cur


def _level_sums(x: np.ndarray, height: int) -> list:
    """The ``c0`` of every node closed by position ``len(x)``, per 0-based
    level: level 0 is ``x``, and each level above is the pairwise sums
    ``a[0::2] + a[1::2]`` of the one below, the operands of
    :meth:`DyadicTree.add_path`'s carry chain."""
    sums = [x]
    for _ in range(1, height):
        a = sums[-1]
        n = len(a) // 2 * 2
        sums.append(a[0:n:2] + a[1:n:2])
    return sums


def _units_at(rng: RandomSource, ranks) -> dict:
    """The unit Laplace draw a store on ``rng`` gives its node of each
    creation rank in ``ranks``.

    The store draws its refills one ``laplace_vector(1.0, _DRAWS)`` call
    after another, and that is one ``laplace_vector(1.0, n)`` call over
    them, so the refills through the last one asked for are read with one
    ``laplace_rows(1.0, n, rows)`` call that transforms only the units
    (lanes: rows) of the ranks asked for: rank r is item ``r % _DRAWS`` from
    the end of refill ``r // _DRAWS``.
    """
    ranks = list(ranks)
    rows = [r - r % _DRAWS + _DRAWS - 1 - r % _DRAWS for r in ranks]
    n = (max(ranks, default=-1) // _DRAWS + 1) * _DRAWS
    return dict(zip(ranks, rng.laplace_rows(1.0, n, rows)))


def window_sums_at(tree: DyadicTree, cursor: WindowCursor, xs, steps, height: int) -> list:
    """What ``cursor`` returns at each of ``steps`` while ``tree.add_path``
    takes i = 1, 2, 3, ... and the values ``xs``, ``==`` to it, read without
    pushing the steps in between.

    ``tree`` and ``cursor`` must be fresh.  ``height`` is the store's: a
    window store's block levels, or ``block_levels(len(xs))`` for a growing
    tree, which creates the same nodes in the same order.  An update
    outside [0, 1] is refused before any noise is drawn.  Only the nodes
    that the estimates at ``steps`` read are computed, each as the store
    publishes it, ``c0 + z``: ``c0`` from :func:`_level_sums`, ``z`` the
    level's scale times the unit of the node's creation rank
    (:meth:`DyadicTree._creation_rank`).  They combine by
    :meth:`WindowCursor.advance`'s rule, every block prefix folded from
    0.0, largest node first.  The read uses up the store's noise and leaves
    it at position ``len(xs)`` with no node, so a later ``add_path`` is
    refused.
    """
    if tree.received or tree._index or cursor.j:
        raise ValueError("the checkpoint reader needs a fresh store and cursor")
    n = len(xs)
    if not all(1 <= j <= n for j in steps):
        raise ValueError(f"steps must lie in [1, {n}]")
    x = np.asarray(xs, dtype=np.float64)
    bad = ~((0.0 <= x) & (x <= 1.0))
    if bad.any():
        raise ValueError(f"update must lie in [0, 1], got {x[bad][0]}")
    mask, top = cursor._mask, cursor._top

    def tiles(e: int, p: int) -> list:
        """The nodes (0-based level, index) tiling the p positions ending
        at e, largest first."""
        out = []
        a = e - p
        while p:
            k = p.bit_length() - 1
            out.append((k, a >> k))
            a += 1 << k
            p -= 1 << k
        return out

    plans = []  # per step, the nodes of j's block prefix, m's and the previous block
    for j in steps:
        p = ((j - 1) & mask) + 1  # j's place in its block
        m = j - cursor.W
        q = m & mask if m > 0 else 0  # m's place in its block; 0: no lag is read
        # the previous block's total is read when m lies in that block
        block = [(top - 1, ((j - 1) >> (top - 1)) - 1)] if q >= p else []
        plans.append((tiles(j, p), tiles(m, q), block))
    nodes = {nd for plan in plans for part in plan for nd in part}
    sums = _level_sums(x, top)
    if tree.noisy:
        rank = {(k, idx): DyadicTree._creation_rank(k, idx << k, height) for k, idx in nodes}
        units = _units_at(tree._rng, rank.values())
        scales = [tree._scale_for_level(k + 1) for k in range(top)]
        value = {(k, idx): sums[k][idx] + scales[k] * units[rank[k, idx]] for k, idx in nodes}
    else:
        value = {(k, idx): sums[k][idx] + 0.0 for k, idx in nodes}
    tree.received = n

    def fold(part: list):
        total = 0.0
        for nd in part:
            total = total + value[nd]
        return total

    out = []
    for cur, lag, block in plans:
        c = fold(cur)
        if not lag:
            out.append(c)
        elif not block:
            out.append(c - fold(lag))
        else:
            out.append((fold(block) - fold(lag)) + c)
    return out
