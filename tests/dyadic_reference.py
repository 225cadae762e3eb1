"""Reference helpers for inspecting a dyadic counter store in tests.

Node intervals are 1-based inclusive position ranges ``[l, u]`` whose length
is a power of two; the node at level ``k`` with index ``j`` covers
``[j * 2**(k-1) + 1, (j + 1) * 2**(k-1)]``.  ``height`` is the height of a
complete tree over ``[1, 2**(height-1)]``, whose root reports as no left node.
"""

from typing import NamedTuple


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


def decompose_prefix(tree, u, base=1):
    """The store's tiling of [base, u] as intervals."""
    return [interval_of(level, index) for level, index, _ in tree.decompose_nodes(u, base)]


def frozen_noise(tree):
    """The stored noise term of every live node, keyed (level, index)."""
    return {
        (k + 1, lo + j): z
        for k, (lo, zs) in enumerate(zip(tree._lo, tree._z))
        for j, z in enumerate(zs)
    }


def c0_at(tree, level, index):
    return tree.counters().get((level, index), 0.0)


def node(tree, iv):
    """Inspection view of the live node at a node interval."""
    level, index = node_of(iv)
    tree.published(level, index)  # raises unless the node is live
    return TreeNode(iv, c0_at(tree, level, index), frozen_noise(tree)[(level, index)])
