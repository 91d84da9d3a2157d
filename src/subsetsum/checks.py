"""Exhaustive walks over the heap-ordered subset trees.

The selftest command and the test suite share these walks. A tree is either
a fixed-length SubsetTree or, given a bare ScaledSet, the binary tree over
all its nonempty subsets. Each walk visits every node, so it suits small
trees only.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, NamedTuple

from .model import IndexSubset, ScaledSet
from .powerset import binheap_children, binheap_root
from .subset_tree import SubsetTree, subtree_children, subtree_root


def _parts(tree: SubsetTree | ScaledSet) -> tuple[IndexSubset, Callable, int]:
    """The tree's root, its children function and the number of subsets it holds."""
    if isinstance(tree, SubsetTree):
        return subtree_root(tree.scaled, tree.n), partial(subtree_children, tree=tree), tree.total
    return binheap_root(tree), partial(binheap_children, s=tree), (1 << tree.size) - 1


def edges(tree: SubsetTree | ScaledSet) -> Iterator[tuple[IndexSubset, IndexSubset]]:
    """Yield every (parent, child) edge of the tree, depth first from the root.

    A complete tree of total subsets has total - 1 edges. The walk stops
    after the edge that reaches node total + 1, so a faulty child rule that
    revisits subtrees ends the walk with one node too many, not a hang.
    """
    root, children, total = _parts(tree)
    stack = [root]
    reached = 1
    while stack:
        node = stack.pop()
        for child in children(node):
            yield node, child
            reached += 1
            if reached > total:
                return
            stack.append(child)


class TreeCheck(NamedTuple):
    """What one full walk found: node counts and the first heap-order inversion."""

    total: int
    """Subsets the tree must hold, each exactly once."""
    nodes: int
    """Nodes the walk reached, the root included; at most total + 1, as the walk stops there."""
    distinct: int
    """Distinct index tuples among those nodes."""
    inversion: tuple[IndexSubset, IndexSubset] | None
    """The first (parent, child) edge whose child sum is below its parent's."""

    @property
    def complete(self) -> bool:
        """True when the walk reached every subset exactly once."""
        return self.nodes == self.distinct == self.total


def check_tree(tree: SubsetTree | ScaledSet) -> TreeCheck:
    """Walk the whole tree, counting its nodes and looking for a heap-order inversion."""
    root, _, total = _parts(tree)
    seen = {root.indices}
    nodes = 1
    inversion = None
    for parent, child in edges(tree):
        nodes += 1
        seen.add(child.indices)
        if inversion is None and child.cached_sum < parent.cached_sum:
            inversion = (parent, child)
    return TreeCheck(total, nodes, len(seen), inversion)
