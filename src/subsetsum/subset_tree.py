"""Lazy heap-ordered enumeration of all subsets of one fixed length.

Nodes are length-n IndexSubsets. A child advances one chosen position of
the parent's subset to the next index; when that index is already occupied
the occupant is bumped to its own next index, cascading rightward until the
run of conflicts ends, and the child is dropped if any bump would run past
the end of the set. Children are only generated at positions >= the
position the parent itself advanced (its min_modified_pos), which is what
makes every length-n subset appear exactly once; the exhaustive
completeness checks in checks.py are the binding contract for that rule.
Sums never decrease along an edge, so best-first expansion yields length-n
subsets in nondecreasing sum order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import IndexSubset, OrderError, ScaledSet
from .powerset import Frontier


@dataclass(frozen=True, slots=True)
class SubsetTree:
    """The implicit tree of all C(N, n) length-n subsets over a scaled set."""

    scaled: ScaledSet
    n: int
    total: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.scaled.size:
            raise OrderError(f"subset length {self.n} outside [1, {self.scaled.size}]")
        object.__setattr__(self, "total", math.comb(self.scaled.size, self.n))


def subtree_root(s: ScaledSet, n: int) -> IndexSubset:
    """Root node: the n smallest elements, free to advance any position."""
    if not 1 <= n <= s.size:
        raise OrderError(f"subset length {n} outside [1, {s.size}]")
    return IndexSubset(tuple(range(n)), sum(s.scaled_values[:n]))


def subtree_children(node: IndexSubset, tree: SubsetTree) -> list[IndexSubset]:
    """Generate a node's children, at most one per modifiable position.

    Positions run from the last slot down to the position the parent itself
    advanced (the root may advance any position). Each child's sum is >= the
    parent's sum and each child records the position it advanced.
    """
    scaled = tree.scaled.scaled_values
    size = len(scaled)
    n = tree.n
    base = node.indices
    base_sum = node.cached_sum
    children: list[IndexSubset] = []
    for pos in range(n - 1, node.min_modified_pos - 1, -1):
        indices = list(base)
        total = base_sum
        slot = pos
        nxt = indices[slot] + 1
        while nxt < size:
            total += scaled[nxt] - scaled[indices[slot]]
            indices[slot] = nxt
            if slot + 1 < n and indices[slot + 1] == nxt:
                slot += 1
                nxt += 1
            else:
                children.append(IndexSubset(tuple(indices), total, pos))
                break
    return children


def subtree_frontier(tree: SubsetTree) -> Frontier:
    """Fresh expansion state over the fixed-length subset tree."""
    return Frontier(subtree_root(tree.scaled, tree.n), lambda node: subtree_children(node, tree))
