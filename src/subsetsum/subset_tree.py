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

from .model import IndexSubset, InputError, ScaledSet
from .powerset import Frontier


@dataclass(frozen=True, slots=True)
class SubsetTree:
    """The implicit tree of all C(N, n) length-n subsets over a scaled set.

    A length n outside [1, N] raises InputError.
    """

    scaled: ScaledSet
    n: int
    total: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.n <= self.scaled.size:
            raise InputError(f"subset length {self.n} outside [1, {self.scaled.size}]")
        object.__setattr__(self, "total", math.comb(self.scaled.size, self.n))


def subtree_root(s: ScaledSet, n: int) -> IndexSubset:
    """Root node: the n smallest elements, free to advance any position."""
    if not 1 <= n <= s.size:
        raise InputError(f"subset length {n} outside [1, {s.size}]")
    return IndexSubset(tuple(range(n)), sum(s.scaled_values[:n]))


def subtree_children(node: IndexSubset, tree: SubsetTree) -> list[IndexSubset]:
    """Generate a node's children, at most one per modifiable position.

    Positions run from the last slot down to the position the parent itself
    advanced (the root may advance any position). Each child's sum is >= the
    parent's sum and each child records the position it advanced.

    Advancing a position bumps the whole run of consecutive indices that
    starts there by one index, so the child differs from its parent only in
    that run: the sum gains the value just past the run and loses the run's
    first value. A run that already ends on the last index has no child.
    """
    base, base_sum, min_pos = node
    scaled = tree.scaled.scaled_values
    size = len(scaled)
    children: list[IndexSubset] = []
    after = -1  # base[pos + 1]; -1 past the last slot, where no run continues
    for pos in range(len(base) - 1, min_pos - 1, -1):
        first = base[pos]
        if after != first + 1:
            end = pos  # the run starting at pos ends at slot end
            past = first + 1  # the index just past the run
        after = first
        if past < size:
            run = (past,) if end == pos else tuple(range(first + 1, past + 1))
            # tuple.__new__ skips the NamedTuple's Python-level __new__ on this hot path.
            children.append(tuple.__new__(
                IndexSubset, (base[:pos] + run + base[end + 1:], base_sum + scaled[past] - scaled[first], pos)
            ))
    return children


def subtree_frontier(tree: SubsetTree) -> Frontier:
    """Fresh expansion state over the fixed-length subset tree."""
    return Frontier(subtree_root(tree.scaled, tree.n), lambda node: subtree_children(node, tree))
