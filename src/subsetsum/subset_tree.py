"""Lazy heap-ordered enumeration of all subsets of one fixed length.

A child advances one chosen position of the parent's subset to the next
index; when that index is already occupied the occupant is bumped to its
own next index, cascading rightward until the run of conflicts ends, and
the child is dropped if any bump would run past the end of the set.
Children are only generated at positions >= the position the parent itself
advanced, which is what makes every length-n subset appear exactly once;
the exhaustive completeness checks in checks.py are the binding contract
for that rule. Sums never decrease along an edge, so best-first expansion
yields length-n subsets in nondecreasing sum order.

The position a node advanced is always the first of its top run, its
highest run of consecutive indices, so the indices alone fix the node, and
its children advance exactly that run. This module holds only the tree's
child rule, _subtree_rule, over the node code that subsetsum.powerset owns:
the bit mask of the node's indices. subtree_frontier runs the rule over
those codes; subtree_root and subtree_children are its public IndexSubset
view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

from .model import IndexSubset, InputError, ScaledSet, _check_length, _checked_indices
from .powerset import Frontier, _CodedFrontier, _decoded_children, _mask_of, _Rule


@dataclass(frozen=True, slots=True)
class SubsetTree:
    """The implicit tree of all C(N, n) length-n subsets over a scaled set.

    A length n that is not an int in [1, N] raises InputError.
    """

    scaled: ScaledSet
    n: int
    total: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _check_length(self.n, self.scaled.size)
        object.__setattr__(self, "total", math.comb(self.scaled.size, self.n))


def _subtree_rule(scaled: Sequence[int]) -> _Rule:
    """The child rule of the fixed-length trees over scaled, one rule for every length (see _Rule).

    A node's code is the bit mask of its indices; the root of the length-n
    tree is (1 << n) - 1. The node's min_index, the lowest index it may
    advance, is always the start of its top run, the run of consecutive set
    bits that holds the highest one: the root's run is all of 0..n-1, and
    advancing index i of a top run that ends at b - 1 clears bit i and sets
    bit b, so the child's top run is i+1..b. So the mask is the whole node.
    With past = the mask's bit_length, the rule advances each index i of
    the top run, from past - 1 down to the run's start, into the child
    mask ^ 1 << i | 1 << past, whose sum gains scaled[past] - scaled[i]. A
    top run that already ends on the last index has no child. These sums
    never fall as i falls, so a node's children open their buckets in
    position order. The masks the rule needs depend only on a position, so
    it builds them once, in tables: bit[i] = 1 << i, and below[p] = (1 <<
    p) - 1, whose xor with the mask clears the top run and sets the bit
    just below it, if any, so that the xor's bit_length is the run's
    start. A shift whose result passes 256 makes a new int object, so
    computing these per node and per child paid an allocation for each of
    them past bit 8.
    """
    size = len(scaled)
    bit = [1 << i for i in range(size)]
    below = [(1 << p) - 1 for p in range(size)]

    def children(cursor: list, count: int, buckets: dict[int, list], sums: list[int], popped: list) -> None:
        bucket, head, total = cursor
        while True:
            run = bucket[head : head + count] if head or len(bucket) > count else bucket
            for mask in run:
                past = mask.bit_length()
                if past < size:
                    first = (mask ^ below[past]).bit_length()  # the start of the top run
                    gained = total + scaled[past]
                    mask |= bit[past]
                    i = past - 1
                    while i >= first:
                        child_sum = gained - scaled[i]
                        pending = buckets.get(child_sum)
                        if pending is None:
                            buckets[child_sum] = [mask ^ bit[i]]
                            heappush(sums, child_sum)
                        else:
                            pending.append(mask ^ bit[i])
                        i -= 1
            popped += run
            count -= len(run)
            if count <= 0:
                break
            total = heappop(sums)
            bucket, head = buckets.pop(total), 0
        cursor[:] = bucket, head + len(run), total

    return children


def subtree_root(s: ScaledSet, n: int) -> IndexSubset:
    """Root node: the n smallest elements, whose top run is all of them, so its children may advance any position."""
    _check_length(n, s.size)
    return IndexSubset(tuple(range(n)), sum(s.scaled_values[:n]))


def subtree_children(node: IndexSubset, tree: SubsetTree) -> list[IndexSubset]:
    """Generate a node's children, at most one per modifiable position.

    Positions run from the last slot down to the position the parent itself
    advanced, the start of its top run of consecutive indices (the root may
    advance any position). Each child's sum is >= the parent's sum.

    Advancing a position bumps the whole run of consecutive indices that
    starts there by one index, so the child differs from its parent only in
    that run: the sum gains the value just past the run and loses the run's
    first value. A run that already ends on the last index has no child.
    This view encodes the node as its mask, runs the solver's code rule and
    decodes; the rule opens its buckets in position order.

    Every length-n subset is exactly one node of the tree, so the indices
    are the whole node. A node that is not an IndexSubset whose indices are
    a tuple of n ints increasing strictly within [0, N) raises InputError.
    Its cached_sum is not read: each child's sum is derived from the
    child's indices.
    """
    scaled = tree.scaled.scaled_values
    checked = _checked_indices(node, len(scaled))
    if len(checked) != tree.n:
        raise InputError(f"{node} is not a node of the tree of {tree.n}-subsets of {len(scaled)} values")
    return _decoded_children(_subtree_rule(scaled), scaled, _mask_of(checked))


def subtree_frontier(tree: SubsetTree) -> Frontier:
    """Fresh expansion state over the fixed-length subset tree."""
    scaled = tree.scaled.scaled_values
    root = (1 << tree.n) - 1
    return _CodedFrontier(root, sum(scaled[: tree.n]), _subtree_rule(scaled), scaled, tree.total, False)
