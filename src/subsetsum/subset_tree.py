"""Lazy heap-ordered enumeration of all subsets of one fixed length.

A child advances one chosen position of the parent's subset to the next
index; when that index is already occupied the occupant is bumped to its
own next index, cascading rightward until the run of conflicts ends, and
the child is dropped if any bump would run past the end of the set.
Children are only generated at positions >= the position the parent itself
advanced (its min_modified_pos), which is what makes every length-n subset
appear exactly once; the exhaustive completeness checks in checks.py are
the binding contract for that rule. Sums never decrease along an edge, so
best-first expansion yields length-n subsets in nondecreasing sum order.

The position a node advanced is always the first of its top run, its
highest run of consecutive indices, so a node's children advance exactly
that run. subtree_frontier runs this tree over int codes, each the bit
mask of its node's indices (see _subtree_codec); subtree_root and
subtree_children are its public IndexSubset view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

from .model import IndexSubset, InputError, ScaledSet, _check_length, _checked_indices
from .powerset import Frontier, _Decode, _decoded_children, _indices_and_sum, _mask_of, _Memo, _memo, _Rule


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


def _subtree_codec(scaled: Sequence[int]) -> tuple[_Rule, _Decode, _Memo]:
    """The coded fixed-length trees over scaled, one codec for every length: (children, decode, memo).

    A node's code is the bit mask of its indices; the root of the length-n
    tree is (1 << n) - 1. The node's min_index, the lowest index it may
    advance, is always the start of its top run, the run of consecutive set
    bits that holds the highest one: the root's run is all of 0..n-1, and
    advancing index i of a top run that ends at b - 1 clears bit i and sets
    bit b, so the child's top run is i+1..b. So the mask is the whole node.
    children is the one child rule (see _Rule): with past = the mask's
    bit_length, it advances each index i of the top run, from past - 1 down
    to the run's start, into the child mask ^ 1 << i | 1 << past, whose sum
    gains scaled[past] - scaled[i]. A top run that already ends on the last
    index has no child. These sums never fall as i falls, so a node's
    children open their buckets in position order. decode(mask) gives the
    IndexSubset, its sum derived from its indices, and its min_modified_pos
    counts the set bits below the top run. A mask has one bit per value, so
    memo packs the codes of up to 64 values.
    """
    size = len(scaled)

    def children(cursor: list, count: int, buckets: dict[int, list], sums: list[int], popped: list) -> None:
        bucket, head, total = cursor
        while True:
            run = bucket[head : head + count] if head or len(bucket) > count else bucket
            for mask in run:
                past = mask.bit_length()
                if past < size:
                    first = (mask ^ (1 << past) - 1).bit_length()  # the start of the top run
                    gained = total + scaled[past]
                    mask |= 1 << past
                    i = past - 1
                    while i >= first:
                        child_sum = gained - scaled[i]
                        pending = buckets.get(child_sum)
                        if pending is None:
                            buckets[child_sum] = [mask ^ 1 << i]
                            heappush(sums, child_sum)
                        else:
                            pending.append(mask ^ 1 << i)
                        i -= 1
            popped += run
            count -= len(run)
            if count <= 0:
                break
            total = heappop(sums)
            bucket, head = buckets.pop(total), 0
        cursor[:] = bucket, head + len(run), total

    def decode(mask: int) -> IndexSubset:
        first = (mask ^ (1 << mask.bit_length()) - 1).bit_length()
        return IndexSubset(*_indices_and_sum(mask, scaled), (mask & (1 << first) - 1).bit_count())

    return children, decode, _memo(size)


def subtree_root(s: ScaledSet, n: int) -> IndexSubset:
    """Root node: the n smallest elements, free to advance any position."""
    _check_length(n, s.size)
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
    This view encodes the node as its mask, runs the solver's code rule and
    decodes; the rule opens its buckets in position order.

    Every length-n subset is exactly one node of the tree, whose
    min_modified_pos counts its indices below the start of its top run of
    consecutive indices. A node whose indices are not n ints increasing
    strictly within [0, N), or whose min_modified_pos is not that count,
    raises InputError. Its cached_sum is not read: each child's sum is
    derived from the child's indices.
    """
    indices, _, min_pos = node
    size = tree.scaled.size
    checked = tuple(_checked_indices(indices, size))
    children, decode, _ = _subtree_codec(tree.scaled.scaled_values)
    mask = _mask_of(checked)
    if len(checked) != tree.n or type(min_pos) is not int or min_pos != decode(mask).min_modified_pos:
        raise InputError(f"{node} is not a node of the tree of {tree.n}-subsets of {size} values")
    return _decoded_children(children, decode, mask)


def subtree_frontier(tree: SubsetTree) -> Frontier:
    """Fresh expansion state over the fixed-length subset tree."""
    scaled = tree.scaled.scaled_values
    root = (1 << tree.n) - 1
    return Frontier._coded(root, sum(scaled[: tree.n]), *_subtree_codec(scaled), tree.total, False)
