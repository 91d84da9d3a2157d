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
from typing import MutableSequence, Sequence

from .model import IndexSubset, InputError, ScaledSet, _check_length, _checked_indices, _checked_scaled
from .powerset import _BELOW, _BIT, Frontier, _CodedFrontier, _decoded_children, _mask_of, _Rules


@dataclass(frozen=True, slots=True)
class SubsetTree:
    """The implicit tree of all C(N, n) length-n subsets over a scaled set.

    A scaled that is not a ScaledSet, or a length n that is not an int in
    [1, N], raises InputError.
    """

    scaled: ScaledSet
    n: int
    total: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        _check_length(self.n, _checked_scaled(self.scaled).size)
        object.__setattr__(self, "total", math.comb(self.scaled.size, self.n))


def _checked_tree(tree: object) -> SubsetTree:
    """tree itself when it is a SubsetTree, which its construction checked; anything else raises InputError."""
    if not isinstance(tree, SubsetTree):
        raise InputError(f"expected a SubsetTree, got {tree!r}")
    return tree


def _subtree_rule(scaled: Sequence[int]) -> _Rules:
    """The child rule of the fixed-length trees over scaled, one for every length, in both forms (see _Rule).

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
    it reads them from the tables every rule shares (see
    subsetsum.powerset._PositionTable): bit[i] = 1 << i, and below[p] =
    (1 << p) - 1, whose xor with the mask clears the top run and sets the
    bit just below it, if any, so that the xor's bit_length is the run's
    start. A shift whose result passes 256 makes a new int object, so
    computing these per node and per child paid an allocation for each of
    them past bit 8.
    """
    size = len(scaled)
    bit, below = _BIT.at_least(size), _BELOW.at_least(size)

    def keyed(cursor: list, stop: int, buckets: dict[int, list], sums: list[int], runs: list,
              ends: MutableSequence[int], totals: MutableSequence[int]) -> None:
        bucket, head, total, done = cursor
        while done < stop:
            while head == len(bucket):  # drained: take the bucket of the smallest pending sum
                total = heappop(sums)
                bucket, head = buckets.pop(total), 0
            count = stop - done
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
            head += len(run)
            done += len(run)
            runs.append(run)
            ends.append(done)
            totals.append(total)
        cursor[:] = bucket, head, total, done

    def slotted(cursor: list, stop: int, slots: list, _: None, runs: list,
                ends: MutableSequence[int], totals: MutableSequence[int]) -> None:
        bucket, head, total, done = cursor
        while done < stop:
            while head == len(bucket):  # drained: take the first bucket filed at or above the cursor's sum
                while slots[total] is None:
                    total += 1
                bucket, head, slots[total] = slots[total], 0, None
            count = stop - done
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
                        pending = slots[child_sum]
                        if pending is None:
                            slots[child_sum] = [mask ^ bit[i]]
                        else:
                            pending.append(mask ^ bit[i])
                        i -= 1
            head += len(run)
            done += len(run)
            runs.append(run)
            ends.append(done)
            totals.append(total)
        cursor[:] = bucket, head, total, done

    return _Rules(keyed, slotted)


def subtree_root(s: ScaledSet, n: int) -> IndexSubset:
    """Root node: the n smallest elements, whose top run is all of them, so its children may advance any position.

    An s that is not a ScaledSet, or a length n that is not an int in [1,
    N], raises InputError.
    """
    _check_length(n, _checked_scaled(s).size)
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
    are the whole node. A tree that is not a SubsetTree, or a node that is
    not an IndexSubset whose indices are a tuple of n ints increasing
    strictly within [0, N), raises InputError. Its cached_sum is not read:
    each child's sum is derived from the child's indices.
    """
    scaled = _checked_tree(tree).scaled.scaled_values
    checked = _checked_indices(node, len(scaled))
    if len(checked) != tree.n:
        raise InputError(f"{node} is not a node of the tree of {tree.n}-subsets of {len(scaled)} values")
    return _decoded_children(_subtree_rule(scaled).keyed, scaled, _mask_of(checked))


def subtree_frontier(tree: SubsetTree) -> Frontier:
    """Fresh expansion state over the fixed-length subset tree; a tree that is not a SubsetTree raises InputError."""
    scaled = _checked_tree(tree).scaled.scaled_values
    root = (1 << tree.n) - 1
    return _CodedFrontier(root, sum(scaled[: tree.n]), _subtree_rule(scaled).keyed, scaled, tree.total)
