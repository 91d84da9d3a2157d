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

subtree_frontier runs this tree over int codes (see _subtree_codec);
subtree_root and subtree_children are its public IndexSubset view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappush
from typing import Callable, Sequence

from .model import IndexSubset, InputError, ScaledSet, _check_length, _checked_indices
from .powerset import Frontier, _Decode, _decoded_children, _indices_and_sum, _mask_of, _Rule


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


def _subtree_codec(scaled: Sequence[int]) -> tuple[Callable[[int, int], int], _Rule, _Decode]:
    """The coded fixed-length trees over scaled, one codec for every length: (encode, children, decode).

    encode(mask, min_index) packs a node as mask << width | min_index,
    where width = size.bit_length() holds any index and size itself; the
    root of the length-n tree is encode((1 << n) - 1, 0).
    children is the one child rule, in descending bit order. Advancing the
    run of consecutive set bits that starts at bit i clears bit i and sets
    the bit just past the run: the child's mask is mask ^ 1 << i | 1 << past,
    its sum gains scaled[past] - scaled[i], and its min_index is i + 1. Only
    bits at or above the node's min_index advance, and a run that already
    ends on the last index has no child. decode(code) gives the IndexSubset,
    its sum derived from its indices, and its min_modified_pos counts the
    set bits below min_index.
    """
    size = len(scaled)
    width = size.bit_length()
    low = (1 << width) - 1

    def encode(mask: int, min_index: int) -> int:
        return mask << width | min_index

    def children(code: int, total: int, buckets: dict[int, list], sums: list[int]) -> None:
        mask = code >> width
        start = code & low
        bits = mask >> start << start
        after = -1  # the bit visited before i; -1 before the first, where no run continues
        while bits:
            i = bits.bit_length() - 1
            bits ^= 1 << i
            if after != i + 1:
                past = i + 1  # the index just past the run that starts at i
            after = i
            if past < size:
                child_sum = total + scaled[past] - scaled[i]
                bucket = buckets.get(child_sum)
                if bucket is None:
                    buckets[child_sum] = [(mask ^ 1 << i | 1 << past) << width | i + 1]
                    heappush(sums, child_sum)
                else:
                    bucket.append((mask ^ 1 << i | 1 << past) << width | i + 1)

    def decode(code: int) -> IndexSubset:
        mask = code >> width
        return IndexSubset(*_indices_and_sum(mask, scaled), (mask & (1 << (code & low)) - 1).bit_count())

    return encode, children, decode


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
    This view encodes the node, runs the solver's code rule and decodes.
    The rule files siblings by sum, and each sibling advanced its own
    position, so one sort on min_modified_pos, descending, restores the
    order above.

    A node whose indices are not n ints increasing strictly within [0, N),
    or whose min_modified_pos is not an int in [0, n), raises InputError.
    Its cached_sum is not read: each child's sum is derived from the
    child's indices.
    """
    indices, _, min_pos = node
    size = tree.scaled.size
    checked = tuple(_checked_indices(indices, size))
    if len(checked) != tree.n or not (type(min_pos) is int and 0 <= min_pos < tree.n):
        raise InputError(f"{node} is not a node of the tree of {tree.n}-subsets of {size} values")
    encode, children, decode = _subtree_codec(tree.scaled.scaled_values)
    found = _decoded_children(children, decode, encode(_mask_of(checked), checked[min_pos]))
    return sorted(found, key=lambda child: child.min_modified_pos, reverse=True)


def subtree_frontier(tree: SubsetTree) -> Frontier:
    """Fresh expansion state over the fixed-length subset tree."""
    scaled = tree.scaled.scaled_values
    encode, children, decode = _subtree_codec(scaled)
    return Frontier._coded(encode((1 << tree.n) - 1, 0), sum(scaled[: tree.n]), children, decode, tree.total, False)
