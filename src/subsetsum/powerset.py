"""Lazy enumeration of all nonempty subsets of a positive set in sum order.

The subsets form an implicit binary tree: the root is the singleton holding
the smallest element; a node's left child replaces the subset's maximum
element with the next one in sorted order, and its right child appends that
next element instead. With strictly positive values both moves can only
grow the sum, so best-first expansion pops subsets in nondecreasing sum
order and selecting rank k touches O(k) nodes. A binary search over ranks
then locates a target sum without materializing the power set.

binheap_frontier runs this tree over int codes (see _binheap_codec);
binheap_root and binheap_children are its IndexSubset view. That view and
the Frontier(root, expand) adapter are internal, not exported by the
package: subsetsum.checks, the tests and the benchmark's layer replica use
them, and no solve reaches them. Both retire once the replica runs on the
coded rules. The public view of the paper's subset tree is
subtree_root/subtree_children.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Sequence

from .model import IndexSubset, InputError, ScaledSet, _checked_indices

# A rule expands one node of a frontier. Called as rule(code, sum, buckets,
# sums), it appends each child's code to buckets[child_sum], the list of
# codes pending at that sum; a child whose sum has no bucket opens one and
# heappushes the sum onto sums, the heap of distinct pending sums. No
# child_sum is below sum: the tree is heap-ordered. A decoder maps a code
# to the IndexSubset it stands for, deriving the sum from its indices.
_Rule = Callable[[int, int, dict[int, list], list[int]], None]
_Decode = Callable[[int], IndexSubset]


def _mask_of(indices: Sequence[int]) -> int:
    """The bit mask with one bit set per index."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _indices_and_sum(mask: int, scaled: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The set bits of a mask, ascending, and the sum of their scaled values."""
    indices, total = [], 0
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        indices.append(i)
        total += scaled[i]
        mask ^= low
    return tuple(indices), total


def _binheap_codec(scaled: Sequence[int]) -> tuple[_Rule, _Decode]:
    """The power-set tree over int codes: (children, decode).

    A node's code is the bit mask of its indices. children files the left
    child, then the right. The left child moves the top bit up by one; the
    right child adds the bit above it. A node whose top bit is the last
    index has no children. decode(mask) gives the IndexSubset and its sum.
    """
    size = len(scaled)

    def children(mask: int, total: int, buckets: dict[int, list], sums: list[int]) -> None:
        top = mask.bit_length() - 1
        nxt = top + 1
        if nxt >= size:
            return
        step = scaled[nxt]
        left = total - scaled[top] + step
        bucket = buckets.get(left)
        if bucket is None:
            buckets[left] = [mask ^ 1 << top | 1 << nxt]
            heappush(sums, left)
        else:
            bucket.append(mask ^ 1 << top | 1 << nxt)
        right = total + step
        bucket = buckets.get(right)
        if bucket is None:
            buckets[right] = [mask | 1 << nxt]
            heappush(sums, right)
        else:
            bucket.append(mask | 1 << nxt)

    def decode(mask: int) -> IndexSubset:
        return IndexSubset(*_indices_and_sum(mask, scaled))

    return children, decode


def _decoded_children(rule: _Rule, decode: _Decode, code: int) -> list[IndexSubset]:
    """One node's children as decode gives them, grouped by sum in the order their buckets opened.

    The rule runs on a scratch bucket map from a sum of 0, so a bucket's key
    is its children's sum less the node's. Only differences between sums
    group and order the buckets, and each child's sum is the one decode
    derives from its indices.
    """
    buckets: dict[int, list] = {}
    rule(code, 0, buckets, [])
    return [decode(child) for bucket in buckets.values() for child in bucket]


def binheap_root(s: ScaledSet) -> IndexSubset:
    """Root node: the singleton subset of the smallest element."""
    return IndexSubset((0,), s.scaled_values[0])


def binheap_children(node: IndexSubset, s: ScaledSet) -> list[IndexSubset]:
    """Generate a node's children, left then right.

    The left child replaces the maximum element with its successor in the
    sorted set; the right child appends the successor. Both sums are >= the
    node's sum. A node whose maximum element is the last one has no children.
    This view encodes the node, runs the solver's mask rule and decodes.
    The left sum is always below the right one, since scaled values are at
    least 1, so the bucket order is already left then right.

    A node whose indices are not one or more ints increasing strictly
    within [0, N) raises InputError. Its cached_sum is not read: each
    child's sum is derived from the child's indices.
    """
    checked = tuple(_checked_indices(node.indices, s.size))
    if not checked:
        raise InputError(f"{node} is not a node of the power-set tree of {s.size} values")
    return _decoded_children(*_binheap_codec(s.scaled_values), _mask_of(checked))


class Frontier:
    """Best-first expansion state over a heap-ordered subset tree.

    Pending nodes are popped in nondecreasing subset-sum order; equal sums
    pop in insertion order, so every rank is deterministic. Popped nodes
    are memoized, letting one binary search probe ranks in any order and
    resume expansion instead of restarting it.

    The tree must be heap-ordered, as the paper's trees are: no child's sum
    is below its parent's. So the frontier is a monotone priority queue,
    whose smallest pending sum never falls. Sums may be any integers,
    negative or wider than 64 bits.

    A node is held as a code: on the solver's path a plain int (see
    subtree_frontier and binheap_frontier). Pending codes wait in buckets,
    one list per distinct pending sum, in insertion order, and the heap
    sums orders only the distinct sums, as in Dial's bucket queue. A child
    whose sum is already pending costs one append and no heap sift, and the
    only objects the garbage collector tracks are the bucket lists, not
    the nodes. select drains the bucket of the smallest sum from a cursor
    (bucket, head, sum). That bucket stays registered while it drains, so a
    child with its parent's sum joins its tail, and it is dropped once
    drained, before the next smallest sum is popped off the heap. The
    pending count is the cursor's bucket past head plus every bucket in
    sums. The memo holds each popped code, and only the code: a code
    becomes an IndexSubset, its sum derived from its indices, only when
    select returns its rank. Expansion never reads the memo, so it can drop
    a prefix: ranks up to base are forgotten, and nodes_expanded is base
    plus the memo's length.

    A frontier that solve or solve_positive builds for its own rank search,
    and never hands out, forgets: whenever a probe rises above the previous
    one, select drops every rank up to that previous probe. In a lower-bound
    binary search, a rising probe proves the previous one read a sum below
    the target, so no later probe asks for it, and the memo holds only the
    current leg of the search: at most about half the tree, where a frontier
    that keeps every rank grows to every node it expands. Asking for a
    forgotten rank raises InputError. The frontiers of subtree_frontier,
    binheap_frontier and Frontier(root, expand) forget nothing and serve
    every rank in any order.

    Frontier(root, expand) runs the same loop over IndexSubset nodes: each
    node is its own code, decode is the identity, and select returns the
    very objects expand gave. The coded rules are heap-ordered by
    construction, because scaled values are sorted; this adapter takes its
    tree from outside code, so it checks each expanded node's children
    first and raises InputError for a child whose sum is below its
    parent's, before any child is filed. It is internal and off the
    solver's path: only the tests and the benchmark's layer replica build
    one, over subtree_children or binheap_children. It retires, with the
    power-set view, once the replica runs on the coded rules.

    A Frontier is single-owner mutable state: concurrent searches over the
    same scaled set must each build their own.
    """

    def __init__(self, root: IndexSubset, expand: Callable[[IndexSubset], list[IndexSubset]]) -> None:
        def rule(node: IndexSubset, parent_sum: int, buckets: dict[int, list], sums: list[int]) -> None:
            children = expand(node)  # a list, checked whole before the buckets change
            for child in children:
                if child.cached_sum < parent_sum:
                    raise InputError(f"child {child} sums below its parent {node}: not a heap-ordered tree")
            for child in children:
                total = child.cached_sum
                bucket = buckets.get(total)
                if bucket is None:
                    buckets[total] = [child]
                    heappush(sums, total)
                else:
                    bucket.append(child)

        self._start(root, root.cached_sum, rule, lambda node: node, None, False)

    @classmethod
    def _coded(cls, code: int, total: int, rule: _Rule, decode: _Decode, size: int, forgets: bool) -> Frontier:
        """A frontier over int codes of a tree of size subsets; decode(code) gives the subset.

        forgets is True only for the solver's own rank-search frontiers.
        """
        frontier = cls.__new__(cls)
        frontier._start(code, total, rule, decode, size, forgets)
        return frontier

    def _start(
        self, code: object, total: int, rule: Callable, decode: Callable, size: int | None, forgets: bool
    ) -> None:
        self._rule, self._decode, self._size = rule, decode, size
        self._cursor = ([code], 0, total)
        self._buckets = {total: self._cursor[0]}
        self._sums: list[int] = []
        self._base = 0  # ranks 1..base are forgotten; the memo holds ranks base+1 onward
        self._probe = 0 if forgets else None  # the previous rank selected, on a frontier that forgets
        self._popped: list = []

    @property
    def nodes_expanded(self) -> int:
        """Number of nodes popped and expanded so far, forgotten ones included."""
        return self._base + len(self._popped)

    def select(self, k: int) -> IndexSubset:
        """Return the rank-k subset (1-based) in nondecreasing-sum order.

        Each step expands the node at the cursor, whose rule files the
        children into buckets, then moves the cursor past it. When the
        cursor's bucket is drained, the next smallest sum is popped; heap
        order means no pending sum is ever below the cursor's. Only the
        returned rank is decoded. The cursor is saved even when a rule
        raises, and in Frontier(root, expand) expand runs and its children
        are checked before the buckets change, so an expand that raises, or
        a child below its parent, leaves the frontier as it was: a later
        call expands that node again.

        A rank that is not an int of at least 1, or past the end of a tree
        frontier, raises InputError before any node is expanded.
        Frontier(root, expand) does not know its tree's size, so there the
        rank is found past the end only when no sum is pending, after every
        node has been expanded. On a frontier that forgets, a rank it has
        forgotten raises InputError and changes nothing; a rank above the
        previous probe first forgets every rank up to that probe.
        """
        if type(k) is not int or k < 1:
            raise InputError(f"rank must be an int of at least 1, got {k!r}")
        if self._size is not None and k > self._size:
            raise InputError(f"rank {k} exceeds the {self._size} subsets in this tree")
        popped, base, probe = self._popped, self._base, self._probe
        if k <= base:
            raise InputError(f"rank {k} was forgotten: this rank search's frontier keeps only ranks above {base}")
        if probe is not None:
            if k > probe:
                del popped[: probe - base]
                self._base = base = probe
            self._probe = k
        if k > base + len(popped):
            buckets, sums, rule = self._buckets, self._sums, self._rule
            bucket, head, total = self._cursor
            try:
                for _ in range(k - base - len(popped)):
                    if head == len(bucket):
                        if not sums:
                            raise InputError(f"rank {k} exceeds the {base + len(popped)} subsets in this tree")
                        del buckets[total]
                        total = heappop(sums)
                        bucket, head = buckets[total], 0
                    code = bucket[head]
                    rule(code, total, buckets, sums)
                    head += 1
                    popped.append(code)
            finally:
                self._cursor = bucket, head, total
        return self._decode(popped[k - 1 - base])


def binheap_frontier(s: ScaledSet) -> Frontier:
    """Fresh expansion state over the tree of all nonempty subsets of s."""
    return _binheap_frontier(s, False)


def _binheap_frontier(s: ScaledSet, forgets: bool) -> Frontier:
    """binheap_frontier, or with forgets=True the solver's rank-search frontier that forgets (see Frontier)."""
    root = 1  # the mask of {0}
    return Frontier._coded(root, s.scaled_values[0], *_binheap_codec(s.scaled_values), (1 << s.size) - 1, forgets)


def lower_bound_rank_search(
    frontier: Frontier,
    total: int,
    target: int,
    rank_log: list[int],
) -> tuple[IndexSubset | None, int]:
    """Binary-search ranks [1, total] for a subset whose sum equals target.

    Converges on the leftmost rank whose sum is >= target and checks it for
    equality, which stays correct when several subsets share a sum. Each
    probed rank is appended to rank_log, after whatever it already holds.
    Returns the match (or None) and this call's number of rank probes,
    which is at most ceil(log2(total)) + 1. A total that is not an int of
    at least 1 raises InputError before any probe.
    """
    if type(total) is not int or total < 1:
        raise InputError(f"total must be an int of at least 1, got {total!r}")
    start = len(rank_log)
    lo, hi = 1, total
    while lo < hi:
        mid = (lo + hi) // 2
        rank_log.append(mid)
        if frontier.select(mid).cached_sum < target:
            lo = mid + 1
        else:
            hi = mid
    rank_log.append(lo)
    candidate = frontier.select(lo)
    probes = len(rank_log) - start
    if candidate.cached_sum == target:
        return candidate, probes
    return None, probes
