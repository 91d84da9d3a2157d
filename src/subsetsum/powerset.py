"""Lazy enumeration of all nonempty subsets of a positive set in sum order.

The subsets form an implicit binary tree: the root is the singleton holding
the smallest element; a node's left child replaces the subset's maximum
element with the next one in sorted order, and its right child appends that
next element instead. With strictly positive values both moves can only
grow the sum, so best-first expansion pops subsets in nondecreasing sum
order and selecting rank k touches O(k) nodes. A binary search over ranks
then locates a target sum without materializing the power set.

binheap_frontier runs this tree over int codes (see _binheap_rule);
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
# heappushes the sum onto sums, the heap of distinct pending sums. A
# decoder maps a code and its sum to the IndexSubset the code stands for.
_Rule = Callable[[int, int, dict[int, list], list[int]], None]
_Decode = Callable[[int, int], IndexSubset]


def _mask_of(indices: Sequence[int]) -> int:
    """The bit mask with one bit set per index."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _indices_of(mask: int) -> tuple[int, ...]:
    """The set bits of a mask, ascending."""
    indices = []
    while mask:
        low = mask & -mask
        indices.append(low.bit_length() - 1)
        mask ^= low
    return tuple(indices)


def _binheap_rule(scaled: Sequence[int]) -> _Rule:
    """The power-set tree's child rule over int codes: left child, then right.

    A node's code is the bit mask of its indices. The left child moves the
    top bit up by one; the right child adds the bit above it. A node whose
    top bit is the last index has no children.
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

    return children


def _binheap_decode(mask: int, total: int) -> IndexSubset:
    return IndexSubset(_indices_of(mask), total)


class _PushLog(dict):
    """A bucket map that never holds a bucket, so every child opens one: it logs (code, sum) in push order."""

    def __init__(self) -> None:
        super().__init__()
        self.pushed: list[tuple[int, int]] = []

    def get(self, total: int, default: object = None) -> None:
        return None

    def __setitem__(self, total: int, bucket: list) -> None:
        self.pushed.append((bucket[0], total))


def _decoded_children(rule: _Rule, decode: _Decode, code: int, total: int) -> list[IndexSubset]:
    """One node's children, decoded in push order: the rule runs on a scratch bucket map that logs each push."""
    log = _PushLog()
    rule(code, total, log, [])
    return [decode(child, child_sum) for child, child_sum in log.pushed]


def binheap_root(s: ScaledSet) -> IndexSubset:
    """Root node: the singleton subset of the smallest element."""
    return IndexSubset((0,), s.scaled_values[0])


def binheap_children(node: IndexSubset, s: ScaledSet) -> list[IndexSubset]:
    """Generate a node's children, left then right.

    The left child replaces the maximum element with its successor in the
    sorted set; the right child appends the successor. Both sums are >= the
    node's sum. A node whose maximum element is the last one has no children.
    This view encodes the node, runs the solver's mask rule and decodes.

    A node whose indices are not one or more ints increasing strictly
    within [0, N) raises InputError. Its cached_sum is trusted: the
    children's sums are offsets from it.
    """
    checked = tuple(_checked_indices(node.indices, s.size))
    if not checked:
        raise InputError(f"{node} is not a node of the power-set tree of {s.size} values")
    return _decoded_children(_binheap_rule(s.scaled_values), _binheap_decode, _mask_of(checked), node.cached_sum)


class Frontier:
    """Best-first expansion state over a heap-ordered subset tree.

    Pending nodes are popped in nondecreasing subset-sum order; equal sums
    pop in insertion order, so every rank is deterministic. Popped nodes
    are memoized, letting one binary search probe ranks in any order and
    resume expansion instead of restarting it.

    A node is held as a code: on the solver's path a plain int (see
    subtree_frontier and binheap_frontier). Pending codes wait in buckets,
    one list per distinct pending sum, in insertion order, and the heap
    sums orders only the distinct sums, as in Dial's bucket queue. A child
    whose sum is already pending costs one append and no heap sift, and the
    only objects the garbage collector tracks are the bucket lists, not
    the nodes. select drains the bucket of the smallest sum from a cursor
    (bucket, head, sum). That bucket stays registered while it drains, so a
    child with its parent's sum joins its tail, and it is dropped once
    drained, before the next smallest sum is popped off the heap. Should a
    pending sum fall below the current one, which no coded rule produces
    but Frontier(root, expand) may, the rest of the current bucket is
    parked under its sum and the lower sum is drained first. So sums may
    be any integers, negative or wider than 64 bits. The pending count is
    the cursor's bucket past head plus every bucket in sums. The memo holds
    each popped code and its sum; a code becomes an IndexSubset only when
    select returns its rank.

    Frontier(root, expand) runs the same loop over IndexSubset nodes: each
    node is its own code, and select returns the very objects expand gave.
    This adapter is internal and off the solver's path: only the tests and
    the benchmark's layer replica build one, over subtree_children or
    binheap_children. It retires, with the power-set view, once the
    replica runs on the coded rules.

    A Frontier is single-owner mutable state: concurrent searches over the
    same scaled set must each build their own.
    """

    def __init__(self, root: IndexSubset, expand: Callable[[IndexSubset], list[IndexSubset]]) -> None:
        def rule(node: IndexSubset, _: int, buckets: dict[int, list], sums: list[int]) -> None:
            for child in expand(node):  # a list, built before the buckets change
                total = child.cached_sum
                bucket = buckets.get(total)
                if bucket is None:
                    buckets[total] = [child]
                    heappush(sums, total)
                else:
                    bucket.append(child)

        self._start(root, root.cached_sum, rule, lambda node, _: node, None)

    @classmethod
    def _coded(cls, code: int, total: int, rule: _Rule, decode: _Decode, size: int) -> Frontier:
        """A frontier over int codes of a tree of size subsets; decode(code, sum) gives the subset."""
        frontier = cls.__new__(cls)
        frontier._start(code, total, rule, decode, size)
        return frontier

    def _start(self, code: object, total: int, rule: Callable, decode: Callable, size: int | None) -> None:
        self._rule, self._decode, self._size = rule, decode, size
        self._cursor = ([code], 0, total)
        self._buckets = {total: self._cursor[0]}
        self._sums: list[int] = []
        self._popped: list = []
        self._popped_sums: list[int] = []

    @property
    def nodes_expanded(self) -> int:
        """Number of nodes popped and expanded so far."""
        return len(self._popped)

    def select(self, k: int) -> IndexSubset:
        """Return the rank-k subset (1-based) in nondecreasing-sum order.

        Each step expands the node at the cursor, whose rule files the
        children into buckets, then moves the cursor past it. Only the
        returned rank is decoded. The cursor is saved even when a rule
        raises, and in Frontier(root, expand) expand runs before the
        buckets change, so an expand that raises leaves the frontier as it
        was and a later call resumes.

        A rank that is not an int of at least 1, or past the end of a tree
        frontier, raises InputError before any node is expanded.
        Frontier(root, expand) does not know its tree's size, so there the
        rank is found past the end only when no sum is pending, after every
        node has been expanded.
        """
        if type(k) is not int or k < 1:
            raise InputError(f"rank must be an int of at least 1, got {k!r}")
        popped, popped_sums = self._popped, self._popped_sums
        if k > len(popped):
            if self._size is not None and k > self._size:
                raise InputError(f"rank {k} exceeds the {self._size} subsets in this tree")
            buckets, sums, rule = self._buckets, self._sums, self._rule
            bucket, head, total = self._cursor
            try:
                for _ in range(k - len(popped)):
                    if head == len(bucket):
                        if not sums:
                            raise InputError(f"rank {k} exceeds the {len(popped)} subsets in this tree")
                        del buckets[total]
                        total = heappop(sums)
                        bucket, head = buckets[total], 0
                    elif sums and sums[0] < total:  # a lower sum is pending: park the rest of this bucket
                        buckets[total] = bucket[head:]
                        heappush(sums, total)
                        total = heappop(sums)
                        bucket, head = buckets[total], 0
                    code = bucket[head]
                    rule(code, total, buckets, sums)
                    head += 1
                    popped.append(code)
                    popped_sums.append(total)
            finally:
                self._cursor = bucket, head, total
        return self._decode(popped[k - 1], popped_sums[k - 1])


def binheap_frontier(s: ScaledSet) -> Frontier:
    """Fresh expansion state over the tree of all nonempty subsets of s."""
    root = 1  # the mask of {0}
    return Frontier._coded(root, s.scaled_values[0], _binheap_rule(s.scaled_values), _binheap_decode, (1 << s.size) - 1)


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
    which is at most ceil(log2(total)) + 1.
    """
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
