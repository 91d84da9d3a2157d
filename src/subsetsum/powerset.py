"""Lazy enumeration of all nonempty subsets of a positive set in sum order.

The subsets form an implicit binary tree whose nodes are IndexSubsets: the
root is the singleton holding the smallest element; a node's left child
replaces the subset's maximum element with the next one in sorted order, and
its right child appends that next element instead. With strictly positive values both moves can only
grow the sum, so best-first expansion pops subsets in nondecreasing sum
order and selecting rank k touches O(k) nodes. A binary search over ranks
then locates a target sum without materializing the power set.
"""

from __future__ import annotations

import heapq
from typing import Callable

from .model import IndexSubset, InputError, ScaledSet


def binheap_root(s: ScaledSet) -> IndexSubset:
    """Root node: the singleton subset of the smallest element."""
    return IndexSubset((0,), s.scaled_values[0])


def binheap_children(node: IndexSubset, s: ScaledSet) -> list[IndexSubset]:
    """Generate a node's children, left then right.

    The left child replaces the maximum element with its successor in the
    sorted set; the right child appends the successor. Both sums are >= the
    node's sum. A node whose maximum element is the last one has no children.
    """
    indices, total, _ = node
    scaled = s.scaled_values
    top = indices[-1]
    nxt = top + 1
    if nxt >= len(scaled):
        return []
    step = scaled[nxt]
    # tuple.__new__ skips the NamedTuple's Python-level __new__ on this hot path.
    return [
        tuple.__new__(IndexSubset, (indices[:-1] + (nxt,), total - scaled[top] + step, 0)),
        tuple.__new__(IndexSubset, (indices + (nxt,), total + step, 0)),
    ]


# A heap key is cached_sum << _SEQ_SHIFT | seq, where seq is the node's index in
# Frontier._nodes. That list holds a live 8-byte pointer for every seq handed out,
# each to a node of at least 64 bytes, so on a 64-bit machine seq stays below
# 2**58 (2**61 from the pointers alone) and never reaches the sum's bits.
_SEQ_SHIFT = 64
_SEQ_MASK = (1 << _SEQ_SHIFT) - 1


class Frontier:
    """Best-first expansion state over a heap-ordered subset tree.

    Pending nodes are popped in nondecreasing subset-sum order; equal sums
    pop in insertion order, so every rank is deterministic. Popped nodes
    are memoized, letting one binary search probe ranks in any order and
    resume expansion instead of restarting it.

    Every node pushed is appended to a list, so its position there is its
    sequence number: the root is 0 and each child gets the next one. The
    heap holds one integer key per pending node, cached_sum << 64 | seq.
    Keys order first by sum, for any integer sum, negative or wider than
    64 bits, and then by seq, so equal sums pop in insertion order. No
    sequence number can reach 2**64, because each one indexes a list that
    is held in memory at the same time.

    A Frontier is single-owner mutable state: concurrent searches over the
    same scaled set must each build their own.
    """

    def __init__(self, root: IndexSubset, expand: Callable[[IndexSubset], list[IndexSubset]]) -> None:
        self._expand = expand
        self._nodes: list[IndexSubset] = [root]
        self._heap: list[int] = [root.cached_sum << _SEQ_SHIFT]
        self._popped: list[IndexSubset] = []

    @property
    def nodes_expanded(self) -> int:
        """Number of nodes popped and expanded so far."""
        return len(self._popped)

    def select(self, k: int) -> IndexSubset:
        """Return the rank-k subset (1-based) in nondecreasing-sum order.

        The top node is expanded before it leaves the heap, so an expand
        that raises leaves the frontier as it was and a later call resumes.
        Its first child then replaces it at the top in one sift. The keys
        are unique, so the pop order depends only on the heap's contents,
        not on how they are laid out.

        A rank past the end of the tree is detected only when the heap runs
        dry, so it raises InputError after every node has been expanded.
        """
        if k < 1:
            raise InputError(f"rank must be at least 1, got {k}")
        popped = self._popped
        if k <= len(popped):
            return popped[k - 1]
        heap, nodes = self._heap, self._nodes
        expand = self._expand
        heappush, heapreplace, heappop = heapq.heappush, heapq.heapreplace, heapq.heappop
        for _ in range(k - len(popped)):
            if not heap:
                raise InputError(f"rank {k} exceeds the {len(popped)} subsets in this tree")
            node = nodes[heap[0] & _SEQ_MASK]
            children = iter(expand(node))
            popped.append(node)
            child = next(children, None)
            if child is None:
                heappop(heap)
                continue
            heapreplace(heap, child.cached_sum << _SEQ_SHIFT | len(nodes))
            nodes.append(child)
            for child in children:
                heappush(heap, child.cached_sum << _SEQ_SHIFT | len(nodes))
                nodes.append(child)
        return popped[k - 1]


def binheap_frontier(s: ScaledSet) -> Frontier:
    """Fresh expansion state over the tree of all nonempty subsets of s."""
    return Frontier(binheap_root(s), lambda node: binheap_children(node, s))


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
