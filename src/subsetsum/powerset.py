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

from .model import IndexSubset, RankError, ScaledSet


def binheap_root(s: ScaledSet) -> IndexSubset:
    """Root node: the singleton subset of the smallest element."""
    return IndexSubset((0,), s.scaled_values[0])


def binheap_children(node: IndexSubset, s: ScaledSet) -> list[IndexSubset]:
    """Generate a node's children, left then right.

    The left child replaces the maximum element with its successor in the
    sorted set; the right child appends the successor. Both sums are >= the
    node's sum. A node whose maximum element is the last one has no children.
    """
    indices = node.indices
    nxt = indices[-1] + 1
    if nxt >= s.size:
        return []
    total = node.cached_sum
    step = s.scaled_values[nxt]
    return [
        IndexSubset(indices[:-1] + (nxt,), total - s.scaled_values[indices[-1]] + step),
        IndexSubset(indices + (nxt,), total + step),
    ]


class Frontier:
    """Best-first expansion state over a heap-ordered subset tree.

    Pending nodes are popped in nondecreasing subset-sum order; equal sums
    pop in insertion order, so every rank is deterministic. Popped nodes
    are memoized, letting one binary search probe ranks in any order and
    resume expansion instead of restarting it.

    A Frontier is single-owner mutable state: concurrent searches over the
    same scaled set must each build their own.
    """

    def __init__(self, root: IndexSubset, expand: Callable[[IndexSubset], list[IndexSubset]]) -> None:
        self._expand = expand
        self._heap: list[tuple[int, int, IndexSubset]] = [(root.cached_sum, 0, root)]
        self._tie_seq = 1
        self._popped: list[IndexSubset] = []
        self.nodes_expanded = 0

    @property
    def emitted(self) -> int:
        """Number of subsets popped so far."""
        return len(self._popped)

    def select(self, k: int) -> IndexSubset:
        """Return the rank-k subset (1-based) in nondecreasing-sum order."""
        if k < 1:
            raise RankError(f"rank must be at least 1, got {k}")
        popped = self._popped
        heap = self._heap
        while len(popped) < k:
            if not heap:
                raise RankError(f"rank {k} exceeds the {len(popped)} subsets in this tree")
            _, _, node = heapq.heappop(heap)
            popped.append(node)
            self.nodes_expanded += 1
            for child in self._expand(node):
                heapq.heappush(heap, (child.cached_sum, self._tie_seq, child))
                self._tie_seq += 1
        return popped[k - 1]


def binheap_frontier(s: ScaledSet) -> Frontier:
    """Fresh expansion state over the tree of all nonempty subsets of s."""
    return Frontier(binheap_root(s), lambda node: binheap_children(node, s))


def lower_bound_rank_search(
    frontier: Frontier,
    total: int,
    target: int,
    rank_log: list[int] | None = None,
) -> tuple[IndexSubset | None, int]:
    """Binary-search ranks [1, total] for a subset whose sum equals target.

    Converges on the leftmost rank whose sum is >= target and checks it for
    equality, which stays correct when several subsets share a sum. Returns
    the match (or None) and the number of rank probes, which is at most
    ceil(log2(total)) + 1; each probed rank is appended to rank_log when a
    list is supplied.
    """
    lo, hi = 1, total
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if rank_log is not None:
            rank_log.append(mid)
        if frontier.select(mid).cached_sum < target:
            lo = mid + 1
        else:
            hi = mid
    probes += 1
    if rank_log is not None:
        rank_log.append(lo)
    candidate = frontier.select(lo)
    if candidate.cached_sum == target:
        return candidate, probes
    return None, probes

