"""Lazy enumeration of all nonempty subsets of a positive set in sum order.

The subsets form an implicit binary tree: the root is the singleton holding
the smallest element; a node's left child replaces the subset's maximum
element with the next one in sorted order, and its right child appends that
next element instead. With strictly positive values both moves can only
grow the sum, so best-first expansion pops subsets in nondecreasing sum
order and selecting rank k touches O(k) nodes. A binary search over ranks
then locates a target sum without materializing the power set.

binheap_frontier runs this tree over int codes (see _binheap_rule);
binheap_root and binheap_children are its IndexSubset view.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

from .model import IndexSubset, InputError, ScaledSet

# A rule maps a node's code and sum to its children, flattened as
# [sum, code, sum, code, ...] in push order; a decoder maps a code and its
# sum to the IndexSubset the code stands for.
_Rule = Callable[[int, int], list[int]]
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
    top bit up by one, the right child adds the bit above it; a node whose
    top bit is the last index has no children.
    """
    size = len(scaled)

    def children(mask: int, total: int) -> list[int]:
        top = mask.bit_length() - 1
        nxt = top + 1
        if nxt >= size:
            return []
        step = scaled[nxt]
        return [total - scaled[top] + step, mask ^ 1 << top | 1 << nxt, total + step, mask | 1 << nxt]

    return children


def _binheap_decode(mask: int, total: int) -> IndexSubset:
    return IndexSubset(_indices_of(mask), total)


def binheap_root(s: ScaledSet) -> IndexSubset:
    """Root node: the singleton subset of the smallest element."""
    return IndexSubset((0,), s.scaled_values[0])


def binheap_children(node: IndexSubset, s: ScaledSet) -> list[IndexSubset]:
    """Generate a node's children, left then right.

    The left child replaces the maximum element with its successor in the
    sorted set; the right child appends the successor. Both sums are >= the
    node's sum. A node whose maximum element is the last one has no children.
    This view encodes the node, runs the solver's mask rule and decodes.
    """
    kids = _binheap_rule(s.scaled_values)(_mask_of(node.indices), node.cached_sum)
    return [_binheap_decode(kids[j + 1], kids[j]) for j in range(0, len(kids), 2)]


# The layout of a heap key; Frontier describes it.
_SEQ_SHIFT = 64
_SEQ_MASK = (1 << _SEQ_SHIFT) - 1


class Frontier:
    """Best-first expansion state over a heap-ordered subset tree.

    Pending nodes are popped in nondecreasing subset-sum order; equal sums
    pop in insertion order, so every rank is deterministic. Popped nodes
    are memoized, letting one binary search probe ranks in any order and
    resume expansion instead of restarting it.

    A node is held as a code: on the solver's path a plain int (see
    subtree_frontier and binheap_frontier), so an expanded node allocates
    no object the garbage collector tracks. Every code pushed is appended
    to a list, so its position there is its sequence number: the root is 0
    and each child gets the next one. The heap holds one integer key per
    pending node, sum << 64 | seq, and the memo holds the keys of the
    popped nodes. Keys order first by sum, for any integer sum, negative or
    wider than 64 bits, and then by seq, so equal sums pop in insertion
    order. The list keeps one 8-byte pointer per code, so seq < 2**61 and
    never reaches the sum's bits. A code becomes an IndexSubset only when
    select returns its rank.

    Frontier(root, expand) runs the same loop over IndexSubset nodes: each
    node is its own code, and select returns the very objects expand gave.

    A Frontier is single-owner mutable state: concurrent searches over the
    same scaled set must each build their own.
    """

    def __init__(self, root: IndexSubset, expand: Callable[[IndexSubset], list[IndexSubset]]) -> None:
        def rule(node: IndexSubset, _: int) -> list:
            kids: list = []
            for child in expand(node):
                kids += child.cached_sum, child
            return kids

        self._start(root, root.cached_sum, rule, lambda node, _: node, None)

    @classmethod
    def _coded(cls, code: int, total: int, rule: _Rule, decode: _Decode, size: int) -> Frontier:
        """A frontier over int codes of a tree of size subsets; decode(code, sum) gives the subset."""
        frontier = cls.__new__(cls)
        frontier._start(code, total, rule, decode, size)
        return frontier

    def _start(self, code: object, total: int, rule: Callable, decode: Callable, size: int | None) -> None:
        self._rule, self._decode, self._size = rule, decode, size
        self._codes = [code]
        self._heap: list[int] = [total << _SEQ_SHIFT]
        self._popped: list[int] = []

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
        not on how they are laid out. Only the returned rank is decoded.

        A rank that is not an int of at least 1, or past the end of a tree
        frontier, raises InputError before any node is expanded.
        Frontier(root, expand) does not know its tree's size, so there the
        rank is found past the end only when the heap runs dry, after every
        node has been expanded.
        """
        if type(k) is not int or k < 1:
            raise InputError(f"rank must be an int of at least 1, got {k!r}")
        if self._size is not None and k > self._size:
            raise InputError(f"rank {k} exceeds the {self._size} subsets in this tree")
        popped, codes, heap, rule = self._popped, self._codes, self._heap, self._rule
        heappush, heapreplace, heappop = heapq.heappush, heapq.heapreplace, heapq.heappop
        for _ in range(k - len(popped)):
            if not heap:
                raise InputError(f"rank {k} exceeds the {len(popped)} subsets in this tree")
            key = heap[0]
            kids = rule(codes[key & _SEQ_MASK], key >> _SEQ_SHIFT)
            popped.append(key)
            if not kids:
                heappop(heap)
                continue
            heapreplace(heap, kids[0] << _SEQ_SHIFT | len(codes))
            codes.append(kids[1])
            for j in range(2, len(kids), 2):
                heappush(heap, kids[j] << _SEQ_SHIFT | len(codes))
                codes.append(kids[j + 1])
        key = popped[k - 1]
        return self._decode(codes[key & _SEQ_MASK], key >> _SEQ_SHIFT)


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
