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

from heapq import heappop, heappush, heapreplace
from typing import Callable, Sequence

from .model import IndexSubset, InputError, ScaledSet

# A rule expands the node on top of a frontier's heap in place. Called as
# rule(code, sum, heap, codes), it keys each child as sum << _SEQ_SHIFT |
# len(codes) and appends the child's code to codes: the first child
# replaces the node's key at the top, later ones are pushed, and a node
# with no children is popped. A decoder maps a code and its sum to the
# IndexSubset the code stands for.
_Rule = Callable[[int, int, list[int], list], None]
_Decode = Callable[[int, int], IndexSubset]

# The layout of a heap key; Frontier describes it.
_SEQ_SHIFT = 64
_SEQ_MASK = (1 << _SEQ_SHIFT) - 1


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
    top bit up by one and replaces the node at the top of the heap; the
    right child adds the bit above it and is pushed. A node whose top bit
    is the last index has no children and is popped.
    """
    size = len(scaled)

    def children(mask: int, total: int, heap: list[int], codes: list[int]) -> None:
        top = mask.bit_length() - 1
        nxt = top + 1
        if nxt >= size:
            heappop(heap)
            return
        step = scaled[nxt]
        seq = len(codes)
        heapreplace(heap, (total - scaled[top] + step) << _SEQ_SHIFT | seq)
        heappush(heap, (total + step) << _SEQ_SHIFT | seq + 1)
        codes.append(mask ^ 1 << top | 1 << nxt)
        codes.append(mask | 1 << nxt)

    return children


def _binheap_decode(mask: int, total: int) -> IndexSubset:
    return IndexSubset(_indices_of(mask), total)


def _decoded_children(rule: _Rule, decode: _Decode, code: int, total: int) -> list[IndexSubset]:
    """One node's children, decoded in push order: the rule runs on a scratch heap whose one key is the node's."""
    heap, codes = [0], [None]
    rule(code, total, heap, codes)
    keys = sorted(heap, key=lambda key: key & _SEQ_MASK)
    return [decode(codes[key & _SEQ_MASK], key >> _SEQ_SHIFT) for key in keys]


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
    return _decoded_children(_binheap_rule(s.scaled_values), _binheap_decode, _mask_of(node.indices), node.cached_sum)


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
    This adapter is internal and off the solver's path: only the tests and
    the benchmark's layer replica build one, over subtree_children or
    binheap_children. It retires, with the power-set view, once the
    replica runs on the coded rules.

    A Frontier is single-owner mutable state: concurrent searches over the
    same scaled set must each build their own.
    """

    def __init__(self, root: IndexSubset, expand: Callable[[IndexSubset], list[IndexSubset]]) -> None:
        def rule(node: IndexSubset, _: int, heap: list[int], codes: list) -> None:
            put = heapreplace  # heappush once the first child has taken the node's place
            for child in expand(node):  # a list, built before the heap changes
                put(heap, child.cached_sum << _SEQ_SHIFT | len(codes))
                put = heappush
                codes.append(child)
            if put is heapreplace:
                heappop(heap)

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

        The rule expands the top node in place: its first child replaces
        it at the top in one sift, and its other children are pushed. The
        keys are unique, so the pop order depends only on the heap's
        contents, not on how they are laid out. Only the returned rank is
        decoded. In Frontier(root, expand), expand runs before the heap
        changes, so an expand that raises leaves the frontier as it was
        and a later call resumes.

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
        for _ in range(k - len(popped)):
            if not heap:
                raise InputError(f"rank {k} exceeds the {len(popped)} subsets in this tree")
            key = heap[0]
            rule(codes[key & _SEQ_MASK], key >> _SEQ_SHIFT, heap, codes)
            popped.append(key)
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
