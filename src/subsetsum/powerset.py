"""Lazy enumeration of all nonempty subsets of a positive set in sum order.

The subsets form an implicit binary tree: the root is the singleton holding
the smallest element; a node's left child replaces the subset's maximum
element with the next one in sorted order, and its right child appends that
next element instead. With strictly positive values both moves can only
grow the sum, so best-first expansion pops subsets in nondecreasing sum
order and selecting rank k touches O(k) nodes. A binary search over ranks
then locates a target sum without materializing the power set.

This module owns the node code of both trees: the bit mask of a node's
indices into the sorted scaled set, which _decode turns into the
IndexSubset it stands for. Each tree contributes only its child rule over
that code: _binheap_rule here, _subtree_rule in subsetsum.subset_tree.
binheap_frontier runs this tree over its codes, in a _CodedFrontier, the
bucket queue that every solve runs; binheap_root and binheap_children are
its IndexSubset view. That view is internal, not exported by the package:
subsetsum.checks, the tests and the benchmark's layer replica use it, and
no solve reaches it. Frontier(root, expand) is the plain best-first heap
over IndexSubset nodes, which only the tests and the replica build. Both
retire once the replica runs on the coded rules. The public view of the
paper's subset tree is subtree_root/subtree_children.
"""

from __future__ import annotations

from array import array
from functools import partial
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Sequence

from .model import IndexSubset, InputError, ScaledSet, _checked_indices

# A rule drains a frontier's pending nodes in pop order. Called as
# rule(cursor, count, buckets, sums, popped), it expands the next count
# pending nodes and writes the cursor back when done. The cursor [bucket,
# head, sum] is the bucket being drained, which has left buckets, the map
# of each distinct pending sum to its list of codes in insertion order;
# sums is the heap of those sums. Once the cursor's bucket is drained, the
# rule heappops the next sum and takes its bucket with buckets.pop, so no
# child joins a bucket while it drains: a child with its parent's sum opens
# a new bucket at that sum, which the heap hands out next, and ties still
# pop first in, first out. Each bucket is one run of nodes sharing a sum:
# a bucket that fits in what is left of count is expanded in place; one
# that does not, or the rest of a bucket an earlier call left unfinished,
# is sliced, so exactly count nodes are expanded. Each run joins popped
# whole (popped += run). Each child's code is appended to
# buckets[child_sum]; a child whose sum has no bucket opens one and
# heappushes the sum. No child_sum is below sum: the tree is heap-ordered.
# A rule trusts count not to pass the last node, since select checks the
# rank against the tree's size first. Each rule holds its own copy of
# this loop: a shared loop that called the rule once per run made the
# planted benchmark's median solve 5-16% slower, since its buckets are
# mostly single nodes. popped is not the memo but a list in which select
# stages at most _CHUNK codes, and then packs them into the memo (see
# _CodedFrontier) with one call: a pack into an array costs about 40 ns a
# call, and packing each run as it is expanded would pay that for most
# nodes, since most runs hold one node. A code is a node's bit mask, for
# either tree; _decode maps it to the IndexSubset it stands for. A rule's
# factory builds, once, tables of every mask and gain that depends only on
# a position, and the rule indexes them by the node's bit_length: a shift
# whose result passes 256 makes a new int object, so a shift per node or
# per child would allocate one for most nodes of a tree past 8 values.
_Rule = Callable[[list, int, dict[int, list], list[int], list], None]

# The most nodes one call to the rule expands. select stages them in a list
# of at most this many codes, about 40 bytes each, before packing them into
# the memo at 8 bytes each: a staging list of some 40 KiB, while the rule's
# call and the pack are paid once per thousand nodes.
_CHUNK = 1024


class _ListMemo(list):
    """A memo that is a list, for codes wider than 64 bits.

    fromlist appends a list's items, as array.fromlist does, so select packs
    a chunk into either kind of memo with the same call.
    """

    fromlist = list.extend


def _mask_of(indices: Sequence[int]) -> int:
    """The bit mask with one bit set per index."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _decode(scaled: Sequence[int], mask: int) -> IndexSubset:
    """The subset a node's code stands for: the mask's set bits, ascending, and the sum of their scaled values."""
    indices, total = [], 0
    while mask:
        low = mask & -mask
        i = low.bit_length() - 1
        indices.append(i)
        total += scaled[i]
        mask ^= low
    return IndexSubset(tuple(indices), total)


def _binheap_rule(scaled: Sequence[int]) -> _Rule:
    """The child rule of the power-set tree over scaled (see _Rule).

    It files the left child, then the right. With nxt = the mask's
    bit_length, the index just above the top bit, the left child moves the
    top bit up to nxt and the right child adds bit nxt. A node whose top bit
    is the last index has no children. Every constant the two children need
    depends only on nxt, so the rule builds them once, in tables indexed by
    nxt: bit[nxt] = 1 << nxt, move[nxt] = 3 << nxt - 1, which clears the top
    bit and sets bit nxt in one xor, and gap[nxt] = scaled[nxt] -
    scaled[nxt - 1], the left child's gain. A shift whose result passes 256
    makes a new int object, so computing these per node paid an allocation
    for each of them past bit 8.
    """
    size = len(scaled)
    bit = [1 << b for b in range(size)]
    move = [0] + [3 << b - 1 for b in range(1, size)]
    gap = [0] + [scaled[b] - scaled[b - 1] for b in range(1, size)]

    def children(cursor: list, count: int, buckets: dict[int, list], sums: list[int], popped: list) -> None:
        bucket, head, total = cursor
        while True:
            run = bucket[head : head + count] if head or len(bucket) > count else bucket
            for mask in run:
                nxt = mask.bit_length()
                if nxt >= size:
                    continue
                left = total + gap[nxt]
                pending = buckets.get(left)
                if pending is None:
                    buckets[left] = [mask ^ move[nxt]]
                    heappush(sums, left)
                else:
                    pending.append(mask ^ move[nxt])
                right = total + scaled[nxt]
                pending = buckets.get(right)
                if pending is None:
                    buckets[right] = [mask | bit[nxt]]
                    heappush(sums, right)
                else:
                    pending.append(mask | bit[nxt])
            popped += run
            count -= len(run)
            if count <= 0:
                break
            total = heappop(sums)
            bucket, head = buckets.pop(total), 0
        cursor[:] = bucket, head + len(run), total

    return children


def _decoded_children(rule: _Rule, scaled: Sequence[int], code: int) -> list[IndexSubset]:
    """One node's children as _decode gives them, grouped by sum in the order their buckets opened.

    The rule expands one node from a one-code cursor at a sum of 0, on a
    scratch bucket map, so a bucket's key is its children's sum less the
    node's. Only differences between sums group and order the buckets, and
    each child's sum is the one _decode derives from its indices.
    """
    buckets: dict[int, list] = {}
    rule([[code], 0, 0], 1, buckets, [], [])
    return [_decode(scaled, child) for bucket in buckets.values() for child in bucket]


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

    A node that is not an IndexSubset whose indices are a tuple of one or
    more ints increasing strictly within [0, N) raises InputError. Its cached_sum is not read: each
    child's sum is derived from the child's indices.
    """
    checked = _checked_indices(node, s.size)
    if not checked:
        raise InputError(f"{node} is not a node of the power-set tree of {s.size} values")
    return _decoded_children(_binheap_rule(s.scaled_values), s.scaled_values, _mask_of(checked))


def _check_rank(k: object) -> None:
    """Refuse a rank that is not an int of at least 1; bool is not a rank."""
    if type(k) is not int or k < 1:
        raise InputError(f"rank must be an int of at least 1, got {k!r}")


class Frontier:
    """Best-first expansion state over a heap-ordered tree of IndexSubset nodes.

    Frontier(root, expand) takes its tree from outside code: expand(node)
    returns the node's children as a list of IndexSubset. Pending nodes
    wait in a heap of (sum, seq, node) entries, where seq counts the nodes
    filed so far, so nodes pop in nondecreasing sum order and equal sums
    pop in insertion order: every rank is deterministic. Sums may be any
    integers, negative or wider than 64 bits. Popped nodes are memoized,
    letting one binary search probe ranks in any order and resume
    expansion instead of restarting it; select returns the very objects
    expand gave.

    The tree must be heap-ordered, as the paper's trees are: no child's sum
    is below its parent's. select checks each expanded node's children
    before it pops the node, so an expand that raises leaves the frontier
    as it was, and so does an expand that returns anything but a list, or
    a child that is not an IndexSubset or whose sum is below its parent's,
    both of which raise InputError: a later call expands that node again.
    A root that is not an IndexSubset, or an expand that is not callable,
    raises InputError at construction.

    The solver does not use this class: the frontiers of subtree_frontier,
    binheap_frontier and solve are _CodedFrontier, a bucket queue over
    integer node codes. Only the tests and the benchmark's layer replica
    build a Frontier(root, expand), over subtree_children or
    binheap_children. It retires, with the power-set view, once the replica
    runs on the coded rules.

    A Frontier is single-owner mutable state: concurrent searches over the
    same scaled set must each build their own.
    """

    def __init__(self, root: IndexSubset, expand: Callable[[IndexSubset], list[IndexSubset]]) -> None:
        if not isinstance(root, IndexSubset):
            raise InputError(f"root must be an IndexSubset, got {root!r}")
        if not callable(expand):
            raise InputError(f"expand must be callable, got {expand!r}")
        self._expand, self._seq = expand, count(1)  # seq numbers the filed nodes: equal sums pop in that order
        self._heap = [(root.cached_sum, 0, root)]
        self._popped: list[IndexSubset] = []

    @property
    def nodes_expanded(self) -> int:
        """Number of nodes popped and expanded so far."""
        return len(self._popped)

    def select(self, k: int) -> IndexSubset:
        """Return the rank-k subset (1-based) in nondecreasing-sum order.

        Expands the heap's top node until k nodes have been popped. A rank
        that is not an int of at least 1 raises InputError before any node
        is expanded; a rank past the end raises InputError once every node
        has been expanded, since the frontier does not know its tree's size.
        """
        _check_rank(k)
        heap, popped, seq = self._heap, self._popped, self._seq
        while len(popped) < k:
            if not heap:
                raise InputError(f"rank {k} exceeds the {len(popped)} subsets in this tree")
            total, _, node = heap[0]
            children = self._expand(node)
            if type(children) is not list:
                raise InputError(f"expand must return a list, got {children!r}")
            for child in children:
                if not isinstance(child, IndexSubset) or child.cached_sum < total:
                    raise InputError(f"child {child!r} is not an IndexSubset or sums below its parent {node}")
            heappop(heap)
            popped.append(node)
            for child in children:
                heappush(heap, (child.cached_sum, next(seq), child))
        return popped[k - 1]


class _CodedFrontier(Frontier):
    """Best-first expansion state over a tree's node codes, in a bucket queue; _decode gives each subset.

    Pending nodes are popped in nondecreasing subset-sum order; equal sums
    pop in insertion order, so every rank is deterministic. Popped nodes are memoized. The tree is
    heap-ordered by construction, because scaled values are sorted, so the
    frontier is a monotone priority queue whose smallest pending sum never
    falls.

    A node is held as a code, the bit mask of its indices, in either tree
    (see subtree_frontier and binheap_frontier). Pending codes wait in
    buckets, one list per distinct pending sum, in insertion order, and the
    heap sums orders only the distinct sums, as in Dial's bucket queue. A
    child whose sum is already pending costs one append and no heap sift,
    and the only objects the garbage collector tracks are the bucket lists,
    not the nodes. select calls the rule (see _Rule) once per chunk of at
    most _CHUNK nodes, and the rule drains buckets in pop order from a
    cursor [bucket, head, sum]. A drained bucket leaves the map when the
    heap hands out its sum, so a child with its parent's sum opens a new
    bucket at that sum, and a run of nodes sharing a sum is expanded and
    staged without any per-node bookkeeping. The pending count is the
    cursor's bucket past head plus every bucket in sums; a registered
    bucket may sit at the cursor's own sum. The memo holds each popped
    code, and only the code: a code becomes an IndexSubset, through
    _decode, which derives the sum from the indices, only when select
    returns its rank.

    A mask has one bit per value, so where the tree has up to 64 values the
    memo is an array of 8-byte unsigned ints, where a list pays an 8-byte
    slot plus an int object of about 32 bytes per code; more values keep a
    list. The rule stages each chunk's codes in a short list, and select
    packs the chunk into the memo: array.fromlist packs a chunk about three
    times as fast as array.extend, which converts one item at a time as it
    grows the array. Expansion never reads the memo, so it can drop a
    prefix: ranks up to base are forgotten, and nodes_expanded is base plus
    the memo's length.

    A frontier that solve or solve_positive builds for its own rank search
    (forgets=True), and never hands out, forgets: whenever a probe rises
    above the previous one, select drops every rank up to that previous
    probe. In a lower-bound binary search, a rising probe proves the
    previous one read a sum below the target, so no later probe asks for
    it, and the memo holds only the current leg of the search: at most
    about half the tree, where a frontier that keeps every rank grows to
    every node it expands. Asking for a forgotten rank raises InputError.
    The frontiers of subtree_frontier and binheap_frontier forget nothing
    and serve every rank in any order.
    """

    def __init__(self, code: int, total: int, rule: _Rule, scaled: Sequence[int], size: int, forgets: bool) -> None:
        self._rule, self._decode, self._size = rule, partial(_decode, scaled), size
        self._cursor = [[code], 0, total]  # [bucket, head, sum]: the bucket being drained, not in _buckets
        self._buckets: dict[int, list] = {}  # each distinct pending sum's codes, in insertion order
        self._sums: list[int] = []  # the heap of the keys of _buckets
        self._base = 0  # ranks 1..base are forgotten; the memo holds ranks base+1 onward
        self._probe = 0 if forgets else None  # the previous rank selected, on a frontier that forgets
        self._popped = array("Q") if len(scaled) <= 64 else _ListMemo()

    @property
    def nodes_expanded(self) -> int:
        """Number of nodes popped and expanded so far, forgotten ones included."""
        return self._base + len(self._popped)

    def select(self, k: int) -> IndexSubset:
        """Return the rank-k subset (1-based) in nondecreasing-sum order.

        The rule expands the nodes from the cursor up to rank k, a run of
        equal sums at a time, filing their children into buckets and
        staging each run in a list, at most _CHUNK nodes per call; select
        packs each call's nodes into the memo. When the cursor's bucket is
        drained, the rule pops the next smallest sum and takes its bucket;
        heap order means no pending sum is ever below the cursor's. Only
        the returned rank is decoded.

        A rank that is not an int of at least 1, or past the end of the
        tree, raises InputError before any node is expanded. On a frontier
        that forgets, a rank it has forgotten raises InputError and changes
        nothing; a rank above the previous probe first forgets every rank
        up to that probe.
        """
        _check_rank(k)
        if k > self._size:
            raise InputError(f"rank {k} exceeds the {self._size} subsets in this tree")
        popped, base, probe = self._popped, self._base, self._probe
        if k <= base:
            raise InputError(f"rank {k} was forgotten: this rank search's frontier keeps only ranks above {base}")
        if probe is not None:
            if k > probe:
                del popped[: probe - base]
                self._base = base = probe
            self._probe = k
        missing = k - base - len(popped)
        staged: list = []
        while missing > 0:
            self._rule(self._cursor, min(missing, _CHUNK), self._buckets, self._sums, staged)
            missing -= len(staged)
            popped.fromlist(staged)
            staged.clear()
        return self._decode(popped[k - 1 - base])


def binheap_frontier(s: ScaledSet) -> Frontier:
    """Fresh expansion state over the tree of all nonempty subsets of s."""
    return _binheap_frontier(s, False)


def _binheap_frontier(s: ScaledSet, forgets: bool) -> _CodedFrontier:
    """binheap_frontier, or with forgets=True the solver's rank-search frontier that forgets (see _CodedFrontier)."""
    root = 1  # the mask of {0}
    scaled = s.scaled_values
    return _CodedFrontier(root, scaled[0], _binheap_rule(scaled), scaled, (1 << s.size) - 1, forgets)


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
    at least 1, a target that is not an int (a bool is not one) and a
    rank_log that is not a list raise InputError before any probe.
    """
    if type(total) is not int or total < 1:
        raise InputError(f"total must be an int of at least 1, got {total!r}")
    if type(target) is not int:
        raise InputError(f"target must be an int, got {target!r}")
    if not isinstance(rank_log, list):
        raise InputError(f"rank_log must be a list, got {rank_log!r}")
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
