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
IndexSubset it stands for, and the masks both trees' rules read by bit
position, in one shared _PositionTable per kind. Each tree contributes
only its child rule over that code: _binheap_rule here, _subtree_rule in
subsetsum.subset_tree.
Both rules drive the bucket queue of _BucketQueue: binheap_frontier and
subtree_frontier run it in a _CodedFrontier, which memoizes every popped
code, and every solve runs it in a _RunFrontier, which keeps one record
per run of equal sums and files its buckets in a list indexed by the sum
when the tree's sums span fewer values than it has nodes. binheap_root
and binheap_children are the power-set tree's IndexSubset view. That view
is internal, not exported by the package: subsetsum.checks, the tests and
the benchmark's layer replica use it, and no solve reaches it.
Frontier(root, expand) is the plain best-first heap
over IndexSubset nodes, which only the tests and the replica build. Both
retire once the replica runs on the coded rules. The public view of the
paper's subset tree is subtree_root/subtree_children.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from functools import partial
from heapq import heappop, heappush
from itertools import count
from typing import Callable, MutableSequence, NamedTuple, Sequence

from .model import IndexSubset, InputError, ScaledSet, _checked_indices, _checked_scaled

# A rule drains a frontier's pending nodes in pop order. Called as
# rule(cursor, stop, buckets, sums, runs, ends, totals), it expands
# pending nodes until stop nodes have been popped in all, and writes the
# cursor back when done. The cursor [bucket, head, sum, popped] is the
# bucket being drained, which has left buckets, its sum, and the count of
# nodes popped so far. buckets holds each pending sum's list of codes in
# insertion order, in one of two forms (see _BucketQueue): the keyed form,
# a map from each distinct pending sum to its list, with sums the heap of
# the map's keys; and the slotted form, a list indexed by the sum less the
# root's, each slot None or a list, with no heap (sums is None). At the top of its
# loop, whenever the cursor's bucket is drained, the rule takes the next
# bucket out of buckets: the keyed form heappops the smallest sum, the
# slotted form scans forward from the cursor's own sum, inclusive. So no
# child joins a bucket while it drains: a child with its parent's sum
# opens a new bucket at that sum, which is taken next, and ties still pop
# first in, first out. A taken bucket that is empty, which only
# _RunFrontier's match bucket can be, is passed over and leaves no record.
# Each bucket is one run of nodes sharing a sum: a bucket that fits in
# what is left before stop is expanded in place; one that does not, or the
# rest of a bucket an earlier call left unfinished, is sliced, so exactly
# the nodes up to stop are expanded. Each child's code is appended to the
# bucket of its sum; a child whose sum has no bucket opens one, and in the
# keyed form heappushes the sum. No child_sum is below sum: the tree is
# heap-ordered. A rule trusts stop not to pass the last node, since select
# checks the rank against the tree's size first, and the slotted form
# trusts its list to reach the tree's largest sum.
#
# Every caller gets the same output. For each run, or piece of a run, that
# the call drains, the rule appends the run itself, one reference, to
# runs, its last rank to ends and its sum to totals; each frontier keeps
# what it memoizes of them. The solver's _RunFrontier keeps the records
# and drops the runs, so it pays per run, not per node: most nodes share a
# run on the exhaustive benchmark. The public frontiers pack each run's
# codes into their memo and drop the records. runs holds the call's
# drained runs until the call returns, so their codes are freed together,
# not one run at a time between the allocations of the next run's
# children: that interleaving made the positive benchmark's solves about
# 4% slower (CPython 3.11.7).
#
# Each tree's factory builds both forms of its rule, as a _Rules pair over
# the same tables, and each form holds its own copy of the drain loop. A
# shared loop that called the rule once per run made the planted
# benchmark's median solve 5-16% slower, since its buckets are mostly
# single nodes; a loop that tested the form per child would pay that test
# on every child. A code is a node's bit mask, for either tree; _decode
# maps it to the IndexSubset it stands for. A rule indexes tables of every
# mask and gain that depends only on a position by the node's bit_length:
# a shift whose result passes 256 makes a new int object, so a shift per
# node or per child would allocate one for most nodes of a tree past 8
# values. The masks depend on the position alone, so every rule shares
# them (see _PositionTable); a gain depends on the values too, so a rule's
# factory builds its own.
_Rule = Callable[[list, int, dict[int, list] | list, list[int] | None, list, MutableSequence[int],
                  MutableSequence[int]], None]


class _Rules(NamedTuple):
    """A tree's child rule in both forms of the bucket queue (see _Rule): keyed buckets, and slotted ones."""

    keyed: _Rule
    slotted: _Rule


# The most nodes one call to the rule expands. Each call's drained runs
# are held in a list, about 40 bytes a code, until the call returns: the
# solver's _RunFrontier then drops them, so their codes are freed once per
# call, and a public frontier's select packs each run into its memo at 8
# bytes a code. Either holds up to this many codes, some 10 KiB, while the
# rule's call and the batch of frees are paid once per few hundred nodes.
# At 1,024 the runs held raised the exhaustive benchmark's peak from 73 to
# 112 KiB; at 128 the batched frees no longer saved time.
_CHUNK = 256


class _ListMemo(list):
    """A memo that is a list, for codes wider than 64 bits.

    fromlist appends a list's items, as array.fromlist does, so select packs
    a run into either kind of memo with the same call.
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


class _PositionTable:
    """One mask per bit position, from 0 up, built once per process and shared by every rule.

    at_least(size) returns a list that covers at least positions 0..size-1,
    built only when a rule needs more positions than any rule before it. It
    never changes a list it has handed out: to grow, it builds a longer
    list, which reuses the old int objects, and swaps it in with one
    assignment. So a rule keeps the list it took, which covers every
    position of its tree, and two threads that grow a table at once each
    keep the list they built, whichever is swapped in last.
    """

    def __init__(self, first: list[int], masks: Callable[[range], list[int]]) -> None:
        self._masks, self._table = masks, first

    def at_least(self, size: int) -> list[int]:
        table = self._table
        if len(table) < size:
            table = table + self._masks(range(len(table), size))
            self._table = table
        return table


# The masks the rules read by position: bit[i] = 1 << i for both trees,
# below[p] = (1 << p) - 1 for the fixed-length tree and move[b] = 3 << b - 1
# for the power-set tree (move[0], which no rule reads, is 0). A table of N
# positions keeps about N^2/15 bytes of ints: bit and below keep 3.5 MiB
# after a solve over 5,000 values, 1 KiB after one over 20 (CPython 3.11).
_BIT = _PositionTable([1], lambda new: [1 << i for i in new])
_BELOW = _PositionTable([0], lambda new: [(1 << p) - 1 for p in new])
_MOVE = _PositionTable([0], lambda new: [3 << b - 1 for b in new])


def _binheap_rule(scaled: Sequence[int]) -> _Rules:
    """The child rule of the power-set tree over scaled, in both forms (see _Rule).

    It files the left child, then the right. With nxt = the mask's
    bit_length, the index just above the top bit, the left child moves the
    top bit up to nxt and the right child adds bit nxt. A node whose top bit
    is the last index has no children. Every constant the two children need
    depends only on nxt, so the rule reads them from tables indexed by nxt:
    the shared bit[nxt] = 1 << nxt and move[nxt] = 3 << nxt - 1, which
    clears the top bit and sets bit nxt in one xor (see _PositionTable),
    and its own gap[nxt] = scaled[nxt] - scaled[nxt - 1], the left child's
    gain, built once per rule. A shift whose result passes 256 makes a new
    int object, so computing these per node paid an allocation for each of
    them past bit 8.
    """
    size = len(scaled)
    bit, move = _BIT.at_least(size), _MOVE.at_least(size)
    gap = [0] + [scaled[b] - scaled[b - 1] for b in range(1, size)]

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
                nxt = mask.bit_length()
                if nxt >= size:
                    continue
                left = total + gap[nxt]
                pending = slots[left]
                if pending is None:
                    slots[left] = [mask ^ move[nxt]]
                else:
                    pending.append(mask ^ move[nxt])
                right = total + scaled[nxt]
                pending = slots[right]
                if pending is None:
                    slots[right] = [mask | bit[nxt]]
                else:
                    pending.append(mask | bit[nxt])
            head += len(run)
            done += len(run)
            runs.append(run)
            ends.append(done)
            totals.append(total)
        cursor[:] = bucket, head, total, done

    return _Rules(keyed, slotted)


def _decoded_children(rule: _Rule, scaled: Sequence[int], code: int) -> list[IndexSubset]:
    """One node's children as _decode gives them, grouped by sum in the order their buckets opened.

    The keyed rule expands one node from a one-code cursor at a sum of 0,
    on a scratch bucket map, so a bucket's key is its children's sum less
    the node's. Only differences between sums group and order the buckets,
    and each child's sum is the one _decode derives from its indices.
    """
    buckets: dict[int, list] = {}
    rule([[code], 0, 0, 0], 1, buckets, [], [], [], [])
    return [_decode(scaled, child) for bucket in buckets.values() for child in bucket]


def binheap_root(s: ScaledSet) -> IndexSubset:
    """Root node: the singleton subset of the smallest element; an s that is not a ScaledSet raises InputError."""
    return IndexSubset((0,), _checked_scaled(s).scaled_values[0])


def binheap_children(node: IndexSubset, s: ScaledSet) -> list[IndexSubset]:
    """Generate a node's children, left then right.

    The left child replaces the maximum element with its successor in the
    sorted set; the right child appends the successor. Both sums are >= the
    node's sum. A node whose maximum element is the last one has no children.
    This view encodes the node, runs the solver's mask rule and decodes.
    The left sum is always below the right one, since scaled values are at
    least 1, so the bucket order is already left then right.

    An s that is not a ScaledSet, or a node that is not an IndexSubset
    whose indices are a tuple of one or more ints increasing strictly
    within [0, N), raises InputError. Its cached_sum is not read: each
    child's sum is derived from the child's indices.
    """
    checked = _checked_indices(node, _checked_scaled(s).size)
    if not checked:
        raise InputError(f"{node} is not a node of the power-set tree of {s.size} values")
    return _decoded_children(_binheap_rule(s.scaled_values).keyed, s.scaled_values, _mask_of(checked))


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
    A child whose sum is not an int (a bool is not one) is refused the same
    way. A root that is not an IndexSubset with an int sum, or an expand
    that is not callable, raises InputError at construction.

    Which frontier keeps which memo: this one keeps every popped
    IndexSubset in a list; _CodedFrontier, the frontier of subtree_frontier
    and binheap_frontier, keeps every popped node's code; _RunFrontier, the
    one solve and solve_positive build for their own rank search, keeps one
    record per run of equal sums and the codes of the target's sum. The
    last two are bucket queues over integer node codes. The solver does not
    use this class: only the tests and the benchmark's layer replica build
    a Frontier(root, expand), over subtree_children or binheap_children. It
    retires, with the power-set view, once the replica runs on the coded
    rules.

    A Frontier is single-owner mutable state: concurrent searches over the
    same scaled set must each build their own.
    """

    def __init__(self, root: IndexSubset, expand: Callable[[IndexSubset], list[IndexSubset]]) -> None:
        if not (isinstance(root, IndexSubset) and type(root.cached_sum) is int):
            raise InputError(f"root must be an IndexSubset with an int sum, got {root!r}")
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
                if not (isinstance(child, IndexSubset) and type(child.cached_sum) is int) or child.cached_sum < total:
                    raise InputError(
                        f"child {child!r} is not an IndexSubset with an int sum or sums below its parent {node}"
                    )
            heappop(heap)
            popped.append(node)
            for child in children:
                heappush(heap, (child.cached_sum, next(seq), child))
        return popped[k - 1]


class _BucketQueue:
    """Best-first expansion of a tree's node codes in a bucket queue, driven a chunk at a time by the tree's rule.

    Pending nodes are popped in nondecreasing subset-sum order; equal sums
    pop in insertion order, so every rank is deterministic. The tree is
    heap-ordered by construction, because scaled values are sorted, so the
    queue is monotone: its smallest pending sum never falls.

    A node is held as a code, the bit mask of its indices, in either tree.
    Pending codes wait in buckets, one list per distinct pending sum, in
    insertion order, as in Dial's bucket queue (CACM 1969). A child whose
    sum is already pending costs one append, and the only objects the
    garbage collector tracks are the bucket lists, not the nodes. The
    buckets take one of two forms (see _Rule). Keyed, they are a map from
    each distinct pending sum to its list, and the heap sums orders only
    the distinct sums, so a child whose sum is pending pays no heap sift;
    this form takes sums of any width. Slotted, they are a list with one
    slot per sum from the root's to the tree's largest, each None or a
    list, indexed by the sum less the root's: no hashing and no heap, and
    the next bucket is the first slot filed at or above the cursor's sum.
    Only _RunFrontier takes the slotted form, for a tree whose largest sum
    less its root's is below its node count, so the slot list is never
    longer than the tree (see _RunFrontier). Its sums, the cursor's and
    the rule's records, are then relative to the root's.

    Each select calls the rule once per chunk of at most _CHUNK nodes, and
    the rule drains buckets in pop order from a cursor [bucket, head, sum,
    popped]. A bucket leaves buckets when the rule takes it, so a child
    with its parent's sum opens a new bucket at that sum, and a run of
    nodes sharing a sum is expanded without any per-node bookkeeping. The
    pending count is the cursor's bucket past head plus every bucket in
    buckets; a registered bucket may sit at the cursor's own sum. What each
    subclass keeps of the popped nodes is its memo.
    """

    def __init__(self, code: int, total: int, rule: _Rule, size: int, buckets: dict[int, list] | list,
                 sums: list[int] | None) -> None:
        self._rule, self._size = rule, size
        self._cursor = [[code], 0, total, 0]  # [bucket, head, sum, popped]: the bucket being drained, not in _buckets
        self._buckets = buckets  # each pending sum's codes, in insertion order: keyed by the sum, or slotted
        self._sums = sums  # keyed: the heap of the keys of _buckets; slotted: None

    @property
    def nodes_expanded(self) -> int:
        """Number of nodes popped and expanded so far."""
        return self._cursor[3]

    def _pop_chunk(self, k: int, runs: list, ends: MutableSequence[int], totals: MutableSequence[int]) -> None:
        """Expand the next chunk of at most _CHUNK nodes toward rank k, through the rule.

        The rule takes the next bucket itself when the cursor's is drained,
        appends each run it drains to runs, and the run's record to ends and
        totals (see _Rule).
        """
        cursor = self._cursor
        self._rule(cursor, min(k, cursor[3] + _CHUNK), self._buckets, self._sums, runs, ends, totals)

    def _check(self, k: int) -> None:
        """Refuse a rank that is not an int of at least 1, or is past the end of the tree, before any expansion."""
        _check_rank(k)
        if k > self._size:
            raise InputError(f"rank {k} exceeds the {self._size} subsets in this tree")


class _CodedFrontier(_BucketQueue, Frontier):
    """The frontier of subtree_frontier and binheap_frontier: every popped node's code, in pop order.

    The memo holds each popped code, and only the code: a code becomes an
    IndexSubset, through _decode, which derives the sum from the indices,
    only when select returns its rank. It forgets nothing, so it serves
    every rank in any order. Of what the rule writes (see _Rule), select
    keeps each run's codes and drops the run records.

    A mask has one bit per value, so where the tree has up to 64 values the
    memo is an array of 8-byte unsigned ints, where a list pays an 8-byte
    slot plus an int object of about 32 bytes per code; more values keep a
    list. select packs each run the rule hands back into the memo:
    array.fromlist packs a list about three times as fast as array.extend,
    which converts one item at a time as it grows the array.
    """

    def __init__(self, code: int, total: int, rule: _Rule, scaled: Sequence[int], size: int) -> None:
        super().__init__(code, total, rule, size, {}, [])
        self._decode = partial(_decode, scaled)
        self._popped = array("Q") if len(scaled) <= 64 else _ListMemo()

    def select(self, k: int) -> IndexSubset:
        """Return the rank-k subset (1-based) in nondecreasing-sum order.

        The rule expands the nodes from the cursor up to rank k, a run of
        equal sums at a time, filing their children into buckets and handing
        back each run, at most _CHUNK nodes per call; select packs each
        call's runs into the memo in order. When the cursor's bucket is
        drained, the rule pops the next smallest sum and takes its bucket;
        heap order means no pending sum is ever below the cursor's. Its
        buckets are always keyed (see _BucketQueue). Only the returned rank
        is decoded.

        A rank that is not an int of at least 1, or past the end of the
        tree, raises InputError before any node is expanded.
        """
        self._check(k)
        popped, cursor = self._popped, self._cursor
        while cursor[3] < k:
            runs: list = []
            self._pop_chunk(k, runs, [], [])
            for run in runs:
                popped.fromlist(run)
        return self._decode(popped[k - 1])


class _RunFrontier(_BucketQueue):
    """The frontier solve and solve_positive build for their own rank search, and never hand out.

    Its memo is one record per run of equal sums that it has popped: the
    run's last rank in ends and its sum in totals. The rank search reads
    only sums, and the one subset it can return is at the leftmost rank
    whose sum is at least the target, when that sum equals the target. That
    rank opens a run: it is the first node popped with the target's sum.
    So the frontier is built with the scaled target and registers an empty
    bucket at that sum, unless the root already reaches it or, slotted,
    the target lies past top, the tree's largest sum. Every node with the
    target's sum is filed before that bucket is taken, so its first code,
    matched[0], is the answer, and the bucket's list is kept after the
    rule drains it. No other code is kept past the rule call that drained
    it (see _Rule), and no probe decodes. Drained empty, the bucket leaves
    no record.

    Its buckets are slotted (see _BucketQueue) exactly when top less the
    root's sum is below size, the tree's node count, and keyed otherwise:
    the choice depends only on the input. The slot list then holds fewer
    slots than the tree has nodes, and the search's first probe, at rank
    size / 2, expands half the tree anyway. On the benchmark's seed-7
    pools the slotted trees expand over 97% of the nodes; only lengths 1,
    2, N - 2 and N - 1, whose trees are small, stay keyed. Wider ranges,
    such as sums of values drawn from +-10^12, or sums past 2^63, stay
    keyed. Slotted, the cursor's sum and every recorded sum are relative to
    the root's, which select adds back to cached_sum.

    select returns the frontier itself, a light record whose cached_sum is
    the sum at the rank just selected: lower_bound_rank_search reads
    cached_sum, and returns the record at a match, after which the solver
    decodes matched[0]. Ranks and scaled sums are at least 1, and relative
    sums at least 0, so both arrays hold 8-byte unsigned ints, whose append
    is about twice as fast as a signed array's in CPython 3.11; sums of 64
    bits or more, which only a tree whose largest sum top reaches 2^64 can
    pop, keep a list.

    The frontier forgets: whenever a probe rises above the previous one,
    select drops every run that ends at or before that previous probe. In a
    lower-bound binary search, a rising probe proves the previous one read
    a sum below the target, so no later probe asks for it or any rank
    below it; the run holding it stays if it reaches past it. Ranks up to
    base, the last dropped run's end, are forgotten, and asking for one
    raises InputError.
    """

    def __init__(self, code: int, total: int, rules: _Rules, size: int, top: int, target: int) -> None:
        self.matched = [code] if target == total else []  # the codes filed at the target's sum, in pop order
        if top - total < size:  # slotted: slot 0 is the root's sum, slot top - total the largest
            super().__init__(code, 0, rules.slotted, size, [None] * (top - total + 1), None)
            self._root = total  # what select adds back to a recorded sum
            if total < target <= top:
                self._buckets[target - total] = self.matched
        else:
            super().__init__(code, total, rules.keyed, size, {}, [])
            self._root = 0
            if target > total:
                self._buckets[target] = self.matched
                self._sums.append(target)
        self._ends = array("Q")  # each kept run's last rank
        self._totals = array("Q") if top < 1 << 64 else []  # each kept run's sum, less _root
        self._base = 0  # ranks 1..base are forgotten
        self._probe = 0  # the previous rank selected
        self.cached_sum = total  # the sum at the rank last selected; the root's before any

    def select(self, k: int) -> _RunFrontier:
        """Return this frontier with cached_sum set to the rank-k sum (1-based) in nondecreasing-sum order.

        The rule expands the nodes from the cursor up to rank k, a run at a
        time, at most _CHUNK nodes per call, and appends each run's record.
        A rank that is not an int of at least 1, past the end of the tree
        or forgotten raises InputError and changes nothing; a rank above
        the previous probe first forgets every run that ends at or before
        that probe. A served rank passes one test; the refusals, in that
        order, are tried only when it fails. Each rule call gets a fresh
        list for its drained runs, freed as the call returns, and a rank
        already expanded makes none.
        """
        if not (type(k) is int and self._base < k <= self._size):
            self._check(k)
            raise InputError(f"rank {k} was forgotten: this rank search's frontier keeps only ranks above {self._base}")
        ends, totals = self._ends, self._totals
        if k > self._probe:
            drop = bisect_right(ends, self._probe)
            if drop:
                self._base = ends[drop - 1]
                del ends[:drop], totals[:drop]
        self._probe = k
        cursor = self._cursor
        while cursor[3] < k:
            if ends and cursor[1] < len(cursor[0]):  # the last run goes on: the rule writes its record anew
                del ends[-1], totals[-1]
            self._pop_chunk(k, [], ends, totals)
        self.cached_sum = totals[bisect_left(ends, k)] + self._root
        return self


def binheap_frontier(s: ScaledSet) -> Frontier:
    """Fresh expansion state over the tree of all nonempty subsets of s.

    An s that is not a ScaledSet raises InputError.
    """
    scaled = _checked_scaled(s).scaled_values
    root = 1  # the mask of {0}
    return _CodedFrontier(root, scaled[0], _binheap_rule(scaled).keyed, scaled, (1 << s.size) - 1)


def lower_bound_rank_search(
    frontier: Frontier,
    total: int,
    target: int,
    rank_log: list[int],
) -> tuple[IndexSubset | _RunFrontier | None, int]:
    """Binary-search ranks [1, total] for a subset whose sum equals target.

    Converges on the leftmost rank whose sum is >= target and checks it for
    equality, which stays correct when several subsets share a sum. Each
    probed rank is appended to rank_log, after whatever it already holds.
    Returns the match (or None) and this call's number of rank probes,
    which is at most ceil(log2(total)) + 1. The match is the object the
    frontier's select gave for the final rank: an IndexSubset from a
    Frontier, the frontier itself from the solver's _RunFrontier. The
    frontier is read only through select and its result's cached_sum, so
    anything with a callable select may stand in for a Frontier, as a
    timing or checking wrapper does. A frontier without one,
    a total that is not an int of at least 1, a target that is not an int
    (a bool is not one) and a rank_log that is not a list raise InputError
    before any probe. The final rank's result is checked once per search,
    not per probe: one without an int cached_sum (a bool is not one), which
    no frontier of this package returns, raises InputError, so a stand-in
    whose sum is True is not matched to a target of 1.
    """
    if not callable(getattr(frontier, "select", None)):
        raise InputError(f"expected a Frontier, or an object with its select, got {frontier!r}")
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
    if type(getattr(candidate, "cached_sum", None)) is not int:
        raise InputError(f"select must return a subset with an int sum, got {candidate!r} for rank {lo}")
    if candidate.cached_sum == target:
        return candidate, probes
    return None, probes
