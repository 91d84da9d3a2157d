"""The solver's integer-coded frontiers against the IndexSubset view.

subtree_frontier and binheap_frontier hold each node as one int, the bit
mask of its indices, and decode only the ranks select returns, through
the one decoder both trees share. Frontier(root, expand) over the views
subtree_children/binheap_children is a separate implementation, a plain
heap of IndexSubset nodes. Both must give the same indices and sum at
every rank, and a coded frontier must hold no tracked object per
expanded node. Since each rule drains the sum buckets itself, a run of
equal sums at a time, each select must also leave every code a rule
produced exactly once pending or in the memo, and must expand exactly the
nodes up to its rank; the heap likewise holds every node expand produced
once, pending or popped. The solver's own frontiers keep one record per
run of equal sums, not codes, and forget the runs its rank search has
passed; public ones must still serve every rank in any order. A coded
frontier packs its memo into 8-byte codes while the tree's widest code fits
in 64 bits, and keeps a list past that; the solver's frontier packs its run
records while the tree's largest sum does. The solver's frontier files its
buckets in a list of slots exactly when the tree's sums span fewer values
than it has nodes, and must serve the same sums, nodes and match either way.
"""

import gc
import itertools
import math
import random
import sys
import threading
import tracemalloc
from array import array
from collections import Counter
from functools import partial

import pytest

from subsetsum import (
    Frontier,
    IndexSubset,
    InputError,
    InputSet,
    ScaledSet,
    SubsetTree,
    binheap_frontier,
    enumerate_sorted_sums,
    lower_bound_rank_search,
    normalize,
    solve,
    solve_positive,
    subtree_children,
    subtree_frontier,
    subtree_root,
    unscale,
)
from subsetsum import powerset, solver
from subsetsum.powerset import _binheap_rule, _decode, _RunFrontier, binheap_children, binheap_root
from subsetsum.subset_tree import _subtree_rule


def _frontier_pairs(s):
    """(coded, viewed, total) for every fixed-length tree of s and its power-set tree."""
    for n in range(1, s.size + 1):
        tree = SubsetTree(s, n)
        viewed = Frontier(subtree_root(s, n), partial(subtree_children, tree=tree))
        yield subtree_frontier(tree), viewed, tree.total
    yield binheap_frontier(s), Frontier(binheap_root(s), partial(binheap_children, s=s)), (1 << s.size) - 1


def _assert_agree(coded, viewed, ranks, scaled):
    # Both sides decode their sums from their indices, so the sum is also
    # checked against one taken here.
    for k in ranks:
        got, expected = coded.select(k), viewed.select(k)
        assert (got.indices, got.cached_sum) == (expected.indices, expected.cached_sum), k
        assert got.cached_sum == sum(scaled[i] for i in got.indices), k
    assert coded.nodes_expanded == viewed.nodes_expanded


def _random_sets():
    rng = random.Random(9)
    for _ in range(40):
        yield tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 10)))


# Values near the 64-bit ends: scaled values pass 2^64 and so do their sums,
# which decode derives from the indices on both sides.
_WIDE_SETS = [
    (-(2**63), 2**63 - 1, -(2**63) + 1, 2**63 - 2, 0, 1),
    (-(2**63), -(2**63), 2**63 - 1, 2**63 - 1, 2**62, -5, 7),
    (2**63 - 1, 2**63 - 2, 2**63 - 3, 2**62 + 1, 1),
]


@pytest.mark.parametrize(
    "values", [(3,) * 8, (1, 1, 2, 2, 2, 3, 3, 4), *_random_sets(), *_WIDE_SETS], ids=str
)
def test_coded_and_view_frontiers_agree_at_every_rank(values):
    s = normalize(InputSet(values, 0))
    for coded, viewed, total in _frontier_pairs(s):
        _assert_agree(coded, viewed, range(1, total + 1), s.scaled_values)


def test_coded_pairs_agree_past_eight_bit_indices():
    # Two small values, then 298 large ones: every pair holding index 0 or 1
    # sums below the rest, so the first 600 ranks reach indices up to 299.
    s = ScaledSet((1, 2) + tuple(range(10**9, 10**9 + 298)))
    tree = SubsetTree(s, 2)
    coded = subtree_frontier(tree)
    viewed = Frontier(subtree_root(s, 2), partial(subtree_children, tree=tree))
    _assert_agree(coded, viewed, range(1, 3001), s.scaled_values)
    # Every pair at most once, in sum order: a min_index that overflows its
    # field lets a node advance bits below it and so repeat a pair.
    pairs = [coded.select(k) for k in range(1, 3001)]
    scaled = s.scaled_values
    assert len({p.indices for p in pairs}) == 3000
    assert all(p.cached_sum == scaled[p.indices[0]] + scaled[p.indices[1]] for p in pairs)
    every = sorted(a + b for i, a in enumerate(scaled) for b in scaled[i + 1:])
    assert [p.cached_sum for p in pairs] == every[:3000]


def test_power_set_pops_singletons_then_pairs_past_64_values():
    # 70 distinct values within 100 of 10**12: every singleton sums below
    # every pair, and every pair below every triple, so the first
    # 70 + C(70, 2) ranks are the singletons and then the pairs, each in sum
    # order. Past 64 values the memo is a list, and the rule's tables hold
    # 70 entries each.
    values = random.Random(23).sample(range(10**12, 10**12 + 101), 70)
    frontier = binheap_frontier(ScaledSet(values))
    ranks = 70 + math.comb(70, 2)
    subsets = [frontier.select(k) for k in range(1, ranks + 1)]
    singles = sorted(values)
    pairs = sorted(a + b for a, b in itertools.combinations(values, 2))
    assert [subset.cached_sum for subset in subsets] == singles + pairs
    assert all(subset.cached_sum == sum(singles[i] for i in subset.indices) for subset in subsets)
    assert len({subset.indices for subset in subsets}) == ranks
    assert not isinstance(frontier._popped, array)


def test_solve_finds_planted_pair_among_300_values():
    values = random.Random(5).sample(range(1, 10**9), 300)
    pair = (values[17], values[281])
    outcome = solve(InputSet(tuple(values), sum(pair)))
    assert outcome.subset == tuple(sorted(pair))


def test_rank_past_the_end_raises_before_any_expansion():
    s = ScaledSet(tuple(range(1, 18)))
    scaled, total = s.scaled_values, math.comb(17, 8)
    top = sum(scaled)
    frontiers = [
        (binheap_frontier(s), 2**17 - 1),
        (subtree_frontier(SubsetTree(s, 8)), total),
        # The solver's own frontiers, over the same two trees, with a target no subset reaches.
        (_RunFrontier(1, 1, _binheap_rule(scaled), 2**17 - 1, top, top + 1), 2**17 - 1),
        (_RunFrontier(2**8 - 1, sum(scaled[:8]), _subtree_rule(scaled), total, top, top + 1), total),
    ]
    for frontier, size in frontiers:
        with pytest.raises(InputError, match=rf"^rank {size + 1} exceeds the {size} subsets in this tree$"):
            frontier.select(size + 1)
        assert frontier.nodes_expanded == 0


_S5 = ScaledSet((1, 5, 6, 13, 16))
_FRONTIERS = {
    "subtree_frontier": lambda: subtree_frontier(SubsetTree(_S5, 2)),
    "binheap_frontier": lambda: binheap_frontier(_S5),
    "Frontier(root, expand)": lambda: Frontier(binheap_root(_S5), partial(binheap_children, s=_S5)),
    # The solver's frontier over the length-2 tree, whose largest sum is 29, searching for 30.
    "_RunFrontier": lambda: _RunFrontier(0b11, 6, _subtree_rule(_S5.scaled_values), 10, 29, 30),
}


def _served(record):
    """What a select serves: the subset, or from the solver's frontier, which returns itself, the sum."""
    return record.cached_sum if isinstance(record, _RunFrontier) else record


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda n: SubsetTree(_S5, n),
        lambda n: subtree_root(_S5, n),
        lambda n: enumerate_sorted_sums(_S5, n),
    ],
    ids=["SubsetTree", "subtree_root", "enumerate_sorted_sums"],
)
def test_non_int_length_is_refused(call, bad):
    with pytest.raises(InputError, match="^subset length"):
        call(bad)


@pytest.mark.parametrize("bad", [2.0, True, "2"], ids=repr)
@pytest.mark.parametrize("make", list(_FRONTIERS.values()), ids=list(_FRONTIERS))
def test_non_int_rank_is_refused_before_any_expansion(make, bad):
    frontier = make()
    with pytest.raises(InputError, match="^rank"):
        frontier.select(bad)
    assert frontier.nodes_expanded == 0
    assert _served(frontier.select(2)) == _served(make().select(2))


def _produced(frontier, root):
    """Every (code, sum) filed so far: the root, then each memoized node's children.

    Each node's children come from running the frontier's rule on that node
    alone, from a one-code cursor into a scratch bucket map, so the record
    does not depend on how many buckets one select drained.
    """
    produced = [root]
    for code in frontier._popped:
        buckets = {}
        frontier._rule([[code], 0, frontier._decode(code).cached_sum, 0], 1, buckets, [], [], [], [])
        produced += [(child, key) for key, bucket in buckets.items() for child in bucket]
    return produced


def _assert_bucket_layout(frontier, root, k):
    """Every produced code once, pending or in the memo; each registered sum once in sums, none below the cursor's.

    The cursor's bucket has left the map; a registered bucket may sit at the
    cursor's own sum, and no registered bucket is empty.
    """
    buckets, sums, (bucket, head, total, _) = frontier._buckets, frontier._sums, frontier._cursor
    assert all(registered is not bucket for registered in buckets.values()), k
    assert len(set(sums)) == len(sums) and set(buckets) == set(sums), k
    assert all(buckets.values()) and all(key >= total for key in sums), k
    pending = [(code, total) for code in bucket[head:]]
    pending += [(code, key) for key in sums for code in buckets[key]]
    memo = [(code, frontier._decode(code).cached_sum) for code in frontier._popped]
    assert Counter(pending + memo) == Counter(_produced(frontier, root)), k


def _assert_heap_layout(frontier, root, k):
    """Every node expand produced once, pending in the heap or popped; each heap entry keyed by its node's sum."""
    heap = frontier._heap
    assert all(total == node.cached_sum for total, _, node in heap), k
    assert len({seq for _, seq, _ in heap}) == len(heap), k
    produced = [root] + [child for node in frontier._popped for child in frontier._expand(node)]
    assert Counter([node for _, _, node in heap] + frontier._popped) == Counter(produced), k


@pytest.mark.parametrize(
    "values", [(-7, -3, -2, 5, 8), (1, 1, 2, 2, 3, 3), (-4, 0, 0, 9, -4, 2, 7), (5,)], ids=str
)
def test_every_code_is_pending_or_popped_after_each_select(values):
    s = normalize(InputSet(values, 0))
    for coded, viewed, total in _frontier_pairs(s):
        root_bucket, _, root_sum, _ = coded._cursor
        root = (root_bucket[0], root_sum)
        for k in range(1, total + 1):
            coded.select(k)
            _assert_bucket_layout(coded, root, k)
        bucket, head, _, _ = coded._cursor
        assert coded._sums == [] and coded._buckets == {} and head == len(bucket)
        root = viewed._heap[0][2]
        for k in range(1, total + 1):
            viewed.select(k)
            _assert_heap_layout(viewed, root, k)
        assert viewed._heap == []


@pytest.mark.parametrize("values", [(3,) * 8, (1, 1, 2, 2, 3, 3)], ids=str)
def test_select_expands_exactly_k_nodes_on_tied_sums(values):
    # A bucket longer than what a select still needs is sliced, never drained whole.
    # Stepping one rank at a time from mid-bucket slices what is left of it.
    s = normalize(InputSet(values, 0))
    trees = [SubsetTree(s, n) for n in range(1, s.size + 1)]
    makers = [partial(subtree_frontier, tree) for tree in trees] + [partial(binheap_frontier, s)]
    totals = [tree.total for tree in trees] + [(1 << s.size) - 1]
    for make, total in zip(makers, totals):
        for k in range(1, total + 1):
            frontier = make()
            frontier.select(k)
            assert frontier.nodes_expanded == k, (total, k)
        stepped = make()
        for k in range(1, total + 1):
            stepped.select(k)
            assert stepped.nodes_expanded == k, (total, k)


def test_expanded_nodes_hold_no_tracked_objects():
    tree = SubsetTree(normalize(InputSet(tuple(range(1, 15)), 0)), 7)
    gc.collect()
    before = len(gc.get_objects())
    frontier = subtree_frontier(tree)
    frontier.select(tree.total)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert frontier.nodes_expanded == tree.total == 3432
    assert grown < 50


@pytest.mark.parametrize("size, packed", [(64, True), (65, False)])
def test_fixed_length_memo_packs_codes_of_up_to_64_bits(size, packed):
    # A code is the node's bit mask, so the top value's length-1 code sets
    # bit size - 1: bit 63 at 64 values, 64 at 65.
    values = tuple(range(1, size + 1))
    assert solve(InputSet(values, size)).subset == (size,)
    frontier = subtree_frontier(SubsetTree(ScaledSet(values), 1))
    assert frontier.select(size).indices == (size - 1,)
    assert isinstance(frontier._popped, array) is packed
    assert max(frontier._popped).bit_length() == size


@pytest.mark.parametrize("size, packed", [(64, True), (65, False)])
def test_power_set_memo_packs_masks_of_up_to_64_bits(size, packed):
    # Equal values: the singletons pop first, in index order, so the top index alone is rank size.
    frontier = binheap_frontier(ScaledSet((10**9,) * size))
    assert frontier.select(size) == IndexSubset((size - 1,), 10**9)
    assert isinstance(frontier._popped, array) is packed
    assert max(frontier._popped) == 1 << size - 1


def _peak(run):
    """The tracemalloc peak, in bytes, of one call to run."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_probe_memo_is_packed():
    # solve_positive's first probe at N=16 pops 2^15 nodes in 3,589 runs, each of its own sum, and forgets none.
    # tracemalloc peak on CPython 3.11.7: 853 KiB with the run records in lists of ints,
    # 644 KiB with them packed 8 bytes each, most of either the pending buckets; the bound lies halfway.
    s = ScaledSet((865, 395, 777, 912, 431, 42, 266, 989, 524, 498, 415, 941, 803, 850, 311, 992))
    scaled = s.scaled_values
    frontier = _RunFrontier(1, scaled[0], _binheap_rule(scaled), 2**16 - 1, sum(scaled), sum(scaled) + 1)
    assert _peak(partial(frontier.select, 2**15)) < 748 << 10
    assert isinstance(frontier._ends, array) and isinstance(frontier._totals, array)
    assert len(frontier._ends) == len(frontier._totals) == len(set(frontier._totals)) == 3589


def test_exhaustive_solve_memo_is_runs():
    # The benchmark's exhaustive shape: an unreachable target at N=16 with the window off, so every
    # length is searched to its end. tracemalloc peak on CPython 3.11.7: 151 KiB when the solver's
    # frontier memoized every popped code and staged up to 1,024 of them per call, 78 KiB with one
    # packed record per run and up to 256 drained codes held per call; the bound lies halfway.
    values = (-4, 11, 12, -14, 4, -21, 8, -50, 3, 35, 42, -17, -20, 32, -22, -49)
    instance = InputSet(values, sum(v for v in values if v > 0) + 1)
    outcomes = []
    assert _peak(lambda: outcomes.append(solve(instance, range_check=False))) < 114 << 10
    assert not outcomes[0].found and outcomes[0].stats.nodes_expanded == 2**16 - 1


# The solver's own frontiers keep one record per run and forget every run
# that ends at or before the previous probe whenever a probe rises above it.
# A public frontier forgets nothing.


def _public_frontier(s, order):
    """A fresh public frontier over the tree a solver record of this order searched."""
    return binheap_frontier(s) if order == 0 else subtree_frontier(SubsetTree(s, order))


def _watch_searches(monkeypatch, wrap):
    """Route every rank search of the solver through wrap(frontier, target); returns the list it fills."""
    searches = []

    def search(frontier, total, target, rank_log):
        watched = wrap(frontier, target)
        found, probes = lower_bound_rank_search(watched, total, target, rank_log)
        searches.append((watched, total, target, found))
        return found, probes

    monkeypatch.setattr(solver, "lower_bound_rank_search", search)
    return searches


class _Watched:
    """Stands in for the solver's frontier and checks its run memo after each probe against the search's lo."""

    def __init__(self, frontier, target):
        self.frontier, self.target, self.lo = frontier, target, 1
        self.deepest = self.largest_memo = 0
        self.sums = []  # (rank, sum) per probe

    def select(self, k):
        record = self.frontier.select(k)
        frontier = self.frontier
        assert record is frontier  # the light record select returns is the frontier itself
        self.deepest = max(self.deepest, k)
        ends, totals = frontier._ends, frontier._totals
        # No run that ends below lo is held, and lo itself is not forgotten: the first kept run holds lo.
        assert frontier._base < self.lo <= ends[0], (k, self.lo)
        assert frontier.nodes_expanded == self.deepest  # popped so far, forgotten ones included
        assert len(ends) == len(totals) and list(totals) == sorted(totals)
        assert all(a < b for a, b in zip(ends, ends[1:]))  # every kept run holds a node: an empty bucket leaves none
        self.largest_memo = max(self.largest_memo, ends[-1] - frontier._base)  # the kept runs' nodes
        self.sums.append((k, record.cached_sum))
        if record.cached_sum < self.target:
            self.lo = k + 1
        return record


def _wide_searches():
    """Solves whose scaled sums pass 2^63, and pass 2^64, and one over more than 64 values."""
    near = [2**61 - 3, -(2**61) + 5, 2**61, -(2**61), 7, -2, 2**60 + 11]  # order-3 sums past 2^63, below 2^64
    yield solve, InputSet(tuple(near), near[0] + near[2] + near[6])
    yield partial(solve, range_check=False), InputSet(tuple(near), near[0] + near[2] + near[4] + 1)
    past = [2**62 - 1, -(2**62), 2**62 - 7, 3, -(2**62) + 9]  # order-2 sums past 2^64
    yield solve, InputSet(tuple(past), past[0] + past[2])
    yield solve_positive, InputSet((2**63 - 1, 5, 2**63 - 2), 2**63 - 1)  # the largest sum 2^64 + 2
    values = random.Random(29).sample(range(10**12, 10**12 + 10**6), 70)
    yield solve, InputSet(tuple(values), values[3] + values[60])


def _solver_searches():
    rng = random.Random(16)
    for _ in range(30):
        values = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 9)))
        yield partial(solve, range_check=False), InputSet(values, rng.randint(-40, 40))
    for _ in range(10):
        values = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 9)))
        yield solve_positive, InputSet(values, rng.randint(1, sum(values) + 1))
    yield from _wide_searches()


@pytest.mark.parametrize("call, instance", list(_solver_searches()))
def test_solver_frontier_forgets_below_lo_and_matches_a_public_one(monkeypatch, call, instance):
    searches = _watch_searches(monkeypatch, _Watched)
    outcome = call(instance)
    searched = [record for record in outcome.stats.orders if record.ranks_probed]  # not skipped by the window
    assert len(searched) == len(searches)
    s = normalize(instance)
    for record, (watched, total, target, found) in zip(searched, searches):
        assert watched.largest_memo <= (total + 1) // 2  # the first probe's leg, never the whole tree
        public = _public_frontier(s, record.order)
        ranks = []
        public_found, _ = lower_bound_rank_search(public, total, target, ranks)
        assert tuple(ranks) == record.ranks_probed
        assert [(k, public.select(k).cached_sum) for k, _ in watched.sums] == watched.sums
        assert public.nodes_expanded == watched.frontier.nodes_expanded == record.nodes_expanded
        assert (found is None) == (public_found is None)
        if found is not None:
            assert _decode(s.scaled_values, watched.frontier.matched[0]) == public_found
            assert outcome.subset == unscale(public_found, s)


def _behaviour(outcome):
    """A solve's subset and, per searched length, its probed ranks, nodes expanded and decision."""
    return outcome.subset, [(r.order, r.ranks_probed, r.nodes_expanded, r.found) for r in outcome.stats.orders]


def _public_ranks():
    """Every rank of every public frontier over two tied-sum sets, stepped up from rank 1 and read after the last."""
    served = []
    for values in [(3,) * 8, (1, 1, 2, 2, 3, 3)]:
        s = normalize(InputSet(values, 0))
        for (stepped, _, total), (last_first, _, _) in zip(_frontier_pairs(s), _frontier_pairs(s)):
            served.append([stepped.select(k) for k in range(1, total + 1)])
            last_first.select(total)  # one select that drains the whole tree over many rule calls
            served.append([last_first.select(k) for k in range(1, total + 1)])
    return served


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_rank_search_is_the_same_in_chunks_of_any_size(monkeypatch, chunk):
    # A run split across calls to the rule must still yield its first code, and every record;
    # a public frontier must pack every piece of it into its memo, in order.
    def behaviour():
        return [_behaviour(call(instance)) for call, instance in _solver_searches()], _public_ranks()

    expected = behaviour()
    monkeypatch.setattr(powerset, "_CHUNK", chunk)
    assert behaviour() == expected


@pytest.mark.parametrize("top, packed", [(2**64 - 1, True), (2**64, False)])
def test_run_sums_pack_while_the_largest_sum_fits_in_64_bits(top, packed):
    # The power-set tree of (1, top - 1): its last rank sums to top, its middle one to top - 1, past 2^63.
    scaled = (1, top - 1)
    frontier = _RunFrontier(1, 1, _binheap_rule(scaled), 3, top, top)
    assert isinstance(frontier._totals, array) is packed
    assert [frontier.select(k).cached_sum for k in (1, 2, 3)] == [1, top - 1, top]
    assert frontier.matched == [0b11] and list(frontier._totals) == [top]


# Each tree's largest sum less its root's is size - 1 + extra: the length-3 tree of 6 values (20 subsets) and the
# power-set tree of 4 values (15 subsets), both with tied sums.
_BOUNDARY_TREES = {
    "length 3": lambda extra: (ScaledSet((1, 2, 3, 4, 5, 16 + extra)), 0b111, 20, _subtree_rule,
                               lambda s: subtree_frontier(SubsetTree(s, 3))),
    "power set": lambda extra: (ScaledSet((1, 3, 3, 8 + extra)), 1, 15, _binheap_rule, binheap_frontier),
}


@pytest.mark.parametrize("extra, slotted", [(0, True), (1, False)], ids=["range size - 1", "range size"])
@pytest.mark.parametrize("tree", list(_BOUNDARY_TREES))
def test_solver_frontier_is_slotted_exactly_when_its_sum_range_is_below_its_size(tree, extra, slotted):
    s, root, size, rules, public_frontier = _BOUNDARY_TREES[tree](extra)
    sums = [public_frontier(s).select(k).cached_sum for k in range(1, size + 1)]
    assert sums[-1] - sums[0] == size - 1 + extra
    # Every target from the root's sum to one past the largest: present, absent between sums, and above all.
    for target in range(sums[0], sums[-1] + 2):
        frontier = _RunFrontier(root, sums[0], rules(s.scaled_values), size, sums[-1], target)
        assert isinstance(frontier._buckets, list if slotted else dict)
        watched, ranks = _Watched(frontier, target), []  # checks the run memo after each probe
        found, _ = lower_bound_rank_search(watched, size, target, ranks)
        public = public_frontier(s)
        public_ranks = []
        public_found, _ = lower_bound_rank_search(public, size, target, public_ranks)
        assert ranks == public_ranks, target
        assert watched.sums == [(k, sums[k - 1]) for k in ranks], target
        assert frontier.nodes_expanded == public.nodes_expanded, target
        assert (found is None) == (public_found is None), target
        if found is not None:
            assert _decode(s.scaled_values, frontier.matched[0]) == public_found, target


@pytest.mark.parametrize("values", [(-7, -3, -2, 5, 8), (1, 1, 2, 2, 3, 3), (-4, 0, 0, 9, -4, 2, 7)], ids=str)
def test_public_frontiers_serve_every_rank_in_any_order_after_a_rank_search(values):
    s = normalize(InputSet(values, 0))
    expected = [[coded.select(k) for k in range(1, total + 1)] for coded, _, total in _frontier_pairs(s)]
    for above_every_sum in (True, False):
        for subsets, (coded, viewed, total) in zip(expected, _frontier_pairs(s)):
            # Above every sum each probe rises, where a forgetting frontier would drop the most.
            target = subsets[-1].cached_sum + 1 if above_every_sum else subsets[total // 2].cached_sum
            for frontier in (coded, viewed):
                lower_bound_rank_search(frontier, total, target, [])
                assert [frontier.select(k) for k in range(total, 0, -1)] == subsets[::-1]
                assert frontier.nodes_expanded == total


@pytest.mark.parametrize("call", [partial(solve, range_check=False), solve_positive], ids=["solve", "solve_positive"])
def test_forgotten_rank_raises_and_changes_nothing(monkeypatch, call):
    searches = _watch_searches(monkeypatch, lambda frontier, target: frontier)
    instance = InputSet((3, 5, 8, 13, 21, 34), 1000)  # above every sum: every probe rises
    outcome = call(instance)
    s = normalize(instance)
    assert len(searches) == len(outcome.stats.orders)
    for record, (frontier, total, _, _) in zip(outcome.stats.orders, searches):
        # The last probe, rank total, rose above rank total - 1 and forgot every run up to it.
        def state():
            memo = (list(frontier._ends), list(frontier._totals), list(frontier.matched))
            return frontier._base, frontier._probe, frontier.nodes_expanded, frontier.cached_sum, memo

        before = state()
        last = _public_frontier(s, record.order).select(total).cached_sum
        # The memo holds sums in the frontier's units: less the root's sum when its buckets are slotted.
        assert before == (total - 1, total, total, last, ([total], [last - frontier._root], []))
        for k in range(1, total):
            with pytest.raises(InputError, match=rf"^rank {k} was forgotten"):
                frontier.select(k)
            assert state() == before
        assert frontier.select(total).cached_sum == last


# The masks every rule indexes by position live in one _PositionTable per
# kind and process, which grows by building a longer list and swapping it
# in, never by changing a list in place.

_TABLES = {"bit": (powerset._BIT, lambda i: 1 << i), "below": (powerset._BELOW, lambda p: (1 << p) - 1),
           "move": (powerset._MOVE, lambda b: 3 << b - 1 if b else 0)}


def _reset_tables(monkeypatch):
    """Shrink every shared table to position 0 alone, as before any rule was built, until the test ends."""
    for table, formula in _TABLES.values():
        monkeypatch.setattr(table, "_table", [formula(0)])


def _table_lengths():
    """Each shared table's length, after checking every entry against its formula."""
    lengths = {}
    for name, (table, formula) in _TABLES.items():
        assert table._table == [formula(i) for i in range(len(table._table))], name
        lengths[name] = len(table._table)
    return lengths


def test_position_tables_grow_past_every_earlier_solve_and_never_in_place(monkeypatch):
    _reset_tables(monkeypatch)
    # Over 1..n the length-1 search for n expands every singleton, so its rule reads position n - 1.
    taken = {}
    for n in (5, 70, 20, 3):
        assert solve(InputSet(tuple(range(1, n + 1)), n)).subset == (n,)
        taken[n] = powerset._BIT._table, powerset._BELOW._table
        if n == 5:
            s = ScaledSet(tuple(range(1, 6)))
            early = [subtree_frontier(SubsetTree(s, 2)), binheap_frontier(s)]
            assert _table_lengths() == {"bit": 5, "below": 5, "move": 5}
    assert _table_lengths() == {"bit": 70, "below": 70, "move": 5}  # no fixed-length solve reads move
    assert taken[3] == taken[20] == taken[70] and all(a is b for a, b in zip(taken[3], taken[70]))
    assert [len(table) for table in taken[5]] == [5, 5]  # the lists the early frontiers took are as they were
    for frontier, fresh, total in zip(early, [subtree_frontier(SubsetTree(s, 2)), binheap_frontier(s)], (10, 31)):
        for k in range(1, total + 1):
            got, expected = frontier.select(k), fresh.select(k)
            assert (got.indices, got.cached_sum) == (expected.indices, expected.cached_sum), k


def test_threads_growing_the_tables_at_once_return_the_sequential_outcomes(monkeypatch):
    # Both searches read every position: over 1..12 no subset reaches 100, and with the window off every
    # length is searched to its end; over 1..40 only 39 + 40 makes 79, the last rank of the length-2 tree.
    solves = [partial(solve, InputSet(tuple(range(1, 13)), 100), range_check=False),
              partial(solve, InputSet(tuple(range(1, 41)), 79))]
    expected = [_behaviour(call()) for call in solves]
    assert expected[0][0] is None and expected[1][0] == (39, 40)
    workers, repeats = 6, 3  # more threads than a 4-core runner has cores; even threads solve N=12, odd ones N=40
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            _reset_tables(monkeypatch)  # every round grows the tables from position 0
            start, got = threading.Barrier(workers), [[] for _ in range(workers)]

            def work(i):
                start.wait(timeout=60)
                for _ in range(repeats):
                    got[i].append(_behaviour(solves[i % 2]()))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert got == [[expected[i % 2]] * repeats for i in range(workers)]
            lengths = _table_lengths()  # a thread that grew a table to 12 may swap its list in last
            assert lengths["bit"] >= 12 and lengths["below"] >= 12
    finally:
        sys.setswitchinterval(switch)
