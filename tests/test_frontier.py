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
once, pending or popped. The solver's own frontiers forget the ranks its
rank search has passed; public ones must still serve every rank in any
order. A coded frontier packs its memo into 8-byte codes while the tree's
widest code fits in 64 bits, and keeps a list past that.
"""

import gc
import itertools
import math
import random
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
)
from subsetsum import solver
from subsetsum.powerset import _binheap_frontier, binheap_children, binheap_root


def _frontier_pairs(s):
    """(coded, viewed, subsets) for every fixed-length tree of s and its power-set tree."""
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
    frontier = binheap_frontier(s)
    with pytest.raises(InputError, match=r"^rank 131072 exceeds the 131071 subsets in this tree$"):
        frontier.select(2**17)
    assert frontier.nodes_expanded == 0
    frontier = subtree_frontier(SubsetTree(s, 8))
    total = math.comb(17, 8)
    with pytest.raises(InputError, match=rf"^rank {total + 1} exceeds the {total} subsets in this tree$"):
        frontier.select(total + 1)
    assert frontier.nodes_expanded == 0


_S5 = ScaledSet((1, 5, 6, 13, 16))
_FRONTIERS = {
    "subtree_frontier": lambda: subtree_frontier(SubsetTree(_S5, 2)),
    "binheap_frontier": lambda: binheap_frontier(_S5),
    "Frontier(root, expand)": lambda: Frontier(binheap_root(_S5), partial(binheap_children, s=_S5)),
}


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
    assert frontier.select(2) == make().select(2)


def _produced(frontier, root):
    """Every (code, sum) filed so far: the root, then each memoized node's children.

    Each node's children come from running the frontier's rule on that node
    alone, from a one-code cursor into a scratch bucket map, so the record
    does not depend on how many buckets one select drained.
    """
    produced = [root]
    for code in frontier._popped:
        buckets = {}
        frontier._rule([[code], 0, frontier._decode(code).cached_sum], 1, buckets, [], [])
        produced += [(child, key) for key, bucket in buckets.items() for child in bucket]
    return produced


def _assert_bucket_layout(frontier, root, k):
    """Every produced code once, pending or in the memo; each registered sum once in sums, none below the cursor's.

    The cursor's bucket has left the map; a registered bucket may sit at the
    cursor's own sum, and no registered bucket is empty.
    """
    buckets, sums, (bucket, head, total) = frontier._buckets, frontier._sums, frontier._cursor
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
        root_bucket, _, root_sum = coded._cursor
        root = (root_bucket[0], root_sum)
        for k in range(1, total + 1):
            coded.select(k)
            _assert_bucket_layout(coded, root, k)
        bucket, head, _ = coded._cursor
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


def test_first_probe_memo_is_packed():
    # solve_positive's first probe at N=16 memoizes 2^15 codes and forgets none of them.
    # tracemalloc peak on CPython 3.11.7: 1,856 KiB with a list of int codes,
    # 870 KiB with codes packed 8 bytes each; the bound lies halfway.
    s = ScaledSet((865, 395, 777, 912, 431, 42, 266, 989, 524, 498, 415, 941, 803, 850, 311, 992))
    tracemalloc.start()
    try:
        _binheap_frontier(s, True).select(2**15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1363 << 10



# The solver's own frontiers forget every rank up to the previous probe
# whenever a probe rises above it. A public frontier forgets nothing.


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
    """Stands in for the solver's frontier and checks its memo after each probe against the search's lo."""

    def __init__(self, frontier, target):
        self.frontier, self.target, self.lo = frontier, target, 1
        self.deepest = self.largest_memo = 0

    def select(self, k):
        subset = self.frontier.select(k)
        frontier = self.frontier
        self.deepest = max(self.deepest, k)
        assert frontier._base == self.lo - 1, (k, self.lo)  # no rank below lo, and lo itself still held
        assert frontier.nodes_expanded == self.deepest  # popped so far, forgotten ones included
        self.largest_memo = max(self.largest_memo, len(frontier._popped))
        if subset.cached_sum < self.target:
            self.lo = k + 1
        return subset


def _solver_searches():
    rng = random.Random(16)
    for _ in range(30):
        values = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 9)))
        yield partial(solve, range_check=False), InputSet(values, rng.randint(-40, 40))
    for _ in range(10):
        values = tuple(rng.randint(1, 30) for _ in range(rng.randint(1, 9)))
        yield solve_positive, InputSet(values, rng.randint(1, sum(values) + 1))


@pytest.mark.parametrize("call, instance", list(_solver_searches()))
def test_solver_frontier_forgets_below_lo_and_matches_a_public_one(monkeypatch, call, instance):
    searches = _watch_searches(monkeypatch, _Watched)
    outcome = call(instance)
    assert len(outcome.stats.orders) == len(searches)
    s = normalize(instance)
    for record, (watched, total, target, found) in zip(outcome.stats.orders, searches):
        assert watched.largest_memo <= (total + 1) // 2  # the first probe's leg, never the whole tree
        public = _public_frontier(s, record.order)
        ranks = []
        public_found, _ = lower_bound_rank_search(public, total, target, ranks)
        assert tuple(ranks) == record.ranks_probed
        assert public.nodes_expanded == watched.frontier.nodes_expanded == record.nodes_expanded
        assert public_found == found


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
        # The last probe, rank total, rose above rank total - 1 and forgot every rank below it.
        state = (frontier._base, frontier._probe, frontier.nodes_expanded)
        assert state == (total - 1, total, total)
        for k in range(1, total):
            with pytest.raises(InputError, match=rf"^rank {k} was forgotten"):
                frontier.select(k)
            assert (frontier._base, frontier._probe, frontier.nodes_expanded) == state
        assert frontier.select(total) == _public_frontier(s, record.order).select(total)
