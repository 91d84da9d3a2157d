"""The solver's integer-coded frontiers against the IndexSubset view.

subtree_frontier and binheap_frontier hold each node as a plain int and
decode only the ranks select returns. Frontier(root, expand) over the
views subtree_children/binheap_children runs the same loop over
IndexSubset nodes. Both must give the same subset, sum and
min_modified_pos at every rank, and a coded frontier must hold no tracked
object per expanded node. Since both file children straight into the sum
buckets, each select must also leave every code a rule produced exactly
once pending or in the memo. The solver's own frontiers forget the ranks
its rank search has passed; public ones must still serve every rank in any
order.
"""

import gc
import math
import random
from collections import Counter
from functools import partial

import pytest

from subsetsum import (
    Frontier,
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
from subsetsum.powerset import binheap_children, binheap_root


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
        assert (got.indices, got.cached_sum, got.min_modified_pos) == (
            expected.indices, expected.cached_sum, expected.min_modified_pos
        ), k
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


def _recording(frontier, produced):
    """Wrap frontier's rule so each (code, sum) it files into a bucket is appended to produced."""
    rule = frontier._rule

    def recording(code, total, buckets, sums):
        before = {key: len(bucket) for key, bucket in buckets.items()}
        rule(code, total, buckets, sums)
        for key, bucket in buckets.items():
            produced.extend((child, key) for child in bucket[before.get(key, 0):])

    frontier._rule = recording


def _assert_bucket_layout(frontier, produced, k):
    """Every produced code once, pending past the cursor or in the memo; each pending sum once in sums or current."""
    buckets, sums, (bucket, head, total) = frontier._buckets, frontier._sums, frontier._cursor
    assert buckets[total] is bucket and total not in sums, k
    assert len(set(sums)) == len(sums) and set(buckets) == set(sums) | {total}, k
    assert all(buckets[key] for key in sums), k
    pending = [(code, total) for code in bucket[head:]]
    pending += [(code, key) for key in sums for code in buckets[key]]
    memo = [(code, frontier._decode(code).cached_sum) for code in frontier._popped]
    assert Counter(pending + memo) == Counter(produced), k


@pytest.mark.parametrize(
    "values", [(-7, -3, -2, 5, 8), (1, 1, 2, 2, 3, 3), (-4, 0, 0, 9, -4, 2, 7), (5,)], ids=str
)
def test_every_code_is_pending_or_popped_after_each_select(values):
    s = normalize(InputSet(values, 0))
    for coded, viewed, total in _frontier_pairs(s):
        for frontier in (coded, viewed):
            root_bucket, _, root_sum = frontier._cursor
            produced = [(root_bucket[0], root_sum)]
            _recording(frontier, produced)
            for k in range(1, total + 1):
                frontier.select(k)
                _assert_bucket_layout(frontier, produced, k)
            bucket, head, _ = frontier._cursor
            assert frontier._sums == [] and head == len(bucket)


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
