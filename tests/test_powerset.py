import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsum import (
    IndexSubset,
    InputError,
    InputSet,
    ScaledSet,
    binheap_frontier,
    brute_force_solve,
    enumerate_sorted_sums,
    lower_bound_rank_search,
    solve_positive,
)
from subsetsum.checks import check_tree
from subsetsum.powerset import binheap_children, binheap_root

positive_sets = st.lists(st.integers(1, 50), min_size=1, max_size=9).map(
    lambda vs: ScaledSet(tuple(sorted(vs)), 0)
)


class TestRoot:
    def test_root_is_smallest_singleton(self):
        s = ScaledSet((2, 5, 7), 0)
        root = binheap_root(s)
        assert root.indices == (0,)
        assert root.cached_sum == 2

    def test_singleton_set(self):
        root = binheap_root(ScaledSet((1,), 0))
        assert root.cached_sum == 1

    def test_scaled_mixed_sign_set(self):
        root = binheap_root(ScaledSet((1, 5, 6, 13, 16), 0))
        assert root.cached_sum == 1


class TestChildren:
    def test_root_children(self):
        s = ScaledSet((2, 5, 7), 0)
        left, right = binheap_children(binheap_root(s), s)
        assert left.indices == (1,) and left.cached_sum == 5
        assert right.indices == (0, 1) and right.cached_sum == 7

    def test_full_set_has_no_children(self):
        s = ScaledSet((2, 5, 7), 0)
        node = binheap_children(binheap_children(binheap_root(s), s)[1], s)[1]
        assert node.indices == (0, 1, 2)
        assert binheap_children(node, s) == []

    def test_middle_singleton_children(self):
        s = ScaledSet((2, 5, 7), 0)
        five = binheap_children(binheap_root(s), s)[0]
        left, right = binheap_children(five, s)
        assert left.indices == (2,) and left.cached_sum == 7
        assert right.indices == (1, 2) and right.cached_sum == 12

    @pytest.mark.parametrize(
        "node",
        [IndexSubset((9,), 0), IndexSubset((3, 1), 7), IndexSubset((), 0), IndexSubset((-1,), 5)],
        ids=["past-end", "decreasing", "empty", "negative"],
    )
    def test_non_node_is_refused(self, node):
        with pytest.raises(InputError):
            binheap_children(node, ScaledSet((1, 2, 3, 4, 5), 0))


class TestKthSmallest:
    @pytest.mark.parametrize("k,expected_sum", [(1, 2), (4, 7), (7, 14)])
    def test_ranked_sums(self, k, expected_sum):
        s = ScaledSet((2, 5, 7), 0)
        assert binheap_frontier(s).select(k).cached_sum == expected_sum

    @pytest.mark.parametrize("k", [0, -1, 8])
    def test_rank_out_of_range(self, k):
        with pytest.raises(InputError, match="rank"):
            binheap_frontier(ScaledSet((2, 5, 7), 0)).select(k)

    def test_ties_are_deterministic(self):
        s = ScaledSet((2, 2, 3), 0)
        first = [binheap_frontier(s).select(k) for k in range(1, 8)]
        second = [binheap_frontier(s).select(k) for k in range(1, 8)]
        assert first == second


class TestSearch:
    def test_finds_unique_pair(self):
        found, _ = lower_bound_rank_search(binheap_frontier(ScaledSet((2, 5, 7), 0)), 7, 9, [])
        assert found is not None and found.indices == (0, 2)

    def test_absent_sum(self):
        assert not solve_positive(InputSet((2, 5, 7), 8)).found

    def test_appends_to_a_nonempty_rank_log(self):
        # sorted sums of {2, 5, 7}: 2 5 7 7 9 12 14; target 9 is rank 5
        rank_log = [99]
        found, probes = lower_bound_rank_search(binheap_frontier(ScaledSet((2, 5, 7), 0)), 7, 9, rank_log)
        assert found is not None and found.indices == (0, 2)
        assert rank_log == [99, 4, 6, 5, 5]
        assert probes == 4

    @pytest.mark.parametrize("total", [0, -5, True, 2.0], ids=repr)
    def test_empty_or_non_int_range_is_refused_before_any_probe(self, total):
        frontier = binheap_frontier(ScaledSet((1, 2, 3), 0))
        rank_log = []
        with pytest.raises(InputError, match="^total must be an int of at least 1"):
            lower_bound_rank_search(frontier, total, 1, rank_log)
        assert rank_log == [] and frontier.nodes_expanded == 0

    def test_minimum_is_root(self):
        outcome = solve_positive(InputSet((2, 5, 7), 2))
        assert outcome.subset == (2,)

    def test_probe_count_bounded(self):
        s = ScaledSet(tuple(sorted(random.Random(3).randint(1, 30) for _ in range(10))), 0)
        total = 2**10 - 1
        bound = math.ceil(math.log2(total)) + 1
        for target in range(0, sum(s.scaled_values) + 2):
            _, probes = lower_bound_rank_search(binheap_frontier(s), total, target, [])
            assert probes <= bound

    def test_decision_matches_brute_force_exhaustively(self):
        # every target in and just beyond the reachable window, N = 12
        values = tuple(sorted(random.Random(9).randint(1, 20) for _ in range(12)))
        for target in range(0, sum(values) + 2):
            outcome = solve_positive(InputSet(values, target))
            expected = brute_force_solve(InputSet(values, target))
            assert outcome.found == (expected is not None), target
            if outcome.found:
                assert sum(outcome.subset) == target


class TestProperties:
    @pytest.mark.parametrize("size", range(1, 13))
    def test_completeness(self, size):
        values = tuple(sorted(random.Random(size).randint(1, 40) for _ in range(size)))
        walk = check_tree(ScaledSet(values, 0))
        assert walk.total == 2**size - 1
        assert walk.complete, walk

    @given(positive_sets)
    @settings(max_examples=60)
    def test_heap_property(self, s):
        assert check_tree(s).inversion is None

    @given(positive_sets)
    @settings(max_examples=40)
    def test_selection_matches_enumeration(self, s):
        expected = enumerate_sorted_sums(s)
        frontier = binheap_frontier(s)
        got = [frontier.select(k).cached_sum for k in range(1, 2**s.size)]
        assert got == expected

    @given(positive_sets, st.data())
    @settings(max_examples=60)
    def test_laziness_bound(self, s, data):
        k = data.draw(st.integers(1, 2**s.size - 1))
        frontier = binheap_frontier(s)
        frontier.select(k)
        assert frontier.nodes_expanded <= 2 * k + 1
        assert frontier.nodes_expanded == k

    def test_probe_reuse_resumes_expansion(self):
        s = ScaledSet((2, 5, 7), 0)
        frontier = binheap_frontier(s)
        frontier.select(5)
        expanded_before = frontier.nodes_expanded
        frontier.select(3)
        assert frontier.nodes_expanded == expanded_before
        frontier.select(7)
        assert frontier.nodes_expanded == 7


@given(st.lists(st.integers(1, 30), min_size=1, max_size=10), st.integers(0, 90))
@settings(max_examples=150)
def test_search_decision_equivalence_random(values, target):
    instance = InputSet(tuple(values), target)
    assert solve_positive(instance).found == (brute_force_solve(instance) is not None)
