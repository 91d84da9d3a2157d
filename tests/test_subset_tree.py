import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsum import (
    IndexSubset,
    InputError,
    ScaledSet,
    SubsetTree,
    enumerate_sorted_sums,
    subtree_children,
    subtree_frontier,
    subtree_root,
)
from subsetsum import checks
from subsetsum.checks import check_tree, edges


def _top_run_start(indices):
    """The position of the first index of the top run, the highest run of consecutive indices.

    It is the position a node of the fixed-length tree advanced from its
    parent, and 0 for the root.
    """
    start = len(indices) - 1
    while start and indices[start - 1] == indices[start] - 1:
        start -= 1
    return start


positive_sets = st.lists(st.integers(1, 50), min_size=1, max_size=8).map(
    lambda vs: ScaledSet(tuple(sorted(vs)))
)


class TestRoot:
    def test_four_smallest_of_six(self):
        root = subtree_root(ScaledSet((1, 2, 3, 4, 5, 6)), 4)
        assert root.indices == (0, 1, 2, 3)
        assert root.cached_sum == 10

    def test_three_smallest_scaled(self):
        root = subtree_root(ScaledSet((1, 5, 6, 13, 16)), 3)
        assert root.cached_sum == 12

    def test_order_equal_to_size(self):
        s = ScaledSet((3, 9, 11))
        root = subtree_root(s, 3)
        assert root.indices == (0, 1, 2)

    @pytest.mark.parametrize("n", [0, -2, 7])
    def test_order_out_of_range(self, n):
        with pytest.raises(InputError, match="subset length"):
            subtree_root(ScaledSet((1, 2, 3, 4, 5, 6)), n)
        with pytest.raises(InputError, match="subset length"):
            SubsetTree(ScaledSet((1, 2, 3, 4, 5, 6)), n)


class TestChildren:
    def test_root_children_with_conflict_cascade(self):
        s = ScaledSet((1, 2, 3, 4, 5, 6))
        tree = SubsetTree(s, 4)
        children = subtree_children(subtree_root(s, 4), tree)
        # In position order, from the last position down; each child's top run starts at its position.
        assert [child.indices for child in children] == [
            (0, 1, 2, 4),  # position 3: values {1,2,3,5}
            (0, 1, 3, 4),  # position 2: values {1,2,4,5}, conflict bumped rightward
            (0, 2, 3, 4),  # position 1: values {1,3,4,5}, cascade
            (1, 2, 3, 4),  # position 0: values {2,3,4,5}, cascade
        ]
        assert [_top_run_start(child.indices) for child in children] == [3, 2, 1, 0]

    def test_full_set_has_no_children(self):
        s = ScaledSet((1, 2, 3, 4, 5, 6))
        tree = SubsetTree(s, 6)
        assert subtree_children(subtree_root(s, 6), tree) == []

    def test_pruning_limits_child_positions(self):
        s = ScaledSet((1, 2, 3, 4, 5, 6))
        tree = SubsetTree(s, 4)
        child = subtree_children(subtree_root(s, 4), tree)[0]  # the child that advanced position 3
        assert child.indices == (0, 1, 2, 4)
        grandchildren = subtree_children(child, tree)
        assert [g.indices for g in grandchildren] == [(0, 1, 2, 5)]

    @pytest.mark.parametrize(
        "values, n, node",
        [
            *(
                ((1, 5, 6, 13, 16), 2, node)
                for node in (
                    IndexSubset((3, 1), 19),
                    IndexSubset((1, 1), 10),
                    IndexSubset((0,), 1),
                    IndexSubset((0, 1, 2), 12),
                    IndexSubset((-1, 2), 22),
                    IndexSubset((0, 5), 1),
                    IndexSubset((0, 1.0), 6),
                )
            ),
        ],
        ids=["decreasing", "repeated", "short", "long", "negative", "past-end", "float"],
    )
    def test_non_node_is_refused(self, values, n, node):
        tree = SubsetTree(ScaledSet(values), n)
        with pytest.raises(InputError):
            subtree_children(node, tree)

    def test_cached_sum_is_not_read(self):
        # A wrong cached_sum on the node: each child's sum is its own indices' sum.
        tree = SubsetTree(ScaledSet((1, 5, 6, 13, 16)), 2)
        children = subtree_children(IndexSubset((0, 1), 100), tree)
        assert [(c.indices, c.cached_sum) for c in children] == [((0, 2), 7), ((1, 2), 11)]

    def test_siblings_tied_on_sum_keep_position_order(self):
        # The root's children at positions 2 and 1 both sum to 5, so the rule
        # files them in one bucket, and position 0 (sum 6) in its own; the
        # view must still list them from the last position down.
        s = ScaledSet((1, 2, 2, 2, 5, 9))
        children = subtree_children(subtree_root(s, 3), SubsetTree(s, 3))
        assert [_top_run_start(c.indices) for c in children] == [2, 1, 0]
        assert [c.indices for c in children] == [(0, 1, 3), (0, 2, 3), (1, 2, 3)]
        assert [c.cached_sum for c in children] == [5, 5, 6]

    def test_child_positions_never_below_parents(self):
        s = ScaledSet(tuple(sorted(random.Random(2).randint(1, 30) for _ in range(8))))
        tree = SubsetTree(s, 4)
        for parent, child in edges(tree):
            assert _top_run_start(child.indices) >= _top_run_start(parent.indices)


class TestKthSmallest:
    def test_minimum_three_subset(self):
        tree = SubsetTree(ScaledSet((1, 5, 6, 13, 16)), 3)
        assert subtree_frontier(tree).select(1).cached_sum == 12

    def test_rank_six_is_unique_sum_24(self):
        tree = SubsetTree(ScaledSet((1, 5, 6, 13, 16)), 3)
        subset = subtree_frontier(tree).select(6)
        assert subset.cached_sum == 24
        assert subset.indices == (1, 2, 3)

    def test_four_subset_root_rank_one(self):
        tree = SubsetTree(ScaledSet((1, 2, 3, 4, 5, 6)), 4)
        assert subtree_frontier(tree).select(1).cached_sum == 10

    @pytest.mark.parametrize("k", [0, -1, 11])
    def test_rank_out_of_range(self, k):
        tree = SubsetTree(ScaledSet((1, 5, 6, 13, 16)), 3)
        with pytest.raises(InputError, match="rank"):
            subtree_frontier(tree).select(k)


class TestExpandAll:
    def test_fifteen_four_subsets_of_six(self):
        walk = check_tree(SubsetTree(ScaledSet((1, 2, 3, 4, 5, 6)), 4))
        assert walk.nodes == walk.distinct == walk.total == 15

    def test_single_full_subset(self):
        walk = check_tree(SubsetTree(ScaledSet((4, 8, 9)), 3))
        assert walk.nodes == 1 and walk.complete

    def test_singletons(self):
        s = ScaledSet((4, 8, 9))
        tree = SubsetTree(s, 1)
        reached = [subtree_root(s, 1).indices] + [child.indices for _, child in edges(tree)]
        assert sorted(reached) == [(0,), (1,), (2,)]

    def test_walk_of_a_rule_that_revisits_stops_incomplete(self, monkeypatch):
        # Every node its own child: a walk with no cap would never end.
        monkeypatch.setattr(checks, "subtree_children", lambda node, tree: [node])
        walk = check_tree(SubsetTree(ScaledSet((1, 2, 3, 4, 5, 6)), 4))
        assert walk.nodes == walk.total + 1 == 16
        assert not walk.complete


class TestContracts:
    @pytest.mark.parametrize("size", range(1, 9))
    def test_completeness_and_uniqueness_exhaustive(self, size):
        values = tuple(sorted(random.Random(size).randint(1, 30) for _ in range(size)))
        s = ScaledSet(values)
        for n in range(1, size + 1):
            walk = check_tree(SubsetTree(s, n))
            assert walk.total == math.comb(size, n)
            assert walk.complete, walk

    @given(positive_sets, st.data())
    @settings(max_examples=60)
    def test_heap_property_and_child_count(self, s, data):
        n = data.draw(st.integers(1, s.size))
        tree = SubsetTree(s, n)
        for parent, child in edges(tree):
            assert child.cached_sum >= parent.cached_sum
            assert len(child.indices) == n
        root = subtree_root(s, n)
        assert len(subtree_children(root, tree)) <= n

    @given(positive_sets, st.data())
    @settings(max_examples=40)
    def test_selection_matches_enumeration(self, s, data):
        n = data.draw(st.integers(1, s.size))
        tree = SubsetTree(s, n)
        expected = enumerate_sorted_sums(s, n)
        frontier = subtree_frontier(tree)
        got = [frontier.select(k).cached_sum for k in range(1, tree.total + 1)]
        assert got == expected

    def test_duplicate_values_still_complete(self):
        s = ScaledSet((2, 2, 2, 5, 5))
        for n in range(1, 6):
            assert check_tree(SubsetTree(s, n)).complete
