"""The hot-path generators and frontier against plain reference versions.

The references are the straightforward forms: a child generator that copies
the parent's indices and cascades each bump slot by slot, and a frontier
that pops the top before pushing its children. The package's versions must
return the same children in the same order, and pop subsets in the same
order, tie order included, on any heap-ordered tree. Frontier(root, expand)
must refuse a tree that is not heap-ordered, and a malformed root, expand
or list of children, with InputError and without changing its state.
"""

import heapq
import random
from functools import partial

import pytest

from subsetsum import (
    Frontier,
    IndexSubset,
    InputError,
    ScaledSet,
    SubsetTree,
    subtree_children,
    subtree_root,
)
from subsetsum.powerset import binheap_children, binheap_root


def reference_subtree_children(node, min_pos, tree):
    """The paper's children of a node that advanced position min_pos (0 for the root), each with its own position.

    The position is tracked here, beside the node, and not derived from the
    indices, so the tests can check what the coded rule derives from them.
    """
    scaled = tree.scaled.scaled_values
    size = len(scaled)
    n = tree.n
    base = node.indices
    base_sum = node.cached_sum
    children = []
    for pos in range(n - 1, min_pos - 1, -1):
        indices = list(base)
        total = base_sum
        slot = pos
        nxt = indices[slot] + 1
        while nxt < size:
            total += scaled[nxt] - scaled[indices[slot]]
            indices[slot] = nxt
            if slot + 1 < n and indices[slot + 1] == nxt:
                slot += 1
                nxt += 1
            else:
                children.append((IndexSubset(tuple(indices), total), pos))
                break
    return children


def reference_binheap_children(node, s):
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


class ReferenceFrontier:
    """Pop the top, then push each child: the plain best-first loop."""

    def __init__(self, root, expand):
        self.expand = expand
        self.heap = [(root.cached_sum, 0, root)]
        self.seq = 1
        self.popped = []

    def select(self, k):
        while len(self.popped) < k:
            _, _, node = heapq.heappop(self.heap)
            self.popped.append(node)
            for child in self.expand(node):
                heapq.heappush(self.heap, (child.cached_sum, self.seq, child))
                self.seq += 1
        return self.popped[k - 1]


def _sets():
    """Sets of sizes 1-9: all-equal, distinct, and random with many duplicates."""
    for size in range(1, 10):
        rng = random.Random(size)
        yield (3,) * size
        yield tuple(range(1, 2 * size, 2))
        yield tuple(sorted(rng.randint(1, 4) for _ in range(size)))
        yield tuple(sorted(rng.randint(1, 60) for _ in range(size)))


def _all_nodes(root, children_of):
    """Every node of a tree, reached through a reference generator; for the subset tree, (node, position) pairs."""
    stack, nodes = [root], []
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(children_of(node))
    return nodes


def _assert_same_children(got, expected):
    assert got == expected
    assert all(type(child) is IndexSubset for child in got)


@pytest.mark.parametrize("values", list(_sets()), ids=str)
def test_subtree_children_match_reference_on_every_node(values):
    s = ScaledSet(values)
    for n in range(1, len(values) + 1):
        tree = SubsetTree(s, n)
        nodes = _all_nodes((subtree_root(s, n), 0), lambda item: reference_subtree_children(*item, tree))
        assert len(nodes) == tree.total
        for node, pos in nodes:
            expected = [child for child, _ in reference_subtree_children(node, pos, tree)]
            _assert_same_children(subtree_children(node, tree), expected)


@pytest.mark.parametrize("size", range(1, 10))
def test_min_modified_pos_is_the_start_of_the_top_run(size):
    # The reference honours any position it is given, so the invariant the
    # coded rule rests on is checked here on trees it does not build: the
    # position a node advanced counts its indices below its top run of
    # consecutive indices.
    s = ScaledSet(tuple(range(1, size + 1)))
    for n in range(1, size + 1):
        tree = SubsetTree(s, n)
        nodes = _all_nodes((subtree_root(s, n), 0), lambda item: reference_subtree_children(*item, tree))
        assert len(nodes) == tree.total
        for node, pos in nodes:
            start = n - 1
            while start and node.indices[start - 1] == node.indices[start] - 1:
                start -= 1
            assert pos == start, node


@pytest.mark.parametrize("values", list(_sets()), ids=str)
def test_binheap_children_match_reference_on_every_node(values):
    s = ScaledSet(values)
    nodes = _all_nodes(binheap_root(s), lambda node: reference_binheap_children(node, s))
    assert len(nodes) == 2 ** len(values) - 1
    for node in nodes:
        _assert_same_children(binheap_children(node, s), reference_binheap_children(node, s))


def _trees(values):
    """(root, expand, subsets) for each fixed-length tree and the power-set tree."""
    s = ScaledSet(values)
    for n in range(1, len(values) + 1):
        tree = SubsetTree(s, n)
        yield subtree_root(s, n), lambda node, tree=tree: subtree_children(node, tree), tree.total
    yield binheap_root(s), lambda node: binheap_children(node, s), 2 ** len(values) - 1


# Heavy ties; all-distinct sums, so every child opens a new bucket; and
# repeated values, whose zero-delta children join their parent's bucket.
@pytest.mark.parametrize(
    "values",
    [(3,) * 8, (1, 1, 2, 2, 2, 3, 3, 4), tuple(2**i for i in range(9)), (1, 1, 1, 2, 2, 5, 5, 5)],
    ids=str,
)
def test_tie_order_matches_pop_then_push(values):
    for root, expand, total in _trees(values):
        frontier = Frontier(root, expand)
        reference = ReferenceFrontier(root, expand)
        got = [frontier.select(k) for k in range(1, total + 1)]
        assert got == [reference.select(k) for k in range(1, total + 1)]
        assert frontier.nodes_expanded == total


@pytest.mark.parametrize("tree_index", [3, -1], ids=["subset-tree", "powerset"])
def test_raising_expand_leaves_frontier_unchanged(tree_index):
    root, expand, total = list(_trees((1, 2, 2, 3, 5, 8, 9)))[tree_index]
    fresh = Frontier(root, expand)
    expected = [fresh.select(k) for k in range(1, total + 1)]
    for fail_at in range(1, total + 1):  # every node, including the first of each bucket
        calls = 0

        def flaky(node):
            nonlocal calls
            calls += 1
            if calls == fail_at:
                raise RuntimeError("expand failed")
            return expand(node)

        frontier = Frontier(root, flaky)
        with pytest.raises(RuntimeError):
            frontier.select(total)
        assert frontier.nodes_expanded == fail_at - 1
        frontier.select(total)
        assert [frontier.select(k) for k in range(1, total + 1)] == expected, fail_at
        assert frontier.nodes_expanded == fresh.nodes_expanded == total


def _with_extra_child(expand, parent, delta):
    """expand, plus one leaf under parent whose sum is parent's sum + delta; no tree holds the leaf."""
    extra = IndexSubset((), parent.cached_sum + delta)

    def wrapped(node):
        if node is extra:
            return []
        children = expand(node)
        return [*children, extra] if node == parent else children

    return wrapped, extra


def _pending(frontier):
    """The pending (sum, node) pairs in pop order, read from the heap's (sum, seq, node) entries."""
    return [(total, node) for total, _, node in sorted(frontier._heap)]


@pytest.mark.parametrize("later", [False, True], ids=["first-expansion", "later-new-bucket"])
def test_child_below_its_parent_is_refused(later):
    root, expand, total = list(_trees((1, 2, 2, 3, 5, 8, 9)))[3]
    expected = [Frontier(root, expand).select(k) for k in range(1, total + 1)]
    # The failing node's place in pop order: the root, or the first node of a bucket halfway down.
    rank = 0
    if later:
        rank = next(r for r in range(total // 2, total) if expected[r].cached_sum > expected[r - 1].cached_sum)
    parent = expected[rank]
    refusing, _ = _with_extra_child(expand, parent, -1)
    frontier = Frontier(root, refusing)
    selected = [frontier.select(k) for k in range(1, rank + 1)]
    assert selected == expected[:rank]
    pending = _pending(frontier)
    with pytest.raises(InputError, match="below its parent"):
        frontier.select(total)
    assert frontier.nodes_expanded == rank
    assert _pending(frontier) == pending
    assert all(frontier.select(k) is node for k, node in enumerate(selected, 1))

    # A child whose sum equals its parent's is accepted, and joins the tail of its parent's bucket.
    equal, extra = _with_extra_child(expand, parent, 0)
    frontier, reference = Frontier(root, equal), ReferenceFrontier(root, equal)
    got = [frontier.select(k) for k in range(1, total + 2)]
    assert got == [reference.select(k) for k in range(1, total + 2)]
    assert extra in got


_ROOT5 = binheap_root(ScaledSet((1, 2, 2, 3, 5)))
_EXPAND5 = partial(binheap_children, s=ScaledSet((1, 2, 2, 3, 5)))


# (Frontier arguments, raised at construction); the rest raise at the first expansion.
@pytest.mark.parametrize(
    "root, expand, at_construction",
    [
        (None, None, True),
        (((0,), 1), _EXPAND5, True),
        (_ROOT5, None, True),
        (_ROOT5, [_ROOT5], True),
        (_ROOT5, lambda node: None, False),
        (_ROOT5, lambda node: tuple(_EXPAND5(node)), False),
        (_ROOT5, lambda node: [(child.indices, child.cached_sum + 1) for child in _EXPAND5(node)], False),
        (_ROOT5, lambda node: [*_EXPAND5(node), None], False),
        (IndexSubset((0,), "a"), _EXPAND5, True),
        (IndexSubset((0,), 1.5), lambda node: [IndexSubset((1,), 2.5)], True),
        (IndexSubset((0,), True), _EXPAND5, True),
        (_ROOT5, lambda node: [child._replace(cached_sum="a") for child in _EXPAND5(node)], False),
        (_ROOT5, lambda node: [child._replace(cached_sum=child.cached_sum + 0.5) for child in _EXPAND5(node)], False),
        (_ROOT5, lambda node: [child._replace(cached_sum=True) for child in _EXPAND5(node)], False),
    ],
    ids=["none-none", "tuple-root", "none-expand", "list-expand", "returns-none", "returns-tuple",
         "returns-bare-tuples", "returns-a-none-child", "str-root-sum", "float-root-sum", "bool-root-sum",
         "str-child-sum", "float-child-sum", "bool-child-sum"],
)
def test_malformed_frontier_is_refused_with_input_error(root, expand, at_construction):
    if at_construction:
        with pytest.raises(InputError, match="^(root|expand) must be"):
            Frontier(root, expand)
        return
    frontier = Frontier(root, expand)
    pending = _pending(frontier)
    with pytest.raises(InputError, match="^(expand must return a list|child .* is not an IndexSubset)"):
        frontier.select(2)
    assert frontier.nodes_expanded == 0
    assert _pending(frontier) == pending


# Heap-ordered trees over sums no scaled set produces: negative, zero, beyond
# 64 bits either way, and 2**70 against 2**70 + 1, which a float cannot tell
# apart.
_EXTREME_SUMS = (
    -(2**70), -(2**63) - 1, -(2**63), -(2**63) + 1, -5, -1, 0, 1, 7,
    2**63 - 1, 2**63, 2**63 + 1, 2**64, 2**70, 2**70 + 1,
)
_SUM_POOLS = {
    "all": _EXTREME_SUMS,
    "float-equal": (2**70, 2**70 + 1),
    "i64-edges": (-(2**63), 0, 2**63 - 1),
    "sign": (-1, 0, 1),
}


def _synthetic_tree(pool, seed, size):
    """A root and an expand over `size` heap-ordered nodes whose sums are drawn from pool.

    The root takes the pool's minimum, and each child's sum is drawn from the
    pool values at or above its parent's, so the few distinct values tie
    heavily. Each node's index tuple is its own id, so equal nodes are the
    same node.
    """
    rng = random.Random(seed)
    nodes = [IndexSubset((0,), min(pool))]
    children = [[] for _ in range(size)]
    for i in range(1, size):
        parent = nodes[rng.randrange(i)]
        node = IndexSubset((i,), rng.choice([v for v in pool if v >= parent.cached_sum]))
        nodes.append(node)
        children[parent.indices[0]].append(node)
    return nodes[0], lambda node: children[node.indices[0]]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pool", list(_SUM_POOLS), ids=str)
def test_pop_order_on_heap_ordered_extreme_sums(pool, seed):
    size = 600
    root, expand = _synthetic_tree(_SUM_POOLS[pool], seed, size)
    frontier = Frontier(root, expand)
    reference = ReferenceFrontier(root, expand)
    got = [frontier.select(k) for k in range(1, size + 1)]
    assert got == [reference.select(k) for k in range(1, size + 1)]
    assert frontier.nodes_expanded == len(reference.popped) == size
    with pytest.raises(InputError, match="rank"):
        frontier.select(size + 1)
