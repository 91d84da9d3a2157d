"""The package's public surface: exactly these names, each importable."""

import pytest

import subsetsum
import subsetsum.powerset
from subsetsum import IndexSubset

PUBLIC = {
    "I64_MAX",
    "I64_MIN",
    "CapacityError",
    "Frontier",
    "IndexSubset",
    "InputError",
    "InputSet",
    "OrderTrace",
    "ScaledSet",
    "SearchStats",
    "SolveOutcome",
    "SubsetTree",
    "binheap_frontier",
    "brute_force_solve",
    "dp_decision",
    "enumerate_sorted_sums",
    "lower_bound_rank_search",
    "normalize",
    "solve",
    "solve_positive",
    "subtree_children",
    "subtree_frontier",
    "subtree_root",
    "unscale",
}


def test_all_is_exactly_the_public_names():
    assert len(subsetsum.__all__) == len(PUBLIC) == 24
    assert set(subsetsum.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in subsetsum.__all__:
        assert getattr(subsetsum, name) is not None, name


def test_index_subset_has_no_from_indices():
    assert not hasattr(IndexSubset, "from_indices")
    assert IndexSubset._fields == ("indices", "cached_sum")


def test_power_set_view_is_internal():
    for name in ("binheap_root", "binheap_children"):
        assert not hasattr(subsetsum, name), name
        assert callable(getattr(subsetsum.powerset, name)), name
    with pytest.raises(ImportError):
        from subsetsum import binheap_root  # noqa: F401
