import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsum import (
    IndexSubset,
    InputError,
    InputSet,
    ScaledSet,
    SubsetTree,
    normalize,
    subtree_children,
    unscale,
)
from subsetsum.powerset import binheap_children

values_strategy = st.lists(st.integers(-100, 100), min_size=1, max_size=12)


class TestNormalize:
    def test_mixed_sign_example(self):
        s = normalize(InputSet((-7, -3, -2, 5, 8), 0))
        assert s.sorted_values == (-7, -3, -2, 5, 8)
        assert s.offset == 8
        assert s.scaled_values == (1, 5, 6, 13, 16)

    def test_already_positive_keeps_offset_zero(self):
        s = normalize(InputSet((2, 5, 7), 0))
        assert s.offset == 0
        assert s.scaled_values == (2, 5, 7)

    def test_zero_forces_offset_one(self):
        s = normalize(InputSet((0, 3), 0))
        assert s.offset == 1
        assert s.scaled_values == (1, 4)

    def test_sorts_unsorted_input(self):
        s = normalize(InputSet((8, -7, 5, -2, -3), 0))
        assert s.sorted_values == (-7, -3, -2, 5, 8)

    def test_empty_input_rejected(self):
        with pytest.raises(InputError):
            InputSet((), 0)

    def test_value_outside_64_bits_rejected(self):
        with pytest.raises(InputError):
            InputSet((2**63,), 0)
        with pytest.raises(InputError):
            InputSet((1,), 2**63)

    @pytest.mark.parametrize("values, target", [((1, 2), True), ((True, 2), 3), ((False,), 0)])
    def test_bool_rejected(self, values, target):
        with pytest.raises(InputError):
            InputSet(values, target)

    def test_scaled_values_may_pass_64_bits(self):
        assert normalize(InputSet((-(2**63), 2**63 - 1), 0)).scaled_values == (1, 2**64)


class TestScaledSet:
    def test_mixed_sign_set_gets_the_derived_offset(self):
        assert ScaledSet((-1, 3)).offset == 2
        assert ScaledSet((3, -1)).scaled_values == (1, 5)
        assert ScaledSet((5, 2)).offset == 0

    @pytest.mark.parametrize(
        "values",
        [(1.5, 2.5), (True, 2), (1, 2**63), (1, "2")],
        ids=["float", "bool", "past-i64", "str"],
    )
    def test_rejects_non_integer_values(self, values):
        with pytest.raises(InputError):
            ScaledSet(values)

    def test_scaled_accessor(self):
        s = ScaledSet((-7, -3, -2, 5, 8))
        assert [s.scaled_values[i] for i in range(s.size)] == [1, 5, 6, 13, 16]


@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=12))
def test_scaled_set_sorts_any_order_as_normalize_does(values):
    s = ScaledSet(values)
    assert s.sorted_values == tuple(sorted(values))
    normalized = normalize(InputSet(tuple(values), 0))
    assert s == normalized and s.scaled_values == normalized.scaled_values


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: InputSet(5, 3), "input set values must be iterable, got 5"),
        (lambda: InputSet(None, 3), "input set values must be iterable, got None"),
        (lambda: ScaledSet(5), "scaled set values must be iterable, got 5"),
        (lambda: InputSet((), 0), "input set must contain at least one value"),
        (lambda: ScaledSet(()), "scaled set must contain at least one value"),
        (lambda: InputSet((1, 2.5), 0), "value 2.5 is not a 64-bit signed integer"),
        (lambda: ScaledSet((1, 2.5)), "value 2.5 is not a 64-bit signed integer"),
    ],
    ids=["int", "none", "scaled-int", "empty", "scaled-empty", "float", "scaled-float"],
)
def test_values_are_refused_with_input_error(make, message):
    with pytest.raises(InputError, match=message):
        make()


class TestUnscale:
    def test_mixed_sign_subset(self):
        s = normalize(InputSet((-7, -3, -2, 5, 8), 0))
        subset = IndexSubset((1, 2, 3), sum(s.scaled_values[1:4]))
        assert subset.cached_sum == 24
        assert unscale(subset, s) == (-3, -2, 5)

    def test_empty_subset(self):
        s = normalize(InputSet((1, 2), 0))
        assert unscale(IndexSubset((), 0), s) == ()

    def test_full_set_round_trip(self):
        s = normalize(InputSet((-7, -3, -2, 5, 8), 0))
        subset = IndexSubset(tuple(range(5)), sum(s.scaled_values))
        assert unscale(subset, s) == (-7, -3, -2, 5, 8)

    @pytest.mark.parametrize(
        "indices",
        [(-1,), (0, -1), (9,), (2, 5), (3, 1), (2, 2), (1.0,), (True,)],
        ids=["negative", "negative-last", "past-end", "at-end", "decreasing", "repeated", "float", "bool"],
    )
    def test_bad_indices_are_refused(self, indices):
        s = normalize(InputSet((-7, -3, -2, 5, 8), 0))
        with pytest.raises(InputError, match="^indices"):
            unscale(IndexSubset(indices, 0), s)


_S = ScaledSet((1, 5, 6, 13, 16))
_NOT_SUBSETS = {
    "none": None,
    "bare-tuple": (0, 1),
    "indices-tuple": ((0, 1), 6),
    "str": "01",
    "list-indices": IndexSubset([0, 1], 6),
    "generator-indices": IndexSubset((i for i in (0, 1)), 6),
    "none-indices": IndexSubset(None, 6),
}
_SUBSET_CALLS = {
    "unscale": lambda subset: unscale(subset, _S),
    "subtree_children": lambda node: subtree_children(node, SubsetTree(_S, 2)),
    "binheap_children": lambda node: binheap_children(node, _S),
}


@pytest.mark.parametrize("bad", list(_NOT_SUBSETS.values()), ids=list(_NOT_SUBSETS))
@pytest.mark.parametrize("call", list(_SUBSET_CALLS.values()), ids=list(_SUBSET_CALLS))
def test_non_subset_is_refused_with_input_error(call, bad):
    # Every call that reads a subset's indices refuses, by one type guard,
    # anything but an IndexSubset holding a tuple of indices.
    with pytest.raises(InputError, match="^expected an IndexSubset"):
        call(bad)
    assert call(IndexSubset((0, 1), 6)) is not None


@given(values_strategy, st.data())
@settings(max_examples=200)
def test_round_trip_sum(values, data):
    s = normalize(InputSet(tuple(values), 0))
    indices = data.draw(
        st.lists(st.integers(0, s.size - 1), unique=True, max_size=s.size).map(sorted)
    )
    subset = IndexSubset(tuple(indices), sum(s.scaled_values[i] for i in indices))
    assert sum(unscale(subset, s)) == subset.cached_sum - s.offset * len(indices)


@given(values_strategy)
def test_scaling_preserves_order_and_positivity(values):
    s = normalize(InputSet(tuple(values), 0))
    assert all(v >= 1 for v in s.scaled_values)
    for i in range(s.size):
        for j in range(i, s.size):
            assert (s.scaled_values[i] <= s.scaled_values[j]) == (s.sorted_values[i] <= s.sorted_values[j])


@given(st.lists(st.integers(1, 100), min_size=1, max_size=12))
def test_normalize_idempotent_on_positive_inputs(values):
    first = normalize(InputSet(tuple(values), 0))
    again = normalize(InputSet(first.sorted_values, 0))
    assert again == first
    assert again.offset == 0


@given(values_strategy)
def test_offset_formula(values):
    s = normalize(InputSet(tuple(values), 0))
    assert s.offset == max(0, 1 - min(values))
    assert sorted(s.sorted_values) == list(s.sorted_values)
    assert sorted(values) == list(s.sorted_values)
