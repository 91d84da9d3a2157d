import math
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsetsum import (
    CapacityError,
    InputError,
    InputSet,
    ScaledSet,
    brute_force_solve,
    dp_decision,
    enumerate_sorted_sums,
)

instances = st.tuples(
    st.lists(st.integers(-15, 15), min_size=1, max_size=10),
    st.integers(-60, 60),
).map(lambda pair: InputSet(tuple(pair[0]), pair[1]))


class TestDpDecision:
    def test_mixed_sign_intro_example(self):
        assert dp_decision(InputSet((-8, -2, 5, 7, 9), 10)) is True

    def test_worked_example(self):
        assert dp_decision(InputSet((-7, -3, -2, 5, 8), 0)) is True

    def test_unreachable_sum(self):
        assert dp_decision(InputSet((2, 5, 7), 8)) is False

    def test_target_zero_needs_nonempty_subset(self):
        assert dp_decision(InputSet((1, 2), 0)) is False
        assert dp_decision(InputSet((1, -1), 0)) is True
        assert dp_decision(InputSet((0,), 0)) is True

    def test_target_outside_sum_range(self):
        assert dp_decision(InputSet((1, 2), 4)) is False
        assert dp_decision(InputSet((1, 2), -1)) is False

    def test_cell_cap(self):
        with pytest.raises(CapacityError):
            dp_decision(InputSet((6 * 10**6, 5 * 10**6), 1))


class TestBruteForce:
    def test_mixed_sign_intro_example(self):
        assert brute_force_solve(InputSet((-8, -2, 5, 7, 9), 10)) == (-2, 5, 7)

    def test_singleton(self):
        assert brute_force_solve(InputSet((5,), 5)) == (5,)

    def test_absent(self):
        assert brute_force_solve(InputSet((1, 2), 4)) is None

    def test_size_cap(self):
        with pytest.raises(CapacityError):
            brute_force_solve(InputSet(tuple(range(1, 27)), 3))

    def test_returns_minimum_cardinality(self):
        # {1,2,3} and {6} both reach 6; the singleton must win
        assert brute_force_solve(InputSet((1, 2, 3, 6), 6)) == (6,)


class TestEnumerateSortedSums:
    def test_three_subsets_of_scaled_mixed_sign_set(self):
        s = ScaledSet((1, 5, 6, 13, 16))
        sums = enumerate_sorted_sums(s, 3)
        assert sums == [12, 19, 20, 22, 23, 24, 27, 30, 34, 35]

    def test_all_nonempty_subsets(self):
        s = ScaledSet((2, 5, 7))
        sums = enumerate_sorted_sums(s)
        assert sums == [2, 5, 7, 7, 9, 12, 14]

    def test_full_order_single_entry(self):
        s = ScaledSet((3, 4, 9))
        assert enumerate_sorted_sums(s, 3) == [16]

    def test_order_out_of_range(self):
        with pytest.raises(InputError, match="subset length"):
            enumerate_sorted_sums(ScaledSet((1, 2)), 3)

    def test_enumeration_cap(self):
        s = ScaledSet(tuple(range(1, 22)))
        with pytest.raises(CapacityError):
            enumerate_sorted_sums(s)

    @pytest.mark.parametrize("n", [None, 1, 2, 3, 4])
    def test_lengths_and_sortedness(self, n):
        s = ScaledSet((1, 3, 3, 7))
        sums = enumerate_sorted_sums(s, n)
        expected = math.comb(4, n) if n is not None else 15
        assert len(sums) == expected
        assert sums == sorted(sums)


@given(instances)
@settings(max_examples=300)
def test_dp_agrees_with_brute_force(instance):
    assert dp_decision(instance) == (brute_force_solve(instance) is not None)


@given(instances)
@settings(max_examples=200)
def test_brute_force_result_sums_to_target(instance):
    result = brute_force_solve(instance)
    if result is not None:
        assert sum(result) == instance.target
        values = instance.values
        smallest = min(
            (len(indices) for indices in _subsets_in_trial_order(len(values))
             if sum(values[i] for i in indices) == instance.target),
            default=None,
        )
        assert len(result) == smallest


def _subsets_in_trial_order(size):
    """Every nonempty subset of range(size) as an ascending index tuple, read off its bit mask.

    They come ordered by popcount, then by the index tuple: the order in
    which brute force must try subsets. This reference shares nothing with
    the oracle but the order it is specified to follow.
    """
    subsets = [tuple(i for i in range(size) if mask >> i & 1) for mask in range(1, 1 << size)]
    return sorted(subsets, key=lambda indices: (len(indices), indices))


# Few distinct values, so draws hold duplicates, zeros and negatives, and
# most targets are hit by several subsets of the smallest size.
crowded_values = st.lists(st.integers(-5, 5), min_size=1, max_size=10)


@given(st.tuples(crowded_values, st.integers(-15, 15)).map(lambda pair: InputSet(tuple(pair[0]), pair[1])))
@example(InputSet((3, 1, 2, 4), 5))  # (3, 2) is the first pair to hit, (1, 4) the last
@example(InputSet((2, -2, 0, 2), 0))  # the first hit is the zero itself; its duplicates come later
@settings(max_examples=300)
def test_brute_force_returns_the_first_hit_in_mask_order(instance):
    values = instance.values
    first = next(
        (indices for indices in _subsets_in_trial_order(len(values))
         if sum(values[i] for i in indices) == instance.target),
        None,
    )
    expected = None if first is None else tuple(sorted(values[i] for i in first))
    assert brute_force_solve(instance) == expected


@given(crowded_values)
@settings(max_examples=100)
def test_enumerate_sorted_sums_matches_mask_enumeration(values):
    s = ScaledSet(values)
    sums = {indices: sum(s.scaled_values[i] for i in indices) for indices in _subsets_in_trial_order(s.size)}
    assert enumerate_sorted_sums(s) == sorted(sums.values())
    for n in range(1, s.size + 1):
        assert enumerate_sorted_sums(s, n) == sorted(total for indices, total in sums.items() if len(indices) == n)


class _LookAlike(NamedTuple):
    """Has an InputSet's fields, but none of its checks: its values are not 64-bit ints."""

    values: tuple
    target: int


@pytest.mark.parametrize(
    "bad", [None, (1, 2, 3), ((1, 2, 3), 6), "1 2 3", _LookAlike((2**70, 1.5), 1)],
    ids=["none", "bare-values", "bare-pair", "str", "look-alike"],
)
@pytest.mark.parametrize("oracle", [dp_decision, brute_force_solve], ids=["dp_decision", "brute_force_solve"])
def test_oracles_refuse_anything_but_an_input_set(oracle, bad):
    with pytest.raises(InputError, match="^expected an InputSet"):
        oracle(bad)
