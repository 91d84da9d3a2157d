import math
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subsetsum import (
    CapacityError,
    InputError,
    InputSet,
    brute_force_solve,
    dp_decision,
    solve,
    solve_positive,
)

instances = st.tuples(
    st.lists(st.integers(-15, 15), min_size=1, max_size=9),
    st.integers(-60, 60),
).map(lambda pair: InputSet(tuple(pair[0]), pair[1]))


def assert_probe_bounds(stats, size):
    for order_index, probes in enumerate(stats.probes_per_order):
        total = math.comb(size, order_index + 1)
        assert probes <= math.ceil(math.log2(total)) + 1


class TestSearchOrder:
    def test_hit_at_order_three(self):
        traces = []
        outcome = solve(InputSet((-7, -3, -2, 5, 8), 0), traces)
        assert traces[2].order == 3 and traces[2].scaled_target == 24 and traces[2].found
        assert outcome.subset == (-3, -2, 5)  # sorted indices (1, 2, 3)
        assert outcome.stats.probes_per_order[2] >= 1

    def test_miss_at_order_one(self):
        traces = []
        solve(InputSet((-7, -3, -2, 5, 8), 0), traces)
        assert (traces[0].order, traces[0].scaled_target, traces[0].found) == (1, 8, False)

    def test_miss_at_order_two(self):
        traces = []
        solve(InputSet((-7, -3, -2, 5, 8), 0), traces)
        assert (traces[1].order, traces[1].scaled_target, traces[1].found) == (2, 16, False)

    def test_out_of_window_targets_cost_no_probes(self):
        below = solve(InputSet((2, 5, 7), 6)).stats   # below min pair sum 7
        above = solve(InputSet((2, 5, 7), 13)).stats  # above max pair sum 12
        assert below.probes_per_order[1] == 0
        assert above.probes_per_order[1] == 0


class TestSolve:
    def test_worked_example(self):
        outcome = solve(InputSet((-7, -3, -2, 5, 8), 0))
        assert outcome.found
        assert outcome.subset == (-3, -2, 5)
        assert outcome.stats.orders_searched == 3

    def test_intro_example(self):
        outcome = solve(InputSet((-8, -2, 5, 7, 9), 10))
        assert outcome.found
        assert sum(outcome.subset) == 10
        assert len(outcome.subset) == 3

    def test_singleton_not_found(self):
        outcome = solve(InputSet((5,), 6))
        assert not outcome.found
        assert outcome.subset is None
        assert outcome.stats.orders_searched == 1

    def test_trace_records_orders_and_targets(self):
        traces = []
        solve(InputSet((-7, -3, -2, 5, 8), 0), traces)
        assert [t.order for t in traces] == [1, 2, 3]
        assert [t.scaled_target for t in traces] == [8, 16, 24]
        assert [t.found for t in traces] == [False, False, True]
        assert all(t.ranks_probed for t in traces)

    def test_unreachable_target_short_circuits_every_order(self):
        outcome = solve(InputSet((2, 5, 7), 100))
        assert not outcome.found
        assert outcome.stats.orders_searched == 3
        assert outcome.stats.probes_per_order == [0, 0, 0]
        assert outcome.stats.nodes_expanded == 0

    def test_range_check_off_still_agrees(self):
        instance = InputSet((2, 5, 7), 100)
        outcome = solve(instance, range_check=False)
        assert not outcome.found
        assert outcome.stats.nodes_expanded == 2**3 - 1

    def test_scaled_target_overflow_raises(self):
        with pytest.raises(CapacityError):
            solve(InputSet((-(2**62),), 2**62))

    def test_wrong_solution_sum_raises_under_optimize(self):
        # A solver fault that unscales to the wrong values must not pass as a
        # solution, also when python -O strips assert statements.
        code = (
            "import subsetsum.solver as solver\n"
            "from subsetsum import InputSet\n"
            "solver.unscale = lambda subset, s: ()\n"
            "print(solver.solve(InputSet((2, 5, 7), 9)).subset)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode != 0, proc.stdout
        assert "RuntimeError" in proc.stderr

    def test_stats_shape(self):
        outcome = solve(InputSet((1, 2, 3), 7))
        stats = outcome.stats
        assert stats.orders_searched == len(stats.probes_per_order)
        assert stats.elapsed_ns > 0
        assert_probe_bounds(stats, 3)


class TestSolvePositive:
    def test_finds_unique_pair(self):
        outcome = solve_positive(InputSet((2, 5, 7), 9))
        assert outcome.subset == (2, 7)

    def test_below_minimum(self):
        outcome = solve_positive(InputSet((2, 5, 7), 1))
        assert not outcome.found

    def test_total_sum(self):
        outcome = solve_positive(InputSet((2, 5, 7), 14))
        assert outcome.subset == (2, 5, 7)

    @pytest.mark.parametrize("values", [(0, 3), (-1, 4), (-7, -3)])
    def test_rejects_non_positive_values(self, values):
        with pytest.raises(InputError, match="solve"):
            solve_positive(InputSet(values, 3))

    def test_trace_marks_powerset_search(self):
        traces = []
        solve_positive(InputSet((2, 5, 7), 9), traces)
        assert len(traces) == 1
        assert traces[0].order == 0
        assert traces[0].found


@given(instances)
@settings(max_examples=300, deadline=None)
def test_decision_matches_dp_oracle(instance):
    outcome = solve(instance)
    assert outcome.found == dp_decision(instance)


@given(instances)
@settings(max_examples=200, deadline=None)
def test_found_subsets_are_sound(instance):
    outcome = solve(instance)
    if outcome.found:
        assert sum(outcome.subset) == instance.target
        counts = Counter(instance.values)
        counts.subtract(outcome.subset)
        assert all(v >= 0 for v in counts.values())


@given(instances)
@settings(max_examples=150, deadline=None)
def test_minimum_cardinality(instance):
    outcome = solve(instance)
    reference = brute_force_solve(instance)
    assert outcome.found == (reference is not None)
    if outcome.found:
        assert len(outcome.subset) == len(reference)


@given(st.lists(st.integers(1, 25), min_size=1, max_size=9), st.integers(0, 120))
@settings(max_examples=200, deadline=None)
def test_solve_positive_agrees_with_solve(values, target):
    instance = InputSet(tuple(values), target)
    general = solve(instance)
    fast = solve_positive(instance)
    assert general.found == fast.found
    if general.found:
        assert sum(general.subset) == sum(fast.subset) == target


@given(instances)
@settings(max_examples=150, deadline=None)
def test_probe_bounds_hold(instance):
    outcome = solve(instance)
    assert_probe_bounds(outcome.stats, len(instance.values))
