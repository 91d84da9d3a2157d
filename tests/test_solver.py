import math
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subsetsum import (
    I64_MAX,
    I64_MIN,
    InputError,
    InputSet,
    SubsetTree,
    binheap_frontier,
    brute_force_solve,
    dp_decision,
    normalize,
    solve,
    solve_positive,
    subtree_frontier,
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
        outcome = solve(InputSet((-7, -3, -2, 5, 8), 0))
        traces = outcome.stats.orders
        assert traces[2].order == 3 and traces[2].scaled_target == 24 and traces[2].found
        assert outcome.subset == (-3, -2, 5)  # sorted indices (1, 2, 3)
        assert outcome.stats.probes_per_order[2] >= 1

    def test_miss_at_order_one(self):
        traces = solve(InputSet((-7, -3, -2, 5, 8), 0)).stats.orders
        assert (traces[0].order, traces[0].scaled_target, traces[0].found) == (1, 8, False)

    def test_miss_at_order_two(self):
        traces = solve(InputSet((-7, -3, -2, 5, 8), 0)).stats.orders
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
        traces = solve(InputSet((-7, -3, -2, 5, 8), 0)).stats.orders
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
        assert [(r.ranks_probed, r.found, r.nodes_expanded) for r in outcome.stats.orders] == [((), False, 0)] * 3

    def test_range_check_off_still_agrees(self):
        instance = InputSet((2, 5, 7), 100)
        outcome = solve(instance, range_check=False)
        assert not outcome.found
        assert outcome.stats.nodes_expanded == 2**3 - 1

    @pytest.mark.parametrize("range_check", [True, False])
    def test_scaled_target_past_i64_max_not_found(self, range_check):
        # Scaled target 2**62 + (2**62 + 1) passes 2**63 - 1; the one subset sums to 1.
        assert not solve(InputSet((-(2**62),), 2**62), range_check=range_check).found

    def test_positive_sums_past_i64_max(self):
        # Every subset of three or four values sums past 2**63 - 1.
        instance = InputSet((2**62, 2**62 - 1, 2**62 + 1, 3), 2**63 - 1)
        outcome = solve_positive(instance)
        assert outcome.found
        assert sum(outcome.subset) == instance.target

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
        assert stats.probes_per_order == [len(r.ranks_probed) for r in stats.orders]
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
        traces = solve_positive(InputSet((2, 5, 7), 9)).stats.orders
        assert len(traces) == 1
        assert traces[0].order == 0
        assert traces[0].found


class TestSearchRecords:
    """Each OrderTrace is the whole record of one length; the stats totals derive from it."""

    @staticmethod
    def replayed_nodes(frontier, ranks):
        for rank in ranks:
            frontier.select(rank)
        return frontier.nodes_expanded

    def test_nodes_expanded_replays_from_probed_ranks(self):
        rng = random.Random(5)
        for _ in range(50):
            values = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 9)))
            instance = InputSet(values, rng.randint(-40, 40))
            s = normalize(instance)
            outcome = solve(instance, range_check=False)
            for record in outcome.stats.orders:
                tree = SubsetTree(s, record.order)
                assert self.replayed_nodes(subtree_frontier(tree), record.ranks_probed) == record.nodes_expanded
            assert outcome.stats.nodes_expanded == sum(r.nodes_expanded for r in outcome.stats.orders)

    def test_powerset_record_replays_from_probed_ranks(self):
        instance = InputSet((3, 1, 4, 1, 5, 9, 2, 6), 17)
        (record,) = solve_positive(instance).stats.orders
        assert self.replayed_nodes(binheap_frontier(normalize(instance)), record.ranks_probed) == record.nodes_expanded

    @pytest.mark.parametrize("call", [solve, solve_positive])
    def test_second_positional_argument_is_refused(self, call):
        # The records are read from stats.orders; range_check is keyword-only,
        # so an out-list passed positionally cannot switch the window off.
        with pytest.raises(TypeError):
            call(InputSet((2, 5, 7, 11), 18), [])


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


I64_EDGES = (I64_MIN, I64_MIN + 1, -(2**62), -(2**60), -1, 0, 1, 2**60, 2**62, I64_MAX - 1, I64_MAX)


@st.composite
def differential_instances(draw):
    """N <= 12 sets: duplicate-heavy with zeros, all-negative, or mixed with i64-edge values."""
    shape = draw(st.sampled_from(("duplicates", "negative", "edges")))
    if shape == "duplicates":
        element = st.sampled_from(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)))
    elif shape == "negative":
        element = st.integers(-30, -1)
    else:
        element = st.one_of(st.integers(-20, 20), st.sampled_from(I64_EDGES))
    values = draw(st.lists(element, min_size=1, max_size=12))
    target = draw(
        st.one_of(
            st.lists(st.sampled_from(values), min_size=1, max_size=len(values)).map(sum),
            st.integers(-60, 60),
            st.sampled_from(I64_EDGES),
        )
    )
    assume(I64_MIN <= target <= I64_MAX)
    return InputSet(tuple(values), target)


@given(differential_instances())
@settings(max_examples=250, deadline=None)
def test_solve_matches_brute_force(instance):
    """Decision, sum and exact minimum cardinality, with the reachable window on and off."""
    reference = brute_force_solve(instance)
    for range_check in (True, False):
        outcome = solve(instance, range_check=range_check)
        assert outcome.found == (reference is not None)
        if outcome.found:
            assert sum(outcome.subset) == instance.target
            assert len(outcome.subset) == len(reference)
            counts = Counter(instance.values)
            counts.subtract(outcome.subset)
            assert all(v >= 0 for v in counts.values())


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
