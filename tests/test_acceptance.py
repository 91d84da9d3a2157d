"""Acceptance gate: every shipped criterion, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
The oracle sweep (criteria 3, 6, 7) and the worst-case benchmark runs
(criterion 8) are computed once per session and shared.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from subsetsum import (
    InputSet,
    ScaledSet,
    SubsetTree,
    binheap_frontier,
    brute_force_solve,
    dp_decision,
    enumerate_sorted_sums,
    normalize,
    solve,
    subtree_children,
    subtree_frontier,
    subtree_root,
)
from subsetsum.cli import main as cli_main

ORACLE_INSTANCES = 10_000
ORACLE_SEED = 20260808
BENCH_ARGS = ["bench", "--n", "6..14", "--target-mode", "unreachable", "--seed", "7"]


def report(criterion, detail):
    print(f"acceptance criterion {criterion}: PASS ({detail})")


def probe_bound_violations(stats, size):
    violations = []
    for order_index, probes in enumerate(stats.probes_per_order):
        bound = math.ceil(math.log2(math.comb(size, order_index + 1))) + 1
        if probes > bound:
            violations.append((order_index + 1, probes, bound))
    return violations


@pytest.fixture(scope="module")
def oracle_sweep():
    """Criterion-3 instance sweep, reused by criteria 6 and 7."""
    rng = random.Random(ORACLE_SEED)
    records = []
    started = time.monotonic()
    for _ in range(ORACLE_INSTANCES):
        size = rng.randint(1, 10)
        instance = InputSet(tuple(rng.randint(-15, 15) for _ in range(size)), rng.randint(-60, 60))
        records.append((instance, solve(instance), dp_decision(instance)))
    elapsed = time.monotonic() - started
    return records, elapsed


@pytest.fixture(scope="module")
def bench_runs():
    """Two identical worst-case benchmark invocations, timed."""
    runs = []
    for _ in range(2):
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "subsetsum", *BENCH_ARGS],
            capture_output=True,
            text=True,
        )
        elapsed = time.monotonic() - started
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, elapsed))
    return runs


def test_criterion_1_golden_trace(capsys):
    instance = InputSet((-7, -3, -2, 5, 8), 0)
    s = normalize(instance)
    assert s.offset == 8
    assert s.scaled_values == (1, 5, 6, 13, 16)

    solve(instance)  # warm call so the timing below measures the search, not imports
    outcome = solve(instance)
    traces = outcome.stats.orders
    assert outcome.subset == (-3, -2, 5)
    assert outcome.stats.orders_searched == 3
    assert [t.scaled_target for t in traces] == [8, 16, 24]
    assert [t.found for t in traces] == [False, False, True]
    assert not probe_bound_violations(outcome.stats, 5)
    assert outcome.stats.elapsed_ns < 1_000_000

    code = cli_main(["solve", "--set", "-7,-3,-2,5,8", "--target", "0", "--trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert "offset 8, scaled set {1, 5, 6, 13, 16}" in out
    lines = out.splitlines()
    assert any(l.startswith("order 1: scaled target 8,") and l.endswith("miss") for l in lines)
    assert any(l.startswith("order 2: scaled target 16,") and l.endswith("miss") for l in lines)
    assert any(l.startswith("order 3: scaled target 24,") and l.endswith("hit") for l in lines)
    assert lines[-1] == "FOUND: {-3, -2, 5}"
    report(1, f"found {outcome.subset} at order 3 in {outcome.stats.elapsed_ns} ns")


def test_criterion_2_intro_example():
    instance = InputSet((-8, -2, 5, 7, 9), 10)
    solve(instance)  # warm
    outcome = solve(instance)
    assert outcome.found
    assert sum(outcome.subset) == 10
    assert len(outcome.subset) == 3
    assert not probe_bound_violations(outcome.stats, 5)
    assert outcome.stats.elapsed_ns < 1_000_000
    report(2, f"found {outcome.subset} in {outcome.stats.elapsed_ns} ns")


def test_criterion_3_oracle_decision_equivalence(oracle_sweep):
    records, elapsed = oracle_sweep
    assert len(records) >= 10_000
    for instance, outcome, expected in records:
        assert outcome.found == expected, (instance.values, instance.target)
        if outcome.found:
            assert sum(outcome.subset) == instance.target
    assert elapsed < 60.0
    report(3, f"{len(records)} instances agreed with the DP oracle in {elapsed:.1f}s")


def test_criterion_4_subtree_completeness_and_heap_order():
    rng = random.Random(4)
    trees_checked = 0
    for size in range(1, 11):
        s = ScaledSet(tuple(sorted(rng.randint(1, 40) for _ in range(size))), 0)
        for n in range(1, size + 1):
            tree = SubsetTree(s, n)
            seen = set()
            visited = 0
            stack = [subtree_root(s, n)]
            # A faulty rule can revisit subtrees without end: stop one node past the tree's size.
            while stack and visited <= tree.total:
                node = stack.pop()
                visited += 1
                seen.add(node.indices)
                for child in subtree_children(node, tree):
                    assert child.cached_sum >= node.cached_sum
                    stack.append(child)
            assert visited == len(seen) == math.comb(size, n), (s.scaled_values, n)
            trees_checked += 1
    report(4, f"{trees_checked} trees complete with zero heap-order violations")


def test_criterion_5_selection_matches_enumeration():
    rng = random.Random(5)
    ranks_checked = 0
    for size in range(1, 11):
        s = ScaledSet(tuple(sorted(rng.randint(1, 40) for _ in range(size))), 0)
        for n in range(1, size + 1):
            tree = SubsetTree(s, n)
            expected = enumerate_sorted_sums(s, n)
            frontier = subtree_frontier(tree)
            got = [frontier.select(k).cached_sum for k in range(1, tree.total + 1)]
            assert got == expected, (s.scaled_values, n)
            ranks_checked += len(got)
    for size in range(1, 13):
        s = ScaledSet(tuple(sorted(rng.randint(1, 40) for _ in range(size))), 0)
        expected = enumerate_sorted_sums(s)
        frontier = binheap_frontier(s)
        got = [frontier.select(k).cached_sum for k in range(1, 2**size)]
        assert got == expected, s.scaled_values
        ranks_checked += len(got)
    report(5, f"{ranks_checked} ranks matched the enumeration oracle sum-for-sum")


def test_criterion_6_probe_bound(oracle_sweep):
    records, _ = oracle_sweep
    checked = 0
    for instance, outcome, _ in records:
        violations = probe_bound_violations(outcome.stats, len(instance.values))
        assert not violations, (instance.values, instance.target, violations)
        checked += len(outcome.stats.probes_per_order)
    for values, target in (((-7, -3, -2, 5, 8), 0), ((-8, -2, 5, 7, 9), 10)):
        outcome = solve(InputSet(values, target))
        assert not probe_bound_violations(outcome.stats, len(values))
        checked += len(outcome.stats.probes_per_order)
    report(6, f"{checked} per-length searches within ceil(log2(C(N,n))) + 1 probes")


def test_criterion_7_minimum_cardinality(oracle_sweep):
    records, _ = oracle_sweep
    compared = 0
    for instance, outcome, _ in records:
        if outcome.found:
            reference = brute_force_solve(instance)
            assert reference is not None
            assert len(outcome.subset) == len(reference), (instance.values, instance.target)
            compared += 1
    assert compared > 0
    report(7, f"{compared} found subsets matched the brute-force minimum cardinality")


def test_criterion_8_bench_worst_case_evidence(bench_runs):
    (first_out, first_elapsed), (second_out, second_elapsed) = bench_runs
    assert first_elapsed < 120.0 and second_elapsed < 120.0

    def rows_without_elapsed(text):
        return [line.rsplit(",", 1)[0] for line in text.strip().splitlines()]

    assert rows_without_elapsed(first_out) == rows_without_elapsed(second_out)

    header, *rows = first_out.strip().splitlines()
    assert header == "n,trial,target,found,orders,probes_total,nodes_expanded,elapsed_ns"
    expanded_by_n = {}
    for row in rows:
        n, _, _, found, orders, _, nodes_expanded, _ = row.split(",")
        assert found == "false"
        assert orders == n
        # full-range probing materializes every rank of every length's tree
        assert int(nodes_expanded) == 2 ** int(n) - 1
        expanded_by_n.setdefault(int(n), set()).add(int(nodes_expanded))
    sizes = sorted(expanded_by_n)
    assert sizes == list(range(6, 15))
    per_n = [expanded_by_n[n].pop() for n in sizes]
    assert per_n == sorted(per_n) and len(set(per_n)) == len(per_n)
    report(
        8,
        f"deterministic CSV in {first_elapsed:.1f}s/{second_elapsed:.1f}s, "
        f"nodes expanded grow {per_n[0]} -> {per_n[-1]} over N=6..14",
    )
