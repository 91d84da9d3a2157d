"""End-to-end solver: scale the input, then search each subset length.

For target t and offset d, a length-n subset of original values sums to t
exactly when its scaled counterpart sums to t + d*n, so every length gets
its own rescaled target and its own binary search over the length-n tree's
rank space. Lengths are searched in ascending order, so the first hit is a
minimum-cardinality solution; an explicit not-found outcome is returned
when every length misses. Each call builds fresh internal state, so solves
may run concurrently without coordination.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .model import (
    I64_MAX,
    I64_MIN,
    CapacityError,
    IndexSubset,
    InputError,
    InputSet,
    ScaledSet,
    normalize,
    unscale,
)
from .powerset import binheap_frontier, lower_bound_rank_search
from .subset_tree import SubsetTree, subtree_frontier


@dataclass
class SearchStats:
    """Instrumentation accumulated over one solve call."""

    orders_searched: int = 0
    probes_per_order: list[int] = field(default_factory=list)
    nodes_expanded: int = 0
    elapsed_ns: int = 0


class OrderTrace(NamedTuple):
    """One searched subset length: its rescaled target and the ranks probed.

    order is the subset length, or 0 for the single whole-powerset search
    made by solve_positive.
    """

    order: int
    scaled_target: int
    ranks_probed: tuple[int, ...]
    found: bool


@dataclass(frozen=True)
class SolveOutcome:
    """The found subset in original values (ascending), or None, plus stats."""

    subset: tuple[int, ...] | None
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.subset is not None


def _search_order(
    s: ScaledSet,
    n: int,
    scaled_target: int,
    rank_log: list[int] | None = None,
    range_check: bool = True,
) -> tuple[IndexSubset | None, int, int]:
    """Search one length; returns (subset or None, probes, nodes expanded).

    Targets outside the reachable window, below the sum of the n smallest
    scaled values or above the sum of the n largest, miss with zero probes.
    """
    if range_check:
        lowest = sum(s.scaled_values[:n])
        highest = sum(s.scaled_values[-n:])
        if not lowest <= scaled_target <= highest:
            return None, 0, 0
    tree = SubsetTree(s, n)
    frontier = subtree_frontier(tree)
    found, probes = lower_bound_rank_search(frontier, tree.total, scaled_target, rank_log)
    return found, probes, frontier.nodes_expanded


def _unscale_checked(found: IndexSubset, s: ScaledSet, target: int) -> tuple[int, ...]:
    """Map a found subset back to original values; a wrong sum is an internal fault.

    The check raises rather than asserts so that it also runs under python -O.
    """
    values = unscale(found, s)
    if sum(values) != target:
        raise RuntimeError(f"internal fault: found subset {values} does not sum to the target {target}")
    return values


def solve(
    input_set: InputSet,
    trace: list[OrderTrace] | None = None,
    range_check: bool = True,
) -> SolveOutcome:
    """Find a minimum-cardinality subset of the input summing to the target.

    Pass a list as trace to collect one OrderTrace per searched length.
    range_check=False disables the per-length reachable-window shortcut and
    forces the full binary search on every length; decisions are unchanged
    and worst-case benchmarks use it to measure full probing cost.
    """
    started = time.perf_counter_ns()
    s = normalize(input_set)
    stats = SearchStats()
    values: tuple[int, ...] | None = None
    for order in range(1, s.size + 1):
        scaled_target = input_set.target + s.offset * order
        if not I64_MIN <= scaled_target <= I64_MAX:
            raise CapacityError(
                f"scaled target {scaled_target} for length {order} exceeds the 64-bit signed range"
            )
        rank_log: list[int] | None = [] if trace is not None else None
        found, probes, expanded = _search_order(s, order, scaled_target, rank_log, range_check)
        stats.orders_searched += 1
        stats.probes_per_order.append(probes)
        stats.nodes_expanded += expanded
        if trace is not None:
            trace.append(OrderTrace(order, scaled_target, tuple(rank_log or ()), found is not None))
        if found is not None:
            values = _unscale_checked(found, s, input_set.target)
            break
    stats.elapsed_ns = time.perf_counter_ns() - started
    return SolveOutcome(values, stats)


def solve_positive(input_set: InputSet, trace: list[OrderTrace] | None = None) -> SolveOutcome:
    """Solve a strictly positive instance with a single whole-powerset search.

    This is the paper's baseline: with no offset every subset length shares
    one sum ordering, so one binary search over the tree of all 2^N - 1
    nonempty subsets replaces the per-length searches. It is not a fast
    path. It cannot skip a length by the reachable window or stop at a
    small length, so it usually expands more nodes than solve; on positive
    N=16 inputs it expanded about six times as many. Decisions and solution
    sums agree with solve on any strictly positive input, but the subset
    found need not have minimum cardinality. Stats record the search as one
    order.
    """
    if min(input_set.values) <= 0:
        raise InputError("solve_positive needs strictly positive values; use solve instead")
    started = time.perf_counter_ns()
    s = normalize(input_set)
    frontier = binheap_frontier(s)
    rank_log: list[int] | None = [] if trace is not None else None
    found, probes = lower_bound_rank_search(
        frontier, (1 << s.size) - 1, input_set.target, rank_log
    )
    if trace is not None:
        trace.append(OrderTrace(0, input_set.target, tuple(rank_log or ()), found is not None))
    values = _unscale_checked(found, s, input_set.target) if found is not None else None
    stats = SearchStats(
        orders_searched=1,
        probes_per_order=[probes],
        nodes_expanded=frontier.nodes_expanded,
        elapsed_ns=time.perf_counter_ns() - started,
    )
    return SolveOutcome(values, stats)
