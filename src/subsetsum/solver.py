"""End-to-end solver: scale the input, then search each subset length.

For target t and offset d, a length-n subset of original values sums to t
exactly when its scaled counterpart sums to t + d*n, so every length gets
its own rescaled target and its own binary search over the length-n tree's
rank space. Lengths are searched in ascending order, so the first hit is a
minimum-cardinality solution; an explicit not-found outcome is returned
when every length misses. Each call builds fresh internal state, so solves
may run concurrently without coordination. The one state they share is
the masks every rule reads by position (subsetsum.powerset._PositionTable):
built once per process and never changed in place, only replaced by a
longer list, so each solve's rule keeps a list that covers its own tree.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

from .model import (
    IndexSubset,
    InputError,
    InputSet,
    ScaledSet,
    normalize,
    unscale,
)
from .powerset import _binheap_rule, _decode, _RunFrontier, lower_bound_rank_search
from .subset_tree import _subtree_rule


class OrderTrace(NamedTuple):
    """The record of one searched subset length.

    order is the subset length, or 0 for the single whole-powerset search
    made by solve_positive. ranks_probed lists every rank the binary search
    selected, in order, and nodes_expanded counts the tree nodes those
    selections expanded. A length whose target lies outside its reachable
    window is skipped: no ranks, no nodes, not found.
    """

    order: int
    scaled_target: int
    ranks_probed: tuple[int, ...]
    found: bool
    nodes_expanded: int


@dataclass(frozen=True)
class SearchStats:
    """Per-length search records of one solve call and its wall time; totals derive from them."""

    orders: tuple[OrderTrace, ...]
    elapsed_ns: int

    @property
    def orders_searched(self) -> int:
        return len(self.orders)

    @property
    def probes_per_order(self) -> list[int]:
        return [len(t.ranks_probed) for t in self.orders]

    @property
    def nodes_expanded(self) -> int:
        return sum(t.nodes_expanded for t in self.orders)


@dataclass(frozen=True)
class SolveOutcome:
    """The found subset in original values (ascending), or None, plus stats."""

    subset: tuple[int, ...] | None
    stats: SearchStats

    @property
    def found(self) -> bool:
        return self.subset is not None


def _rank_search(
    frontier: _RunFrontier, size: int, scaled: tuple[int, ...], order: int, scaled_target: int
) -> tuple[IndexSubset | None, OrderTrace]:
    """Binary-search ranks 1..size of the solver's own frontier for scaled_target; returns the match and the record.

    The frontier keeps one record per run and forgets the runs the search
    has passed. At a match it holds the code of the matching rank, the
    first node popped with the target's sum, which alone is decoded.
    """
    ranks: list[int] = []
    matched, _ = lower_bound_rank_search(frontier, size, scaled_target, ranks)
    found = None if matched is None else _decode(scaled, frontier.matched[0])
    return found, OrderTrace(order, scaled_target, tuple(ranks), found is not None, frontier.nodes_expanded)


def _outcome(
    input_set: InputSet,
    s: ScaledSet,
    found: IndexSubset | None,
    orders: list[OrderTrace],
    started: int,
) -> SolveOutcome:
    """Map a found subset back to original values and pack the records into stats.

    A found subset that misses the target is an internal fault; the check
    raises rather than asserts so that it also runs under python -O.
    """
    values = None
    if found is not None:
        values = unscale(found, s)
        if sum(values) != input_set.target:
            raise RuntimeError(
                f"internal fault: found subset {values} does not sum to the target {input_set.target}"
            )
    return SolveOutcome(values, SearchStats(tuple(orders), time.perf_counter_ns() - started))


def solve(input_set: InputSet, *, range_check: bool = True) -> SolveOutcome:
    """Find a minimum-cardinality subset of the input summing to the target.

    outcome.stats.orders holds one OrderTrace per searched length. Targets
    outside a length's reachable window, below the sum of its n smallest
    scaled values or above the sum of its n largest, are skipped without a
    search. The keyword-only range_check=False disables that shortcut and
    forces the full binary search on every length; decisions are unchanged
    and worst-case benchmarks use it to measure full probing cost. A
    range_check that is not a bool raises InputError.
    """
    started = time.perf_counter_ns()
    if type(range_check) is not bool:
        raise InputError(f"range_check must be a bool, got {range_check!r}")
    s = normalize(input_set)
    scaled, size = s.scaled_values, s.size
    children = _subtree_rule(scaled)
    orders: list[OrderTrace] = []
    found = None
    low = high = 0  # the sums of the order smallest and of the order largest scaled values
    for order in range(1, size + 1):
        low += scaled[order - 1]
        high += scaled[-order]
        scaled_target = input_set.target + s.offset * order
        if range_check and not low <= scaled_target <= high:
            orders.append(OrderTrace(order, scaled_target, (), False, 0))
            continue
        root = (1 << order) - 1  # the mask of the order smallest values
        total = math.comb(size, order)
        frontier = _RunFrontier(root, low, children, total, high, scaled_target)
        found, record = _rank_search(frontier, total, scaled, order, scaled_target)
        orders.append(record)
        if found is not None:
            break
    return _outcome(input_set, s, found, orders, started)


def solve_positive(input_set: InputSet) -> SolveOutcome:
    """Solve a strictly positive instance with a single whole-powerset search.

    This is the paper's baseline: with no offset every subset length shares
    one sum ordering, so one binary search over the tree of all 2^N - 1
    nonempty subsets replaces the per-length searches. It is not a fast
    path. It cannot skip a length by the reachable window or stop at a
    small length, so it usually expands more nodes than solve; on positive
    N=16 inputs it expanded about six times as many. Decisions and solution
    sums agree with solve on any strictly positive input, but the subset
    found need not have minimum cardinality. stats.orders holds the search
    as one record of order 0.
    """
    started = time.perf_counter_ns()
    s = normalize(input_set)
    if s.sorted_values[0] <= 0:
        raise InputError("solve_positive needs strictly positive values; use solve instead")
    scaled, total = s.scaled_values, (1 << s.size) - 1
    frontier = _RunFrontier(1, scaled[0], _binheap_rule(scaled), total, sum(scaled), input_set.target)
    found, record = _rank_search(frontier, total, scaled, 0, input_set.target)
    return _outcome(input_set, s, found, [record], started)
