"""Independent correctness references for the tree-based solver.

The decision table, the brute-force solver and the sum enumerator use
representations unrelated to the heap-ordered trees (a bitset dynamic
program and plain itertools enumeration, with no tree nodes), so
agreement between the two sides is meaningful evidence. They exist to
cross-check, never to be fast, and each raises CapacityError on inputs
beyond its fixed cap: DP_CELL_CAP cells per decision-table row,
BRUTE_FORCE_MAX_SIZE elements, ENUMERATION_CAP subsets.
"""

from __future__ import annotations

import math
from itertools import combinations

from .model import CapacityError, InputSet, ScaledSet, _check_length, _checked_values

DP_CELL_CAP = 10**7
BRUTE_FORCE_MAX_SIZE = 25
ENUMERATION_CAP = 10**6


def dp_decision(input_set: InputSet) -> bool:
    """Decide whether some nonempty subset sums to the target.

    Classic reachable-sums dynamic program over [neg_total, pos_total],
    extended to negative values by indexing sums from neg_total upward.
    Rows are kept as bitsets; a separate nonempty-subset bitset masks out
    the empty subset so a target of 0 is only reported when a nonempty
    subset actually sums to 0. Anything but an InputSet raises InputError.
    """
    values = _checked_values(input_set)
    neg_total = sum(v for v in values if v < 0)
    pos_total = sum(v for v in values if v > 0)
    span = pos_total - neg_total + 1
    if span > DP_CELL_CAP:
        raise CapacityError(f"decision table needs {span} cells per row, cap is {DP_CELL_CAP}")
    target = input_set.target
    if not neg_total <= target <= pos_total:
        return False
    mask = (1 << span) - 1
    reachable = 1 << -neg_total
    nonempty = 0
    for v in values:
        shifted = (reachable << v) & mask if v >= 0 else reachable >> -v
        nonempty |= shifted
        reachable |= shifted
    return bool((nonempty >> (target - neg_total)) & 1)


def brute_force_solve(input_set: InputSet) -> tuple[int, ...] | None:
    """Exhaustively find a subset summing to the target, or None.

    Subsets are tried by increasing cardinality, then lexicographic index
    order, so any returned subset has minimum cardinality. Values are
    returned ascending. Refuses sets larger than BRUTE_FORCE_MAX_SIZE
    elements with CapacityError, and anything but an InputSet with
    InputError.
    """
    values = _checked_values(input_set)
    if len(values) > BRUTE_FORCE_MAX_SIZE:
        raise CapacityError(f"brute force capped at {BRUTE_FORCE_MAX_SIZE} elements, got {len(values)}")
    target = input_set.target
    for size in range(1, len(values) + 1):
        for combo in combinations(range(len(values)), size):
            if sum(values[i] for i in combo) == target:
                return tuple(sorted(values[i] for i in combo))
    return None


def enumerate_sorted_sums(s: ScaledSet, n: int | None = None) -> list[int]:
    """The scaled sums of all length-n subsets (all nonempty ones when n is None), ascending.

    One entry per subset, so equal sums repeat. This is the reference that
    rank selection is tested against. A length that is not an int in
    [1, N] raises InputError; more than ENUMERATION_CAP subsets raise
    CapacityError.
    """
    size = s.size
    if n is not None:
        _check_length(n, size)
    total = math.comb(size, n) if n is not None else (1 << size) - 1
    if total > ENUMERATION_CAP:
        raise CapacityError(f"enumeration of {total} subsets exceeds cap {ENUMERATION_CAP}")
    lengths = (n,) if n is not None else range(1, size + 1)
    return sorted(sum(combo) for length in lengths for combo in combinations(s.scaled_values, length))
