"""Exact subset sum solving via lazy heap-ordered subset enumeration.

The solver shifts mixed-sign inputs into a strictly positive scaled set,
enumerates fixed-length subsets lazily in nondecreasing sum order, and
binary-searches each length's rank space for the rescaled target. Oracles
(a dynamic-programming decision table and brute-force enumeration) provide
independent cross-checks.
"""

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
from .oracle import brute_force_solve, dp_decision, enumerate_sorted_sums
from .powerset import (
    Frontier,
    binheap_frontier,
    lower_bound_rank_search,
)
from .solver import (
    OrderTrace,
    SearchStats,
    SolveOutcome,
    solve,
    solve_positive,
)
from .subset_tree import (
    SubsetTree,
    subtree_children,
    subtree_frontier,
    subtree_root,
)

__all__ = [
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
]
