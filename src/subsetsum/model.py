"""Input normalization and the shared subset representation.

Every search structure in this package operates on a sorted, strictly
positive view of the input: all elements are shifted by a common
nonnegative offset chosen so the smallest scaled value is at least 1
(already-positive inputs keep offset 0 and are left untouched). Subsets
are stored as strictly increasing index tuples into the sorted sequence,
which keeps duplicate values distinct and makes "advance to the next
element" well defined. Input values and targets are 64-bit signed
integers, but scaled values and subset sums are Python ints and may
exceed 64 bits. An IndexSubset is also the public view of a node of
either heap-ordered tree: its indices are the whole node, since they fix
every position a node's children may advance.

All types here are immutable after construction and safe to share across
concurrent searches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1


class InputError(ValueError):
    """An argument violates the input contract.

    That covers an instance that is not an InputSet, given to normalize,
    solve, solve_positive, dp_decision or brute_force_solve; a set that is
    not a ScaledSet, given to SubsetTree, subtree_root, binheap_frontier,
    enumerate_sorted_sums, unscale or the internal binheap_root and
    binheap_children; a tree that is not a SubsetTree, given to
    subtree_children or subtree_frontier; a frontier with no callable
    select, given to lower_bound_rank_search; InputSet or ScaledSet values
    that are not a nonempty iterable of 64-bit signed integers, a target
    that is not one, a subset length that is not an int in [1, N], a rank
    that is not an int in [1, tree size], a rank-search total that is not
    an int of at least 1, a rank-search target that is not an int or rank
    log that is not a list, and a rank that one of the solver's own
    rank-search frontiers has forgotten (those frontiers are never handed
    out, see subsetsum.powerset._RunFrontier). In
    Frontier(root, expand) it covers a root that is not an IndexSubset
    with an int sum, an expand that is not callable or that returns
    anything but a list, and a child that is not an IndexSubset with an
    int sum or whose sum is below its parent's (a bool is not an int sum).
    It also covers a subset given to unscale, or a node given to
    subtree_children or binheap_children, that is not an IndexSubset whose
    indices are a tuple of ints increasing strictly within [0, N), and a
    node that is not one of its tree's: one whose length is not the tree's
    n, or an empty one in the power-set tree.
    """


class CapacityError(ValueError):
    """An oracle's input exceeds its fixed cap (DP_CELL_CAP, BRUTE_FORCE_MAX_SIZE or ENUMERATION_CAP)."""


@dataclass(frozen=True, slots=True)
class InputSet:
    """A problem instance: integer values (any order, duplicates allowed) and a target sum."""

    values: tuple[int, ...]
    target: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _i64_values(self.values, "input set"))
        if not _is_i64(self.target):
            raise InputError(f"target {self.target!r} is not a 64-bit signed integer")


def _check_length(n: object, size: int) -> None:
    """Refuse a subset length that is not an int in [1, size]; bool is not a length."""
    if not (type(n) is int and 1 <= n <= size):
        raise InputError(f"subset length must be an int in [1, {size}], got {n!r}")


def _is_i64(v: object) -> bool:
    """True for a 64-bit signed int; bool is an int subclass but not a number here."""
    return isinstance(v, int) and not isinstance(v, bool) and I64_MIN <= v <= I64_MAX


def _i64_values(values: object, what: str) -> tuple[int, ...]:
    """The values as a nonempty tuple of 64-bit signed ints; anything else raises InputError."""
    try:
        values = tuple(values)
    except TypeError:
        raise InputError(f"{what} values must be iterable, got {values!r}") from None
    if not values:
        raise InputError(f"{what} must contain at least one value")
    for v in values:
        if not _is_i64(v):
            raise InputError(f"value {v!r} is not a 64-bit signed integer")
    return values


@dataclass(frozen=True, slots=True, init=False)
class ScaledSet:
    """Values sorted ascending, plus the offset making every scaled value >= 1.

    ScaledSet(values) takes 64-bit signed ints in any order, duplicates
    allowed; anything else raises InputError. It sorts them and derives the
    offset, the smallest nonnegative shift that lifts the minimum to 1, so
    scaled_values[i] == sorted_values[i] + offset. A set containing zero or
    negative values is therefore shifted just far enough to become strictly
    positive, and an already-positive set keeps offset 0.
    """

    sorted_values: tuple[int, ...]
    offset: int
    scaled_values: tuple[int, ...] = field(repr=False, compare=False)

    def __init__(self, values: Iterable[int]) -> None:
        self._scale(_i64_values(values, "scaled set"))

    @classmethod
    def _of_checked(cls, values: tuple[int, ...]) -> ScaledSet:
        """ScaledSet(values) for values already checked, as an InputSet's are: it skips the 64-bit check."""
        s = cls.__new__(cls)
        s._scale(values)
        return s

    def _scale(self, values: tuple[int, ...]) -> None:
        values = tuple(sorted(values))
        offset = max(0, 1 - values[0])
        object.__setattr__(self, "sorted_values", values)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "scaled_values", tuple(v + offset for v in values))

    @property
    def size(self) -> int:
        return len(self.sorted_values)


class IndexSubset(NamedTuple):
    """A subset as strictly increasing indices into a scaled set, plus its scaled sum.

    A tree node is an IndexSubset itself: read its indices and cached_sum
    directly. In either tree the indices are the whole node: a node of the
    fixed-length tree advanced from its parent the first position of its
    top run of consecutive indices, and its children advance only that run.
    """

    indices: tuple[int, ...]
    cached_sum: int


def normalize(input_set: InputSet) -> ScaledSet:
    """The input's values as a ScaledSet: sorted and shifted strictly positive.

    Deterministic for a given input. Anything but an InputSet raises
    InputError, so its checks cannot be skipped; an InputSet has checked
    its values, so they are not checked again.
    """
    return ScaledSet._of_checked(_checked_values(input_set))


def _checked_values(input_set: object) -> tuple[int, ...]:
    """The values of an InputSet, whose construction checked them and its target; anything else raises InputError."""
    if not isinstance(input_set, InputSet):
        raise InputError(f"expected an InputSet, got {input_set!r}")
    return input_set.values


def _checked_scaled(s: object) -> ScaledSet:
    """s itself when it is a ScaledSet, which its construction checked; anything else raises InputError."""
    if not isinstance(s, ScaledSet):
        raise InputError(f"expected a ScaledSet, got {s!r}")
    return s


def unscale(subset: IndexSubset, s: ScaledSet) -> tuple[int, ...]:
    """Map an index subset back to its original values, ascending.

    An s that is not a ScaledSet, or anything but an IndexSubset whose
    indices are a tuple of ints increasing strictly within [0, N), raises
    InputError: a negative index would otherwise wrap to the end.
    """
    values = _checked_scaled(s).sorted_values
    return tuple(values[i] for i in _checked_indices(subset, len(values)))


def _checked_indices(subset: object, size: int) -> tuple[int, ...]:
    """The subset's indices; anything but an IndexSubset of ints rising strictly within [0, size) raises InputError."""
    if not (isinstance(subset, IndexSubset) and type(subset.indices) is tuple):
        raise InputError(f"expected an IndexSubset with a tuple of indices, got {subset!r}")
    indices = subset.indices
    last = -1
    for i in indices:
        if not (type(i) is int and last < i < size):
            raise InputError(f"indices {indices} are not ints increasing strictly within [0, {size})")
        last = i
    return indices
