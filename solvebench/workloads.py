"""Seeded instance pools for the solve benchmark.

This module never imports the package under test: it yields plain
``(values, target)`` tuples, so the inputs depend only on the seed and the
constants below. The reasons for each workload's shape are in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    value_range: tuple[int, int]
    call: str
    exhaustive: bool
    exact_min_cardinality: bool


EXHAUSTIVE = Workload("exhaustive", 16, (-50, 50), "solve_unreachable", True, True)
PLANTED = Workload("planted", 20, (-50, 50), "solve", False, True)
# solve_positive promises decisions and sums, not minimum cardinality.
POSITIVE = Workload("positive", 16, (1, 1000), "solve_positive", False, False)
WORKLOADS = {w.name: w for w in (EXHAUSTIVE, PLANTED, POSITIVE)}

# Every exhaustive solve does the same work, so a few instances suffice and
# each is timed in many passes.
EXHAUSTIVE_INSTANCES = 4
# Planted sizes for the positive pool. A target at most the median subset sum
# costs exactly 2^(N-1) nodes and a larger one up to 2^N - 1. Sizes up to 6
# of 16 stay below the median sum on nearly every draw, while k = 7 or 8 lands
# above it on about a third. Eight of the twelve sizes are at most 6, so the
# median solve falls inside the lower mode instead of on the edge between the
# two.
POSITIVE_KS = (1, 2, 3, 3, 4, 4, 5, 6, 8, 12, 14, 16)
# Each size is drawn this many times. The per-node cost of a lower-mode solve
# differs by about a tenth between instances, so a pool of 12 let the seed
# move the median by that much.
POSITIVE_DRAWS = 2
# Planted pools hold a fixed number of instances per minimum cardinality.
# Solve cost grows about fivefold per extra element, so a free mix would let
# a handful of rare high-cardinality draws decide every aggregate. Draws whose
# minimum cardinality exceeds the largest stratum are redrawn.
PLANTED_STRATA = {1: 150, 2: 700, 3: 250, 4: 60, 5: 25}


def _draw_values(rng: random.Random, w: Workload) -> tuple[int, ...]:
    lo, hi = w.value_range
    while True:
        values = tuple(rng.randint(lo, hi) for _ in range(w.size))
        if any(values):
            return values


def _planted_target(rng: random.Random, values: tuple[int, ...], k: int) -> int:
    return sum(rng.sample(values, k))


def min_cardinality(values: tuple[int, ...], target: int, cap: int) -> int | None:
    """Smallest number of values summing to target, or None if it exceeds cap.

    Bitset dynamic program over sums per cardinality; only used to sort
    planted draws into strata, independently of the package.
    """
    offset = cap * max(abs(v) for v in values)
    if abs(target) > offset:
        return None
    reach = [1 << offset] + [0] * cap
    for v in values:
        for c in range(cap - 1, -1, -1):
            if reach[c]:
                reach[c + 1] |= reach[c] << v if v >= 0 else reach[c] >> -v
    for c in range(1, cap + 1):
        if reach[c] >> (target + offset) & 1:
            return c
    return None


def exhaustive_pool(seed: int) -> list[tuple[tuple[int, ...], int]]:
    """Targets one above the positive total: no subset reaches them."""
    rng = random.Random(seed)
    pool = []
    for _ in range(EXHAUSTIVE_INSTANCES):
        values = _draw_values(rng, EXHAUSTIVE)
        pool.append((values, sum(v for v in values if v > 0) + 1))
    return pool


def planted_pool(seed: int) -> list[tuple[tuple[int, ...], int]]:
    """Targets are sums of k sampled values, k uniform in [1, N], filled per stratum."""
    rng = random.Random(seed)
    cap = max(PLANTED_STRATA)
    left = dict(PLANTED_STRATA)
    pool = []
    while any(left.values()):
        values = _draw_values(rng, PLANTED)
        target = _planted_target(rng, values, rng.randint(1, PLANTED.size))
        stratum = min_cardinality(values, target, cap)
        if stratum is not None and left[stratum]:
            left[stratum] -= 1
            pool.append((values, target))
    return pool


def positive_pool(seed: int) -> list[tuple[tuple[int, ...], int]]:
    """Targets are sums of k sampled values, each k of POSITIVE_KS POSITIVE_DRAWS times."""
    rng = random.Random(seed)
    pool = []
    for k in POSITIVE_KS * POSITIVE_DRAWS:
        values = _draw_values(rng, POSITIVE)
        pool.append((values, _planted_target(rng, values, k)))
    return pool


POOLS = {"exhaustive": exhaustive_pool, "planted": planted_pool, "positive": positive_pool}
