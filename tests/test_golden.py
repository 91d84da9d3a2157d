"""Golden behaviour hash over a fixed seeded mix of solves.

Every returned subset, node count and per-length probe count depends on the
frontier's pop order, tie order included. Hashing them over a fixed mix of
instances pins that behaviour, so a hot-path change that shifts which of two
equal-sum subsets is found first, or how many nodes a search expands, fails
here even when every decision stays correct.
"""

import hashlib
import random

from subsetsum import InputSet, solve, solve_positive

# sha256 of _behaviour(). Change it only with a deliberate change of behaviour,
# and record the reason in CHANGES.md.
GOLDEN = "2855f9ed15213eae0bb1574907987df63e9181485d57a6428262743d1c48df5b"


def _instances():
    """(call, instance) pairs: window on, window off and the power-set search, N <= 12."""
    rng = random.Random(20260317)
    for i in range(240):
        kind = i % 3
        size = 1 + (i // 3) % 12
        if kind == 2:
            values = [rng.randint(1, 12) for _ in range(size)]
        else:
            values = [rng.randint(-9, 9) for _ in range(size)]
        if rng.random() < 0.7:
            target = sum(rng.sample(values, rng.randint(1, size)))
        else:
            target = rng.randint(min(0, sum(values)) - 3, max(0, sum(values)) + 3)
        if kind == 2:
            target = max(target, 0)
        yield kind, InputSet(tuple(values), target)


def _behaviour() -> str:
    lines = []
    for kind, inst in _instances():
        if kind == 0:
            outcome = solve(inst)
        elif kind == 1:
            outcome = solve(inst, range_check=False)
        else:
            outcome = solve_positive(inst)
        stats = outcome.stats
        lines.append(repr((kind, outcome.subset, stats.nodes_expanded, tuple(stats.probes_per_order))))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_behaviour_matches_golden_hash():
    assert _behaviour() == GOLDEN
