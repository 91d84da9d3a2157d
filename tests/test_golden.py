"""Golden behaviour hashes over fixed seeded mixes of solves.

Every returned subset, node count, per-length probe count and probed rank
depends on the frontier's pop order, tie order included. Hashing them over a
fixed mix of instances pins that behaviour, so a hot-path change that shifts
which of two equal-sum subsets is found first, or how many nodes a search
expands, fails here even when every decision stays correct. The small mix
keeps every heap small; the N=14 mix pins sift paths on frontiers of
thousands of entries.

The solver runs on integer-coded frontiers only. The IndexSubset views of
both trees, their per-call decode and the Frontier(root, expand) adapter
serve subsetsum.checks, the tests and the benchmark's layer replica, and
the fence test pins that no solve reaches them.
"""

import hashlib
import random

import pytest

import subsetsum
from subsetsum import (
    Frontier,
    InputSet,
    checks,
    cli,
    model,
    oracle,
    powerset,
    solve,
    solve_positive,
    solver,
    subset_tree,
)

# sha256 of _behaviour() over each mix. Change them only with a deliberate
# change of behaviour, and record the reason in CHANGES.md.
GOLDEN = "2855f9ed15213eae0bb1574907987df63e9181485d57a6428262743d1c48df5b"
GOLDEN_N14 = "2f6ecc81d025f9a15e47c031cb1d79595cfaa3226c5b75b699f417e8fb4eee44"
# sha256 of _probed_ranks() over the small mix: the 389 per-length records,
# every probed rank in probe order. Computed before the records became the
# only search state, from the trace list.
GOLDEN_RANKS = "0c2fa401a90e6fc278ffc463dae1f163c214063e142845d88beed0c65350135b"


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


def _large_instances():
    """Four N=14 solves whose frontiers peak at 196 to 2,818 pending nodes.

    Window off, over wide signed values and over heavily tied values 1..4
    whose target sits just under the sum of the 9 largest, so the shorter
    lengths are enumerated whole; then the power-set search over values
    1..1000 and over heavily tied values 1..30.
    """
    rng = random.Random(20261018)
    wide = [rng.randint(-10**6, 10**6) for _ in range(14)]
    yield 1, InputSet(tuple(wide), sum(rng.sample(wide, 7)))
    ties = [rng.randint(1, 4) for _ in range(14)]
    yield 1, InputSet(tuple(ties), sum(sorted(ties)[-9:]) - 1)
    for hi, k in ((1000, 7), (30, 9)):
        values = [rng.randint(1, hi) for _ in range(14)]
        yield 2, InputSet(tuple(values), sum(rng.sample(values, k)))


def _run(kind, inst):
    if kind == 2:
        return solve_positive(inst)
    return solve(inst, range_check=kind == 0)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _behaviour(instances) -> str:
    lines = []
    for kind, inst in instances:
        outcome = _run(kind, inst)
        stats = outcome.stats
        lines.append(repr((kind, outcome.subset, stats.nodes_expanded, tuple(stats.probes_per_order))))
    return _digest(lines)


def _probed_ranks(instances) -> str:
    """Every record's (order, scaled_target, ranks_probed, found), read from stats.orders."""
    lines = []
    for kind, inst in instances:
        records = _run(kind, inst).stats.orders
        lines.extend(repr((t.order, t.scaled_target, t.ranks_probed, t.found)) for t in records)
    return _digest(lines)


def test_behaviour_matches_golden_hash():
    assert _behaviour(_instances()) == GOLDEN


def test_large_frontier_behaviour_matches_golden_hash():
    assert _behaviour(_large_instances()) == GOLDEN_N14


def test_probed_ranks_match_golden_hash():
    assert _probed_ranks(_instances()) == GOLDEN_RANKS


# The view layer: every name below must be bound in at least one module.
_VIEWS = ("subtree_root", "subtree_children", "binheap_root", "binheap_children", "_decoded_children")
_MODULES = (subsetsum, model, oracle, powerset, subset_tree, solver, checks, cli)


def _fence(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"the solver's path entered {name}")

    return refuse


def test_solver_path_never_enters_the_view_layer(monkeypatch):
    fenced = set()
    for module in _MODULES:
        for name in _VIEWS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, _fence(name))
                fenced.add(name)
    monkeypatch.setattr(Frontier, "__init__", _fence("Frontier.__init__"))
    assert fenced == set(_VIEWS)
    with pytest.raises(AssertionError, match="entered subtree_root"):
        checks.check_tree(subset_tree.SubsetTree(model.ScaledSet((1, 2, 3)), 2))

    assert _behaviour(_instances()) == GOLDEN
    assert _behaviour(_large_instances()) == GOLDEN_N14
    assert _probed_ranks(_instances()) == GOLDEN_RANKS
