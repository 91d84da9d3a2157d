"""Tests of the benchmark's own instance generation and replica guard.

Run from the repository root: python3 -m pytest solvebench
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from subsetsum import InputSet, brute_force_solve, solve  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.POOLS))
def test_pool_is_a_function_of_the_seed(name):
    make = workloads.POOLS[name]
    assert make(5) == make(5)
    assert make(5) != make(6)


def test_pools_do_not_import_the_package():
    code = (
        "import sys, workloads\n"
        "for make in workloads.POOLS.values(): make(3)\n"
        "assert not [m for m in sys.modules if m.startswith('subsetsum')]\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True, timeout=60)


def test_planted_pool_fills_every_stratum():
    pool = workloads.planted_pool(7)
    cards = Counter(len(brute_force_solve(InputSet(v, t))) for v, t in pool)
    assert cards == Counter(workloads.PLANTED_STRATA)


def test_min_cardinality_matches_brute_force():
    rng = random.Random(0)
    for _ in range(300):
        values = tuple(rng.randint(-9, 9) or 1 for _ in range(rng.randint(1, 9)))
        target = rng.randint(-30, 30)
        best = brute_force_solve(InputSet(values, target))
        expected = len(best) if best is not None and len(best) <= 4 else None
        assert workloads.min_cardinality(values, target, 4) == expected


def _first_instances(name: str, seed: int) -> list[InputSet]:
    count = 20 if name == "planted" else 2
    return [InputSet(v, t) for v, t in workloads.POOLS[name](seed)[:count]]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_replica_reproduces_the_entry_point(name, seed):
    modules, absent = layers.load_layers()
    assert not absent
    call = workloads.WORKLOADS[name].call
    replica = layers.Replica(modules, layers.Spans())
    for i, inst in enumerate(_first_instances(name, seed)):
        assert layers.Replica.matches(replica.run(call, i, inst), run.CALLS[call](inst))


def test_replica_guard_rejects_any_difference():
    inst = InputSet((-7, -3, -2, 5, 8), 0)
    outcome = solve(inst)
    modules, _ = layers.load_layers()
    rebuilt = layers.Replica(modules, layers.Spans()).solve(0, inst)
    assert layers.Replica.matches(rebuilt, outcome)
    values, nodes, probes = rebuilt
    for wrong in ((None, nodes, probes), (values, nodes + 1, probes), (values, nodes, probes + [0])):
        assert not layers.Replica.matches(wrong, outcome)
    other = dataclasses.replace(outcome, subset=(-7, 7))
    assert not layers.Replica.matches(rebuilt, other)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_carries_every_listed_metric(trace, section):
    args = ["--workload", "exhaustive", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    out = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                         capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[section]}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_scaling_is_the_identity_at_the_reference_speed():
    assert run.scaled_ns(1000, run.CAL_REF_NS, run.CAL_REF_NS) == 1000
    assert run.scaled_ns(1000, run.CAL_REF_NS, 3 * run.CAL_REF_NS) == 500
