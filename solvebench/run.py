"""Seeded, oracle-checked benchmark of subsetsum's exact solvers.

Run from the repository root:

    python3 solvebench/run.py --workload planted --seed 1 --seconds 25 --trace 0

The benchmark builds its instance pool from the seed (see workloads.py),
computes each instance's expected answer with the package's oracles,
warms up, then times whole passes of the workload's solve call over the pool
until --seconds have passed, checking every answer. Gated times are scaled
to a reference machine speed by a calibration loop timed between solves
(see calibration_loop). --trace 0 reports the
end-to-end metrics; --trace 1 reports per-layer metrics from a rebuilt,
traced solve loop (see layers.py). The last line of stdout is one JSON
object; the lines before it repeat every figure with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import os
import platform
import statistics
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter_ns as now

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "subsetsum" / "__init__.py").is_file():
    sys.exit(f"error: no subsetsum package under {SRC}")
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from subsetsum import InputSet, brute_force_solve, dp_decision, solve, solve_positive  # noqa: E402

SETUP_REPEATS = 3
SETUP_CALIBRATIONS = 15  # calibration loops timed on each side of a set-up
PEAK_SOLVES = 2  # tracemalloc pass: the solves that expanded the most nodes
REFERENCE_KS = (3, 8, 14)  # planted sizes of the positive instances in the traced reference stage
REPLAY_NODES = 1 << 16  # frontier replay covers pool instances up to this many nodes
CLI_INSTANCES = 50
CLI_REPEATS = 3
OUT = HERE / "out"

CALLS = {
    "solve": solve,
    "solve_unreachable": lambda inst: solve(inst, range_check=False),
    "solve_positive": solve_positive,
}

# The host's speed drifts by up to half over minutes, so a wall time alone
# does not repeat from run to run. Between every two solves the benchmark
# times calibration_loop(), a fixed loop of the kinds of work the solvers do.
# A solve's time is divided by the mean of the loop's times just before and
# just after it, and multiplied by CAL_REF_NS: the loop's time on the
# reference machine (2 vCPUs, Python 3.11.7) in a quiet spell, its 10th
# percentile over 2,000 runs. Gated times therefore read as that machine's
# times when quiet. README.md has the figures.
CAL_REF_NS = 400_000
CAL_ITEMS = 300
# After a long solve the loop runs more than once, one run per CAL_SPAN_NS of
# the solve, up to CAL_MAX_RUNS, and the median counts.
CAL_SPAN_NS = 10_000_000
CAL_MAX_RUNS = 9


class _CalNode:
    __slots__ = ("key", "items")

    def __init__(self, key: int, items: tuple) -> None:
        self.key = key
        self.items = items


def calibration_loop() -> int:
    """Fixed work: tuple-keyed heap pushes and pops, dict updates, slotted objects."""
    heap, memo = [], {}
    for i in range(CAL_ITEMS):
        key = i * 7919 % 1009
        heapq.heappush(heap, (key, i, _CalNode(key, (i, key))))
        memo[key, i & 7] = memo.get((key, 0), 0) + i
    total = 0
    while heap:
        total += heapq.heappop(heap)[2].items[1]
    return total


def calibration_ns(runs: int = 1) -> float:
    """Median time of runs calibration loops, each after a gc.collect()."""
    times = []
    for _ in range(runs):
        gc.collect()
        start = now()
        calibration_loop()
        times.append(now() - start)
    return statistics.median(times)


def scaled_ns(ns: float, before: float, after: float) -> float:
    """A time at the reference speed, from the calibration times around it."""
    return ns * 2 * CAL_REF_NS / (before + after)


END_TO_END_UNITS = {
    "solve_ms.p50": "ms",
    "solves_per_s": "1/s",
    "ns_per_node": "ns",
    "nodes_per_solve": "count",
    "peak_kib": "KiB",
    "setup_s": "s",
}
# Printed with their units but left out of the JSON result: solve_ms.p90
# covers only 4 and 24 instances on exhaustive and positive, failed_share is
# 0 whenever the result is correct, and the wall.* figures are the unscaled
# times, which drift with the host (README.md has the numbers).
REPORTED_ONLY_UNITS = {
    "solve_ms.p90": "ms",
    "failed_share": "share",
    "wall.solve_ms.p50": "ms",
    "wall.solves_per_s": "1/s",
    "wall.ns_per_node": "ns",
    "wall.setup_s": "s",
    "calibration_ms.p50": "ms",
}
PER_LAYER_UNITS = {
    "subset_tree.children_ns_per_node": "ns",
    "subset_tree.children_per_node": "count",
    "subset_tree.build_ns_per_order": "ns",
    "powerset.frontier_ns_per_node": "ns",
    "powerset.binheap_children_ns_per_node": "ns",
    "powerset.frontier_peak": "count",
    "powerset.probes_per_solve": "count",
    "powerset.rank_search_self_ns_per_probe": "ns",
    "powerset.rank_useful_share": "share",
    "solver.orders_per_solve": "count",
    "solver.window_skip_share": "share",
    "solver.self_ns_per_solve": "ns",
    "solver.solve_on_positive_ms.p50": "ms",
    "model.normalize_ns": "ns",
    "model.unscale_ns": "ns",
    "cli.parse_ns_per_line": "ns",
    "cli.overhead_ns_per_instance": "ns",
    "oracle.dp_ns_per_instance": "ns",
    "trace.overhead_ratio": "ratio",
}


def build_pool(workload: str, seed: int) -> list[InputSet]:
    return [InputSet(values, target) for values, target in workloads.POOLS[workload](seed)]


def expectations(pool: list[InputSet]) -> list[tuple[bool, int | None]]:
    """Oracle answers: the decision and the minimum cardinality (None if unsolvable)."""
    out = []
    for inst in pool:
        decision = dp_decision(inst)
        best = brute_force_solve(inst)
        if decision != (best is not None):
            raise RuntimeError(f"oracles disagree on {inst}")
        out.append((decision, len(best) if best is not None else None))
    return out


def setup(w: workloads.Workload, seed: int):
    """Pool, oracle answers and one untimed warm-up solve; returns them with the time taken."""
    start = now()
    pool = build_pool(w.name, seed)
    expected = expectations(pool)
    CALLS[w.call](pool[0])
    return pool, expected, now() - start


def check(w: workloads.Workload, inst: InputSet, expected, outcome) -> str | None:
    """Why an outcome is wrong, or None when it meets the call's contract."""
    decision, min_card = expected
    if outcome.found != decision:
        return f"decision {outcome.found}, oracle {decision}"
    if outcome.found:
        subset = outcome.subset
        if sum(subset) != inst.target:
            return f"subset {subset} sums to {sum(subset)}, not {inst.target}"
        if Counter(subset) - Counter(inst.values):
            return f"subset {subset} is not drawn from the values"
        if len(subset) < min_card or (w.exact_min_cardinality and len(subset) != min_card):
            return f"subset {subset} has {len(subset)} values, minimum is {min_card}"
    if w.exhaustive and outcome.stats.nodes_expanded != (1 << w.size) - 1:
        return f"expanded {outcome.stats.nodes_expanded} nodes, not 2^{w.size} - 1"
    return None


def behaviour(outcome) -> tuple:
    stats = outcome.stats
    return (outcome.subset, stats.nodes_expanded, tuple(stats.probes_per_order))


class Tally:
    """Solve times per instance and failures of one timed pass loop."""

    def __init__(self) -> None:
        self.times: dict[int, list[int]] = {}
        self.solves = 0
        self.attempted = 0
        self.failures: dict[int, str] = {}

    def fail(self, reason: str, attempt: int | None = None) -> None:
        """Record a failure against an attempt, by default a new one."""
        if attempt is None:
            self.attempted += 1
            attempt = self.attempted
        self.failures.setdefault(attempt, reason)


def timed_solve(w, pool, expected, index, tally: Tally, first: dict):
    """One checked, timed solve; returns the outcome or None if it raised.

    first holds each instance's behaviour from its first solve, so a later
    pass that behaves differently counts as a failure.
    """
    call, inst = CALLS[w.call], pool[index]
    gc.collect()
    tally.attempted += 1
    start = now()
    try:
        outcome = call(inst)
    except Exception as exc:  # a raising solve is a counted failure, never a crash
        tally.fail(f"instance {index} raised {exc!r}", tally.attempted)
        return None
    elapsed = now() - start
    tally.times.setdefault(index, []).append(elapsed)
    tally.solves += 1
    reason = check(w, inst, expected[index], outcome)
    if reason is None and first.setdefault(index, behaviour(outcome)) != behaviour(outcome):
        reason = "behaviour differs from the first pass"
    if reason:
        tally.fail(f"instance {index}: {reason}", tally.attempted)
    return outcome


def digest(first: dict) -> str:
    """Hash of every instance's (subset, nodes_expanded, probes_per_order), in pool order."""
    return hashlib.sha256(repr(sorted(first.items())).encode()).hexdigest()[:16]


def peak_kib(w, pool, first) -> float:
    """Largest tracemalloc peak over the solves that expanded the most nodes, in its own pass."""
    ranked = sorted(first, key=lambda i: (-first[i][1], i))[:PEAK_SOLVES]
    peak = 0
    for i in ranked:
        gc.collect()
        tracemalloc.start()
        try:
            CALLS[w.call](pool[i])
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 1024


def end_to_end(w, pool, expected, seconds: float, setup_ns: list[int], setup_scaled: list[float]):
    tally, first = Tally(), {}
    scaled: dict[int, list[float]] = {}
    calibrations = []
    passes, start = 0, now()
    while passes == 0 or now() - start < seconds * 1e9:
        before = calibration_ns()
        calibrations.append(before)
        for i in range(len(pool)):
            outcome = timed_solve(w, pool, expected, i, tally, first)
            elapsed = tally.times[i][-1] if outcome is not None else 0
            after = calibration_ns(min(CAL_MAX_RUNS, 1 + elapsed // CAL_SPAN_NS))
            calibrations.append(after)
            if outcome is not None:
                scaled.setdefault(i, []).append(scaled_ns(elapsed, before, after))
            before = after
        passes += 1
    notes = {"passes": passes, "solves": tally.solves, "digest": digest(first)}
    if len(first) < 2:
        return {}, tally, notes
    # Each instance counts once, at the median of its solves over the passes.
    order = sorted(first)
    ref = [statistics.median(scaled[i]) for i in order]
    wall = [statistics.median(tally.times[i]) for i in order]
    nodes = [first[i][1] for i in order]
    metrics = {
        "solve_ms.p50": statistics.median(ref) / 1e6,
        "solve_ms.p90": statistics.quantiles(ref, n=10)[-1] / 1e6,
        "solves_per_s": len(ref) / (sum(ref) / 1e9),
        "ns_per_node": sum(ref) / sum(nodes),
        "nodes_per_solve": sum(nodes) / len(nodes),
        "peak_kib": peak_kib(w, pool, first),
        "setup_s": statistics.median(setup_scaled) / 1e9,
        "wall.solve_ms.p50": statistics.median(wall) / 1e6,
        "wall.solves_per_s": len(wall) / (sum(wall) / 1e9),
        "wall.ns_per_node": sum(wall) / sum(nodes),
        "wall.setup_s": statistics.median(setup_ns) / 1e9,
        "calibration_ms.p50": statistics.median(calibrations) / 1e6,
    }
    if not w.exact_min_cardinality:
        above = sum(1 for i, b in first.items() if b[0] is not None and len(b[0]) > expected[i][1])
        notes["above_min_cardinality_share"] = above / len(pool)
    return metrics, tally, notes


def traced(w, pool, expected, seed: int, seconds: float):
    """Per-layer run: untraced and traced solves alternate over the pool until --seconds pass."""
    import layers  # only here: the end-to-end pass loads no layer module by name

    modules, absent = layers.load_layers()
    metrics = dict.fromkeys(PER_LAYER_UNITS)
    tally, first = Tally(), {}
    notes = {"absent_layers": absent}
    if {"model", "subset_tree", "powerset"} - modules.keys():
        return metrics, tally, notes

    # Stage A: the workload's own solves, each untraced then traced.
    main = layers.Spans()
    replica = layers.Replica(modules, main)
    untraced_ns = traced_ns = passes = 0
    start = now()
    while passes == 0 or now() - start < seconds * 1e9:
        spans_before = len(main.rows)
        for i in range(len(pool)):
            outcome = timed_solve(w, pool, expected, i, tally, first)
            if outcome is None:
                continue
            untraced_ns += tally.times[i][-1]
            gc.collect()
            t0 = now()
            rebuilt = replica.run(w.call, i, pool[i])
            traced_ns += now() - t0
            if not replica.matches(rebuilt, outcome):
                tally.fail(f"instance {i}: replica {rebuilt} differs from {behaviour(outcome)}", tally.attempted)
        if passes == 0:
            first_pass_rows = len(main.rows) - spans_before
        passes += 1
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns
    stage_s = {"A": (now() - start) / 1e9}

    # Stage B: a few positive instances under both entry points, so that
    # layers the workload never enters are still measured.
    start = now()
    ref = layers.Spans()
    ref_replica = layers.Replica(modules, ref)
    positive = build_pool("positive", seed)
    ref_pool = [positive[workloads.POSITIVE_KS.index(k)] for k in REFERENCE_KS]
    solve_ns = []
    for i, inst in enumerate(ref_pool):
        for call in ("solve", "solve_positive"):
            gc.collect()
            t0 = now()
            outcome = CALLS[call](inst)
            if call == "solve":
                solve_ns.append(now() - t0)
            gc.collect()
            if not ref_replica.matches(ref_replica.run(call, i, inst), outcome):
                tally.fail(f"reference replica of {call} differs on {inst}")
    metrics["solver.solve_on_positive_ms.p50"] = statistics.median(solve_ns) / 1e6
    metrics.update(layers.span_metrics(layers.span_totals(main), layers.span_totals(ref)))
    stage_s["B"] = (now() - start) / 1e9

    # Stage C: Frontier.select self time with expansion precomputed.
    start = now()
    replayer = layers.Replica(modules, layers.Spans(), replay=True)
    for i, inst in enumerate(pool):
        gc.collect()
        replayer.run(w.call, i, inst)
        if replayer.replay_nodes >= REPLAY_NODES:
            break
    metrics["powerset.frontier_ns_per_node"] = replayer.replay_ns / replayer.replay_nodes
    stage_s["C"] = (now() - start) / 1e9

    # Stage D: the CLI and the decision oracle, off the timed path.
    start = now()
    if "cli" in modules:
        metrics.update(cli_metrics(modules["cli"], seed, w.name, tally))
    if "oracle" in modules:
        t0 = now()
        for inst in pool:
            modules["oracle"].dp_decision(inst)
        metrics["oracle.dp_ns_per_instance"] = (now() - t0) / len(pool)
    stage_s["D"] = (now() - start) / 1e9

    OUT.mkdir(exist_ok=True)
    main.rows = main.rows[:first_pass_rows]
    main.write(OUT / f"spans-{w.name}-{seed}.jsonl", dict(environment(seed), workload=w.name))
    notes.update(passes=passes, solves=tally.solves, digest=digest(first),
                 stage_s=",".join(f"{k}:{v:.1f}" for k, v in stage_s.items()))
    return metrics, tally, notes


def cli_metrics(cli, seed: int, name: str, tally: Tally) -> dict:
    """In-process `solve --file --json` over the first planted instances, minus solve time."""
    lines = [
        " ".join(map(str, values)) + f" ; {target}"
        for values, target in workloads.planted_pool(seed)[:CLI_INSTANCES]
    ]
    t0 = now()
    for line in lines:
        cli.parse_instance_line(line)
    parse_ns = (now() - t0) / len(lines)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"cli-{name}-{seed}.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    overheads = []
    for _ in range(CLI_REPEATS):
        buffer = io.StringIO()
        gc.collect()
        t0 = now()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["solve", "--file", str(path), "--json"])
        wall = now() - t0
        results = [json.loads(line) for line in buffer.getvalue().splitlines()]
        if code != 0 or len(results) != len(lines) or not all(r["found"] for r in results):
            tally.fail(f"cli solve exited {code} with {len(results)} results")
            return {}
        overheads.append((wall - sum(r["elapsed_ns"] for r in results)) / len(lines))
    return {"cli.parse_ns_per_line": parse_ns, "cli.overhead_ns_per_instance": statistics.median(overheads)}


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "seed": seed}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    setup_ns, setup_scaled = [], []
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        before = calibration_ns(SETUP_CALIBRATIONS)
        pool, expected, ns = setup(w, args.seed)
        setup_ns.append(ns)
        setup_scaled.append(scaled_ns(ns, before, calibration_ns(SETUP_CALIBRATIONS)))
    # Setup objects move to the permanent generation, so the gc.collect()
    # before each solve only scans what the solves allocate.
    gc.collect()
    gc.freeze()

    if args.trace:
        metrics, tally, notes = traced(w, pool, expected, args.seed, args.seconds)
        units = PER_LAYER_UNITS
    else:
        metrics, tally, notes = end_to_end(w, pool, expected, args.seconds, setup_ns, setup_scaled)
        units = END_TO_END_UNITS

    failed = len(tally.failures)
    metrics["failed_share"] = failed / max(tally.attempted, 1)
    header = dict(environment(args.seed), workload=w.name, trace=args.trace, instances=len(pool), **notes)
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    shown = {**units, **REPORTED_ONLY_UNITS}
    for name, value in metrics.items():
        print(f"{name} = {'absent' if value is None else value} {shown[name]}")
    for failure in tally.failures.values():
        print(f"FAIL {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if metrics.get(name) is not None
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
