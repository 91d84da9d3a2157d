"""Command-line front end: solve instances, run benchmarks, run selftests.

Examples:
    subsetsum solve --set "-7,-3,-2,5,8" --target 0 --trace
    subsetsum solve --file instances.txt --json
    subsetsum bench --n 6..14 --trials 100 --seed 7 --target-mode unreachable
    subsetsum selftest --max-n 10 --instances 10000

Instance files hold one instance per line: the values (comma or space
separated), a semicolon, then the target, e.g. "-7,-3,-2,5,8 ; 0".

Exit codes: 0 found (or all selftests passed), 1 not found (or a selftest
failed), 2 usage, input, or capacity errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Iterable

from .checks import check_tree
from .model import (
    CapacityError,
    InputError,
    InputSet,
    OrderError,
    RankError,
    ScaledSet,
    normalize,
)
from .oracle import dp_decision
from .solver import OrderTrace, solve, solve_positive
from .subset_tree import SubsetTree

SELFTEST_VALUE_RANGE = (-15, 15)
SELFTEST_TARGET_RANGE = (-60, 60)


def _parse_int_tokens(text: str) -> list[int]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise InputError("no integers given")
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise InputError(f"not an integer: {tok!r}") from None
    return out


def parse_instance_line(line: str) -> InputSet:
    """Parse one instance line, "v1,v2 v3 ; target", into an InputSet."""
    head, sep, tail = line.partition(";")
    if not sep:
        raise InputError(f"missing ';' before the target in line {line.strip()!r}")
    values = _parse_int_tokens(head)
    tail = tail.strip()
    try:
        target = int(tail)
    except ValueError:
        raise InputError(f"target must be a single integer, got {tail!r}") from None
    return InputSet(tuple(values), target)


def _read_instance_file(path: str) -> list[InputSet]:
    """Parse every nonblank line of an instance file; errors name the file and line."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc.reason}") from None
    instances = []
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            try:
                instances.append(parse_instance_line(line))
            except InputError as exc:
                raise InputError(f"{path}, line {lineno}: {exc}") from None
    return instances


def _format_subset(values: Iterable[int]) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def _print_trace(instance: InputSet, orders: Iterable[OrderTrace], stream) -> None:
    s = normalize(instance)
    print(f"offset {s.offset}, scaled set {_format_subset(s.scaled_values)}", file=stream)
    for t in orders:
        label = f"order {t.order}" if t.order else "powerset"
        ranks = "[" + ", ".join(str(r) for r in t.ranks_probed) + "]"
        outcome = "hit" if t.found else "miss"
        print(f"{label}: scaled target {t.scaled_target}, ranks probed {ranks}, {outcome}", file=stream)


def cmd_solve(args: argparse.Namespace) -> int:
    if args.file is not None:
        if args.set is not None or args.target is not None:
            raise InputError("--file cannot be combined with --set/--target")
        instances = _read_instance_file(args.file)
        if not instances:
            raise InputError(f"no instances in {args.file}")
    else:
        if args.set is None or args.target is None:
            raise InputError("provide --set and --target together, or --file")
        instances = [InputSet(tuple(_parse_int_tokens(args.set)), args.target)]

    all_found = True
    for instance in instances:
        outcome = (solve_positive if args.positive_fast_path else solve)(instance)
        if args.trace:
            # Keep stdout a single JSON object in --json mode.
            _print_trace(instance, outcome.stats.orders, sys.stderr if args.json else sys.stdout)
        if args.json:
            payload = {
                "found": outcome.found,
                "subset": list(outcome.subset) if outcome.found else None,
                "orders_searched": outcome.stats.orders_searched,
                "probes_per_order": list(outcome.stats.probes_per_order),
                "nodes_expanded": outcome.stats.nodes_expanded,
                "elapsed_ns": outcome.stats.elapsed_ns,
            }
            print(json.dumps(payload))
        elif outcome.found:
            print(f"FOUND: {_format_subset(outcome.subset)}")
        else:
            print("NOT FOUND")
        all_found = all_found and outcome.found
    return 0 if all_found else 1


def _parse_sizes(text: str) -> list[int]:
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise InputError(f"--n must be an integer or lo..hi range, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise InputError(f"bad set-size range {text!r}")
    return list(range(lo, hi + 1))


def _parse_value_range(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition(":")
    try:
        if not sep:
            raise ValueError
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise InputError(f"--range must look like lo:hi, got {text!r}") from None
    if lo > hi:
        raise InputError(f"empty value range {text!r}")
    if lo == 0 and hi == 0:
        raise InputError("range 0:0 admits only the degenerate all-zero draw")
    return lo, hi


def cmd_bench(args: argparse.Namespace) -> int:
    """Emit one CSV row per random instance; everything except elapsed_ns is
    deterministic for a fixed seed.

    Values are drawn uniformly from [lo, hi], redrawing any all-zero set.
    In random mode the target is drawn uniformly from [n*lo, n*hi]; in
    unreachable mode it is the sum of the positive values plus one, which no
    subset can reach, so every length is searched to exhaustion (the
    reachable-window shortcut is disabled there so the full probing cost is
    what gets measured).
    """
    sizes = _parse_sizes(args.n)
    lo, hi = _parse_value_range(args.range)
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    rng = random.Random(args.seed)
    unreachable = args.target_mode == "unreachable"
    print("n,trial,target,found,orders,probes_total,nodes_expanded,elapsed_ns")
    for n in sizes:
        for trial in range(args.trials):
            while True:
                values = tuple(rng.randint(lo, hi) for _ in range(n))
                if any(values):
                    break
            if unreachable:
                target = sum(v for v in values if v > 0) + 1
            else:
                target = rng.randint(n * lo, n * hi)
            outcome = solve(InputSet(values, target), range_check=not unreachable)
            stats = outcome.stats
            print(
                f"{n},{trial},{target},{'true' if outcome.found else 'false'},"
                f"{stats.orders_searched},{sum(stats.probes_per_order)},"
                f"{stats.nodes_expanded},{stats.elapsed_ns}"
            )
    return 0


def _selftest_equivalence(rng: random.Random, max_n: int, instances: int) -> bool:
    lo, hi = SELFTEST_VALUE_RANGE
    t_lo, t_hi = SELFTEST_TARGET_RANGE
    for _ in range(instances):
        size = rng.randint(1, max_n)
        values = tuple(rng.randint(lo, hi) for _ in range(size))
        target = rng.randint(t_lo, t_hi)
        outcome = solve(InputSet(values, target))
        expected = dp_decision(InputSet(values, target))
        if outcome.found != expected:
            print(
                f"FAIL solver-vs-dp: values={list(values)} target={target} "
                f"solver={outcome.found} dp={expected}"
            )
            return False
    print(f"ok solver-vs-dp: {instances} random instances agree")
    return True


def _selftest_trees(rng: random.Random, max_n: int) -> list[bool]:
    """Walk the power-set tree and every subset tree of one random set per size.

    Each walk is checked for completeness and heap order at once. Prints one
    line for each of three suites, subset-tree completeness, powerset
    completeness and heap order: its first failure, or ok. Returns their
    pass flags in that order.
    """
    failures: dict[str, str] = {}
    for size in range(1, max_n + 1):
        s = ScaledSet(tuple(sorted(rng.randint(1, 40) for _ in range(size))), 0)
        where = f"set={list(s.scaled_values)}"
        trees = [("powerset", where, s)]
        trees += [("subset-tree", f"{where} n={n}", SubsetTree(s, n)) for n in range(1, size + 1)]
        for label, context, tree in trees:
            walk = check_tree(tree)
            if not walk.complete:
                failures.setdefault(
                    f"{label} completeness",
                    f"{label} completeness: {context} "
                    f"generated {walk.nodes} subsets ({walk.distinct} distinct) of {walk.total}",
                )
            if walk.inversion is not None:
                parent, child = walk.inversion
                failures.setdefault("heap order", f"{label} heap order: {context} parent={parent} child={child}")
    suites = {
        "subset-tree completeness": f"all lengths up to N={max_n}",
        "powerset completeness": f"all sets up to N={max_n}",
        "heap order": f"parent sums <= child sums up to N={max_n}",
    }
    for suite, summary in suites.items():
        print(f"FAIL {failures[suite]}" if suite in failures else f"ok {suite}: {summary}")
    return [suite not in failures for suite in suites]


def cmd_selftest(args: argparse.Namespace) -> int:
    """Check random solves against the DP oracle, then walk each small tree once."""
    if args.max_n < 1:
        raise InputError("--max-n must be at least 1")
    if args.instances < 1:
        raise InputError("--instances must be at least 1")
    rng = random.Random(args.seed)
    sweep_n = min(args.max_n, 12)
    results = [
        _selftest_equivalence(rng, args.max_n, args.instances),
        *_selftest_trees(rng, sweep_n),
    ]
    passed = sum(results)
    print(f"selftest: {passed}/{len(results)} suites passed")
    return 0 if passed == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subsetsum",
        description="Exact subset sum solving via lazy heap-ordered subset enumeration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance or a file of instances")
    p_solve.add_argument("--set", help='the values, e.g. "-7,-3,-2,5,8"')
    p_solve.add_argument("--target", type=int, help="the target sum")
    p_solve.add_argument("--file", help="file of instance lines: values ; target")
    p_solve.add_argument(
        "--positive-fast-path",
        action="store_true",
        help="use the paper's baseline single search over all subsets (strictly positive "
        "values only); it usually expands more nodes than the default per-length search",
    )
    p_solve.add_argument("--json", action="store_true", help="emit one JSON object per instance")
    p_solve.add_argument(
        "--trace",
        action="store_true",
        help="print per-length search details (to stderr in --json mode)",
    )
    p_solve.set_defaults(handler=cmd_solve)

    p_bench = sub.add_parser("bench", help="run randomized benchmarks, CSV to stdout")
    p_bench.add_argument("--n", required=True, help="set size, or a lo..hi range of sizes")
    p_bench.add_argument("--trials", type=int, default=100, help="instances per size (default 100)")
    p_bench.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_bench.add_argument("--range", default="-50:50", help="value range lo:hi (default -50:50)")
    p_bench.add_argument(
        "--target-mode",
        choices=("random", "unreachable"),
        default="random",
        help="random targets, or unreachable ones forcing every length to be searched",
    )
    p_bench.set_defaults(handler=cmd_bench)

    p_self = sub.add_parser("selftest", help="cross-check the solver against its oracles")
    p_self.add_argument(
        "--max-n", type=int, default=10,
        help="largest set size checked (default 10); the exhaustive tree walks stop at N=12",
    )
    p_self.add_argument(
        "--instances", type=int, default=10000, help="random equivalence instances (default 10000)"
    )
    p_self.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p_self.set_defaults(handler=cmd_selftest)

    return parser


def _fuse_set_flag(argv: list[str]) -> list[str]:
    """Rewrite "--set VALUE" as "--set=VALUE".

    Value lists such as "-7,-3,-2,5,8" start with a dash without looking
    like a plain negative number, so argparse would otherwise read them as
    an unknown flag.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        if argv[i] == "--set" and i + 1 < len(argv):
            out.append(f"--set={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_fuse_set_flag(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (InputError, CapacityError, OrderError, RankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
