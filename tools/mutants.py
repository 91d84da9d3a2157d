"""Run the test suite against a fixed list of mutants of src/ and print a kill table.

Each mutant is one named, exact-string edit to one file under src/subsetsum/,
or a few such edits to the same file when it moves a statement. Every edit
must match its file exactly once, checked for the whole list
before any mutant runs, so a refactor that moves the code fails loudly and
the list gets updated; tools/test_mutants.py makes the same check in the
test suite. For each mutant the script copies src/, tests/,
tools/ (which a test imports) and pyproject.toml to a temporary directory,
applies the edit there and runs ``python -m pytest -x -q tests`` under a
timeout and an address-space cap.
A mutant is killed when the run fails. A run that outlives the timeout is a
hang: it counts as killed, but is reported as a hang. A mutant marked
equivalent changes no behaviour and must survive; it checks that the
unmutated suite passes in the copy.

    python3 tools/mutants.py

Exit status 0 when every mutant is killed and every equivalent one survives.
If a mutant survives, the fix is a stronger test, never a looser one.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/subsetsum"
# Seconds before a pytest run counts as a hang.
TIMEOUT = 300
# Address space per process, so a runaway mutant fails, not the host. On CPython 3.11.7, Linux x86-64, the
# unmutated suite's pytest process peaks at 63 MiB of virtual memory (VmPeak) and its CLI subprocesses at
# 20 MiB: the cap is eight times the larger.
MEMORY_CAP = 512 << 20


class Mutant(NamedTuple):
    name: str
    what: str
    path: str  # relative to PACKAGE
    old: str | tuple[str, ...]  # a tuple holds several edits, each old matched to the new at its place
    new: str | tuple[str, ...]
    equivalent: bool = False

    def edits(self) -> list[tuple[str, str]]:
        if isinstance(self.old, tuple):
            return list(zip(self.old, self.new))
        return [(self.old, self.new)]


# Frontier(root, expand)'s last steps per node: check the children, pop the node, push the children.
_CHECK = (
    "                if not isinstance(child, IndexSubset) or child.cached_sum < total:\n"
    '                    raise InputError(f"child {child!r} is not an IndexSubset or sums below its parent {node}")\n'
)
_PUSH = "                heappush(heap, (child.cached_sum, next(seq), child))\n"
_POP = "            heappop(heap)\n            popped.append(node)\n"
_LOOP = "            for child in children:\n"

MUTANTS = (
    Mutant(
        "window-strict", "both reachable-window bounds made strict", "solver.py",
        "if range_check and not low <= scaled_target <= high:",
        "if range_check and not low < scaled_target < high:",
    ),
    Mutant(
        "binheap-drops-last-index", "the power-set rule never reaches the last index", "powerset.py",
        "if nxt >= size:", "if nxt >= size - 1:",
    ),
    Mutant(
        "subtree-drops-last-index", "the fixed-length rule never advances onto the last index", "subset_tree.py",
        "if past < size:", "if past < size - 1:",
    ),
    Mutant(
        "binheap-lifo", "LIFO within a sum: the power-set right child files at the front", "powerset.py",
        "pending.append(mask | bit[nxt])", "pending.insert(0, mask | bit[nxt])",
    ),
    Mutant(
        "subtree-lifo", "LIFO within a sum: a fixed-length child files at the front", "subset_tree.py",
        "pending.append(mask ^ bit[i])", "pending.insert(0, mask ^ bit[i])",
    ),
    Mutant(
        "adapter-refuses-equal-sum", "Frontier(root, expand) refuses a child equal to its parent", "powerset.py",
        "or child.cached_sum < total:", "or child.cached_sum <= total:",
    ),
    Mutant(
        "heap-pops-before-expand", "Frontier(root, expand) pops its top before expand runs", "powerset.py",
        ("total, _, node = heap[0]", "            heappop(heap)\n            popped.append(node)\n"),
        ("total, _, node = heappop(heap)", "            popped.append(node)\n"),
    ),
    Mutant(
        "heap-seq-never-grows", "Frontier(root, expand) files every child with the same seq", "powerset.py",
        ("from itertools import count", "self._seq = expand, count(1)"),
        ("from itertools import count, repeat", "self._seq = expand, repeat(1)"),
    ),
    Mutant(
        "heap-pushes-before-check", "Frontier(root, expand) pushes a node's children before it checks them",
        "powerset.py",
        _LOOP + _CHECK + _POP + _LOOP + _PUSH, _LOOP + _PUSH + _CHECK + _POP,
    ),
    Mutant(
        "no-expand-list-guard", "Frontier(root, expand) takes whatever expand returns", "powerset.py",
        "if type(children) is not list:", "if False:",
    ),
    Mutant(
        "no-past-the-end-check", "select has no up-front past-the-end check", "powerset.py",
        "if k > self._size:", "if False:",
    ),
    Mutant(
        "search-accepts-above-target", "the rank search accepts a sum >= target", "powerset.py",
        "if candidate.cached_sum == target:", "if candidate.cached_sum >= target:",
    ),
    Mutant(
        "no-internal-fault-check", "the solver's internal-fault check is off", "solver.py",
        "if sum(values) != input_set.target:", "if False:",
    ),
    Mutant(
        "no-early-exit", "solve keeps searching lengths after a hit", "solver.py",
        "            break\n", "            pass\n",
    ),
    Mutant(
        "no-target-type-guard", "the rank search takes a target of any type", "powerset.py",
        "if type(target) is not int:", "if False:",
    ),
    Mutant(
        "upper-midpoint", "the rank search probes the upper midpoint", "powerset.py",
        "mid = (lo + hi) // 2", "mid = (lo + hi + 1) // 2",
    ),
    Mutant(
        "decode-sum-skips-one", "decode sums all indices but the top one", "powerset.py",
        "total += scaled[i]", "total += scaled[i] if mask != low else 0",
    ),
    Mutant(
        "subtree-below-top-run", "the fixed-length rule also advances the bit just below the top run",
        "subset_tree.py",
        "first = (mask ^ below[past]).bit_length()", "first = (mask ^ below[past]).bit_length() - 1",
    ),
    Mutant(
        "subtree-skips-run-start", "the fixed-length rule never advances the first bit of the top run",
        "subset_tree.py",
        "first = (mask ^ below[past]).bit_length()", "first = (mask ^ below[past]).bit_length() + 1",
    ),
    Mutant(
        "binheap-gap-two-back", "the power-set rule's left-child gains are taken from two values back", "powerset.py",
        "gap = [0] + [scaled[b] - scaled[b - 1] for b in range(1, size)]",
        "gap = [0] + [scaled[b] - scaled[b - 2] for b in range(1, size)]",
    ),
    Mutant(
        "binheap-move-keeps-top", "the power-set rule's left child keeps the top bit it moves", "powerset.py",
        "move = [0] + [3 << b - 1 for b in range(1, size)]", "move = [0] + [1 << b for b in range(1, size)]",
    ),
    Mutant(
        "subtree-below-one-wide", "the fixed-length rule's below table is one bit too wide", "subset_tree.py",
        "below = [(1 << p) - 1 for p in range(size)]", "below = [(1 << p + 1) - 1 for p in range(size)]",
    ),
    Mutant(
        "forget-one-too-many", "forgetting drops one popped code too many", "powerset.py",
        "del popped[: probe - base]", "del popped[: probe - base + 1]",
    ),
    Mutant(
        "select-off-by-one", "select returns popped[k - base]", "powerset.py",
        "return self._decode(popped[k - 1 - base])", "return self._decode(popped[k - base])",
    ),
    Mutant(
        "scaled-set-offset-one-short", "ScaledSet shifts the minimum to 0, not 1", "model.py",
        "offset = max(0, 1 - values[0])", "offset = max(0, -values[0])",
    ),
    Mutant(
        "scaled-set-unsorted", "ScaledSet keeps its values in the order given", "model.py",
        "values = tuple(sorted(values))", "values = tuple(values)",
    ),
    Mutant(
        "view-sums-from-zero", "the views keep each bucket's key as the child's sum", "powerset.py",
        "return [_decode(scaled, child) for bucket in buckets.values() for child in bucket]",
        "return [_decode(scaled, child)._replace(cached_sum=key)"
        " for key, bucket in buckets.items() for child in bucket]",
    ),
    Mutant(
        "view-ignores-length", "subtree_children skips the check that a node holds tree.n indices", "subset_tree.py",
        "if len(checked) != tree.n:", "if False:",
    ),
    Mutant(
        "dp-skips-input-set-guard", "dp_decision reads the values of any object", "oracle.py",
        "values = _checked_values(input_set)\n    neg_total", "values = input_set.values\n    neg_total",
    ),
    Mutant(
        "no-subset-type-guard", "the index check reads any object as an IndexSubset", "model.py",
        "if not (isinstance(subset, IndexSubset) and type(subset.indices) is tuple):", "if False:",
    ),
    Mutant(
        "run-overshoots", "the fixed-length rule takes a bucket whole even when it is longer than count",
        "subset_tree.py",
        "run = bucket[head : head + count] if head or len(bucket) > count else bucket",
        "run = bucket[head : head + count] if head else bucket",
    ),
    Mutant(
        "binheap-run-overshoots", "the power-set rule takes a bucket whole even when it is longer than count",
        "powerset.py",
        "run = bucket[head : head + count] if head or len(bucket) > count else bucket",
        "run = bucket[head : head + count] if head else bucket",
    ),
    Mutant(
        "drained-bucket-stays-registered", "the fixed-length rule reads buckets[total] in place of buckets.pop(total)",
        "subset_tree.py",
        "bucket, head = buckets.pop(total), 0", "bucket, head = buckets[total], 0",
    ),
    Mutant(
        "binheap-drained-bucket-stays-registered",
        "the power-set rule reads buckets[total] in place of buckets.pop(total)", "powerset.py",
        "            bucket, head = buckets.pop(total), 0\n        cursor",
        "            bucket, head = buckets[total], 0\n        cursor",
    ),
    Mutant(
        "packed-memo-admits-65-bits", "the memo packs codes of up to 65 bits into 8-byte slots", "powerset.py",
        'self._popped = array("Q") if len(scaled) <= 64 else _ListMemo()',
        'self._popped = array("Q") if len(scaled) <= 65 else _ListMemo()',
    ),
    Mutant(
        "signed-packed-memo", "the packed memo holds signed 8-byte codes", "powerset.py",
        'array("Q")', 'array("q")',
    ),
    Mutant(
        "staging-never-cleared", "select never clears the staging list after packing it", "powerset.py",
        "            staged.clear()\n", "            pass\n",
    ),
    Mutant(
        "equivalent-clear-low-bit", "control: clear the low bit with -= in place of ^=", "powerset.py",
        "mask ^= low", "mask -= low", equivalent=True,
    ),
    Mutant(
        "equivalent-view-rule-from-one", "control: the views run the rule from a sum of 1", "powerset.py",
        "rule([[code], 0, 0], 1, buckets, [], [])", "rule([[code], 0, 1], 1, buckets, [], [])", equivalent=True,
    ),
    Mutant(
        "equivalent-memo-before-run", "control: the fixed-length rule adds each run to the memo before expanding it",
        "subset_tree.py",
        ("            for mask in run:\n", "            popped += run\n            count -= len(run)"),
        ("            popped += run\n            for mask in run:\n", "            count -= len(run)"),
        equivalent=True,
    ),
    Mutant(
        "equivalent-heap-seq-from-five", "control: Frontier(root, expand) numbers the root's children from 5, not 1",
        "powerset.py",
        "self._seq = expand, count(1)", "self._seq = expand, count(5)", equivalent=True,
    ),
    Mutant(
        "equivalent-chunk-size", "control: select stages at most 3 codes per rule call, not 1,024", "powerset.py",
        "_CHUNK = 1024", "_CHUNK = 3", equivalent=True,
    ),
)


def check_edits() -> list[str]:
    """One line per edit that does not match its file exactly once."""
    problems = []
    for m in MUTANTS:
        text = (ROOT / PACKAGE / m.path).read_text(encoding="utf-8")
        for old, _ in m.edits():
            count = text.count(old)
            if count != 1:
                problems.append(f"{m.name}: {old!r} matches {m.path} {count} times, not once")
    return problems


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run_mutant(m: Mutant) -> tuple[str, float, str]:
    """Apply m in a fresh copy and run the tests; returns (outcome, seconds, first failure)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tools", copy / "tools", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / PACKAGE / m.path
        text = target.read_text(encoding="utf-8")
        for old, new in m.edits():
            text = text.replace(old, new)
        target.write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
        started = time.monotonic()
        proc = subprocess.Popen(
            command, cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True, preexec_fn=_cap_memory,
        )
        try:
            output, _ = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "hang", time.monotonic() - started, ""
        seconds = time.monotonic() - started
    if proc.returncode == 0:
        return "survived", seconds, ""
    first = next((line for line in output.splitlines() if line.startswith(("FAILED ", "ERROR "))), "")
    return "killed", seconds, first.split(" - ")[0]


def main() -> int:
    problems = check_edits()
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    print("| mutant | edit | expected | outcome | seconds | first failure |")
    print("|---|---|---|---|---|---|")
    unexpected = 0
    for m in MUTANTS:
        outcome, seconds, first = run_mutant(m)
        expected = "survived" if m.equivalent else "killed"
        if (outcome == "survived") != m.equivalent:
            unexpected += 1
        print(f"| `{m.name}` | {m.what} | {expected} | {outcome} | {seconds:.1f} | {first} |", flush=True)
    print(f"{len(MUTANTS) - unexpected} of {len(MUTANTS)} as expected", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
