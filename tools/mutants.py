"""Run the test suite against a fixed list of mutants of src/ and print a kill table.

Each mutant is one named, exact-string edit to one file under src/subsetsum/,
or a few such edits to the same file when it moves a statement. An edit of a
line that a file holds twice, as each rule's two drain loops do, names enough
of the lines around it to pick one copy. Every edit
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
# glibc reserves 64 MiB of address space for each thread's malloc arena, so the suite's six-thread test takes
# the pytest process's VmPeak to 568-704 MiB, and under the cap a thread can fail to start ("can't start new
# thread"), which reads an equivalent control as killed. Two arenas keep it at 200 MiB; the memory a mutant
# can actually allocate is capped as before.
ARENAS = "2"


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
    "                if not (isinstance(child, IndexSubset) and type(child.cached_sum) is int)"
    " or child.cached_sum < total:\n"
    "                    raise InputError(\n"
    '                        f"child {child!r} is not an IndexSubset with an int sum or sums below its parent {node}"\n'
    "                    )\n"
)
_PUSH = "                heappush(heap, (child.cached_sum, next(seq), child))\n"
_POP = "            heappop(heap)\n            popped.append(node)\n"
_LOOP = "            for child in children:\n"
# A rule's per-run write, the same for every frontier and both forms: the run, and its record.
_RECORD = (
    "            head += len(run)\n"
    "            done += len(run)\n"
    "            runs.append(run)\n"
    "            ends.append(done)\n"
    "            totals.append(total)\n"
)
# Each rule holds its drain loop twice, once per form of the buckets, so a mutant of a line both copies share
# names enough of its copy to match once: from the run to its first child's bucket, or from filing a child to the
# run's record. The keyed copies read buckets.get and heappush; the slotted ones index slots.
_RUN = (
    "            run = bucket[head : head + count] if head or len(bucket) > count else bucket\n"
    "            for mask in run:\n"
)
_SUBTREE_RUN = _RUN + (
    "                past = mask.bit_length()\n"
    "                if past < size:\n"
    "                    first = (mask ^ below[past]).bit_length()  # the start of the top run\n"
    "                    gained = total + scaled[past]\n"
    "                    mask |= bit[past]\n"
    "                    i = past - 1\n"
    "                    while i >= first:\n"
    "                        child_sum = gained - scaled[i]\n"
    "                        pending = buckets.get(child_sum)\n"
)
_SUBTREE_FILED = (
    "                            heappush(sums, child_sum)\n"
    "                        else:\n"
    "                            pending.append(mask ^ bit[i])\n"
    "                        i -= 1\n"
) + _RECORD
_SLOTTED_SUBTREE_RUN = _SUBTREE_RUN.replace("buckets.get(child_sum)", "slots[child_sum]")
_SLOTTED_SUBTREE_FILED = _SUBTREE_FILED.replace(
    "heappush(sums, child_sum)", "slots[child_sum] = [mask ^ bit[i]]"
)
_BINHEAP_RUN = _RUN + (
    "                nxt = mask.bit_length()\n"
    "                if nxt >= size:\n"
    "                    continue\n"
    "                left = total + gap[nxt]\n"
    "                pending = buckets.get(left)\n"
)
_BINHEAP_RIGHT = (
    "                    heappush(sums, right)\n"
    "                else:\n"
    "                    pending.append(mask | bit[nxt])\n"
)
_SLOTTED_BINHEAP_RUN = _BINHEAP_RUN.replace("buckets.get(left)", "slots[left]")
_SLOTTED_BINHEAP_RIGHT = _BINHEAP_RIGHT.replace("heappush(sums, right)", "slots[right] = [mask | bit[nxt]]")
# Each rule's take step, keyed and slotted: the bucket of the smallest pending sum, or the first slot filed at or
# above the cursor's sum.
_TAKE = "            while head == len(bucket):  # drained: take the bucket of the smallest pending sum\n"
_SLOTTED_TAKE = (
    "            while head == len(bucket):  # drained: take the first bucket filed at or above the cursor's sum\n"
    "                while slots[total] is None:\n"
)
# The public frontiers' select: a fresh list of runs per rule call, each run packed into the memo in order.
_PACK = (
    "        while cursor[3] < k:\n"
    "            runs: list = []\n"
    "            self._pop_chunk(k, runs, [], [])\n"
    "            for run in runs:\n"
    "                popped.fromlist(run)\n"
)

MUTANTS = (
    Mutant(
        "window-strict", "both reachable-window bounds made strict", "solver.py",
        "if range_check and not low <= scaled_target <= high:",
        "if range_check and not low < scaled_target < high:",
    ),
    Mutant(
        "binheap-drops-last-index", "the keyed power-set rule never reaches the last index", "powerset.py",
        _BINHEAP_RUN, _BINHEAP_RUN.replace("if nxt >= size:", "if nxt >= size - 1:"),
    ),
    Mutant(
        "slotted-binheap-drops-last-index", "the slotted power-set rule never reaches the last index", "powerset.py",
        _SLOTTED_BINHEAP_RUN, _SLOTTED_BINHEAP_RUN.replace("if nxt >= size:", "if nxt >= size - 1:"),
    ),
    Mutant(
        "subtree-drops-last-index", "the keyed fixed-length rule never advances onto the last index",
        "subset_tree.py",
        _SUBTREE_RUN, _SUBTREE_RUN.replace("if past < size:", "if past < size - 1:"),
    ),
    Mutant(
        "slotted-subtree-drops-last-index", "the slotted fixed-length rule never advances onto the last index",
        "subset_tree.py",
        _SLOTTED_SUBTREE_RUN, _SLOTTED_SUBTREE_RUN.replace("if past < size:", "if past < size - 1:"),
    ),
    Mutant(
        "binheap-lifo", "LIFO within a sum: the keyed power-set right child files at the front", "powerset.py",
        _BINHEAP_RIGHT, _BINHEAP_RIGHT.replace("pending.append(", "pending.insert(0, "),
    ),
    Mutant(
        "slotted-binheap-lifo", "LIFO within a sum: the slotted power-set right child files at the front",
        "powerset.py",
        _SLOTTED_BINHEAP_RIGHT, _SLOTTED_BINHEAP_RIGHT.replace("pending.append(", "pending.insert(0, "),
    ),
    Mutant(
        "subtree-lifo", "LIFO within a sum: a keyed fixed-length child files at the front", "subset_tree.py",
        _SUBTREE_FILED, _SUBTREE_FILED.replace("pending.append(", "pending.insert(0, "),
    ),
    Mutant(
        "slotted-subtree-lifo", "LIFO within a sum: a slotted fixed-length child files at the front",
        "subset_tree.py",
        _SLOTTED_SUBTREE_FILED, _SLOTTED_SUBTREE_FILED.replace("pending.append(", "pending.insert(0, "),
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
        "subtree-below-top-run", "the keyed fixed-length rule also advances the bit just below the top run",
        "subset_tree.py",
        _SUBTREE_RUN, _SUBTREE_RUN.replace(".bit_length()  #", ".bit_length() - 1  #"),
    ),
    Mutant(
        "slotted-subtree-skips-run-start", "the slotted fixed-length rule never advances the first bit of the top run",
        "subset_tree.py",
        _SLOTTED_SUBTREE_RUN, _SLOTTED_SUBTREE_RUN.replace(".bit_length()  #", ".bit_length() + 1  #"),
    ),
    Mutant(
        "binheap-gap-two-back", "the power-set rule's left-child gains are taken from two values back", "powerset.py",
        "gap = [0] + [scaled[b] - scaled[b - 1] for b in range(1, size)]",
        "gap = [0] + [scaled[b] - scaled[b - 2] for b in range(1, size)]",
    ),
    Mutant(
        "binheap-move-keeps-top", "the power-set rule's left child keeps the top bit it moves", "powerset.py",
        "[3 << b - 1 for b in new]", "[1 << b for b in new]",
    ),
    Mutant(
        "subtree-below-one-wide", "the fixed-length rule's below table is one bit too wide", "powerset.py",
        "[(1 << p) - 1 for p in new]", "[(1 << p + 1) - 1 for p in new]",
    ),
    Mutant(
        "forget-one-too-many", "forgetting drops one run too many", "powerset.py",
        "drop = bisect_right(ends, self._probe)", "drop = bisect_right(ends, self._probe) + 1",
    ),
    Mutant(
        "forget-drops-probe-run", "forgetting also drops the run that holds the previous probe", "powerset.py",
        "drop = bisect_right(ends, self._probe)", "drop = bisect_left(ends, self._probe) + 1",
    ),
    Mutant(
        "select-off-by-one", "the public select returns popped[k], one rank late", "powerset.py",
        "return self._decode(popped[k - 1])", "return self._decode(popped[k])",
    ),
    Mutant(
        "capture-above-target", "the keyed capture takes the first sum > target: the match bucket sits at target + 1",
        "powerset.py",
        "self._buckets[target] = self.matched\n                self._sums.append(target)",
        "self._buckets[target + 1] = self.matched\n                self._sums.append(target + 1)",
    ),
    Mutant(
        "match-slot-one-high", "the slotted match bucket is registered one slot above the target's", "powerset.py",
        "self._buckets[target - total] = self.matched", "self._buckets[target - total + 1] = self.matched",
    ),
    Mutant(
        "slot-scan-past-own-sum", "the slotted take scans from the cursor's sum + 1: a tie with the parent is lost",
        "subset_tree.py",
        _SLOTTED_TAKE,
        _SLOTTED_TAKE.replace("                while slots", "                total += 1\n                while slots"),
    ),
    Mutant(
        "slot-taken-stays-filed", "the slotted power-set rule leaves a taken bucket in its slot", "powerset.py",
        "bucket, head, slots[total] = slots[total], 0, None", "bucket, head = slots[total], 0",
    ),
    Mutant(
        "slot-sum-not-rebased", "the solver's select does not add the root's sum back to a slotted record",
        "powerset.py",
        "self.cached_sum = totals[bisect_left(ends, k)] + self._root",
        "self.cached_sum = totals[bisect_left(ends, k)]",
    ),
    Mutant(
        "slotted-at-equal-range", "a tree whose sum range equals its size is slotted too", "powerset.py",
        "if top - total < size:", "if top - total <= size:",
    ),
    Mutant(
        "capture-misses-root", "the capture misses a root that already has the target's sum", "powerset.py",
        "self.matched = [code] if target == total else []", "self.matched = []",
    ),
    Mutant(
        "slotted-run-end-off-by-one", "the slotted fixed-length rule records each run's last rank one short",
        "subset_tree.py",
        _SLOTTED_SUBTREE_FILED, _SLOTTED_SUBTREE_FILED.replace("ends.append(done)", "ends.append(done - 1)"),
    ),
    Mutant(
        "split-run-recorded-twice", "a run split across rule calls keeps the record of its first part",
        "powerset.py",
        "if ends and cursor[1] < len(cursor[0]):", "if False:",
    ),
    Mutant(
        "empty-bucket-recorded", "the keyed fixed-length rule runs the empty match bucket and records it",
        "subset_tree.py",
        _TAKE, _TAKE.replace("while head", "if head"),
    ),
    Mutant(
        "slotted-empty-bucket-recorded", "the slotted fixed-length rule runs the empty match bucket and records it",
        "subset_tree.py",
        _SLOTTED_TAKE, _SLOTTED_TAKE.replace("while head", "if head"),
    ),
    Mutant(
        "run-memo-packs-2-64", "the run memo packs a largest sum of 2^64 into 8-byte slots", "powerset.py",
        'array("Q") if top < 1 << 64 else []', 'array("Q") if top <= 1 << 64 else []',
    ),
    Mutant(
        "signed-run-memo", "the run memo packs sums into signed 8-byte slots", "powerset.py",
        'self._totals = array("Q")', 'self._totals = array("q")',
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
        "no-scaled-set-guard", "the ScaledSet check passes any object", "model.py",
        "if not isinstance(s, ScaledSet):", "if False:",
    ),
    Mutant(
        "root-sum-any-type", "Frontier(root, expand) takes a root whose sum is not an int", "powerset.py",
        "isinstance(root, IndexSubset) and type(root.cached_sum) is int", "isinstance(root, IndexSubset)",
    ),
    Mutant(
        "child-sum-any-type", "Frontier(root, expand) takes a child whose sum is not an int", "powerset.py",
        "isinstance(child, IndexSubset) and type(child.cached_sum) is int", "isinstance(child, IndexSubset)",
    ),
    Mutant(
        "brute-force-last-match", "brute force returns the last hit of the smallest size, not the first",
        "oracle.py",
        "for combo in combinations(values, size):", "for combo in reversed(list(combinations(values, size))):",
    ),
    Mutant(
        "brute-force-skips-full-set", "brute force never tries the whole set", "oracle.py",
        "for size in range(1, len(values) + 1):", "for size in range(1, len(values)):",
    ),
    Mutant(
        "no-subset-type-guard", "the index check reads any object as an IndexSubset", "model.py",
        "if not (isinstance(subset, IndexSubset) and type(subset.indices) is tuple):", "if False:",
    ),
    Mutant(
        "run-overshoots", "the keyed fixed-length rule takes a bucket whole even when it is longer than count",
        "subset_tree.py",
        _SUBTREE_RUN, _SUBTREE_RUN.replace(" if head or len(bucket) > count else", " if head else"),
    ),
    Mutant(
        "slotted-run-overshoots",
        "the slotted fixed-length rule takes a bucket whole even when it is longer than count",
        "subset_tree.py",
        _SLOTTED_SUBTREE_RUN, _SLOTTED_SUBTREE_RUN.replace(" if head or len(bucket) > count else", " if head else"),
    ),
    Mutant(
        "slotted-binheap-run-overshoots",
        "the slotted power-set rule takes a bucket whole even when it is longer than count",
        "powerset.py",
        _SLOTTED_BINHEAP_RUN, _SLOTTED_BINHEAP_RUN.replace(" if head or len(bucket) > count else", " if head else"),
    ),
    Mutant(
        "drained-bucket-stays-registered",
        "the keyed fixed-length rule reads buckets[total] in place of buckets.pop(total)",
        "subset_tree.py",
        "bucket, head = buckets.pop(total), 0", "bucket, head = buckets[total], 0",
    ),
    Mutant(
        "binheap-drained-bucket-stays-registered",
        "the keyed power-set rule reads buckets[total] in place of buckets.pop(total)", "powerset.py",
        "bucket, head = buckets.pop(total), 0", "bucket, head = buckets[total], 0",
    ),
    Mutant(
        "packed-memo-admits-65-bits", "the memo packs codes of up to 65 bits into 8-byte slots", "powerset.py",
        'self._popped = array("Q") if len(scaled) <= 64 else _ListMemo()',
        'self._popped = array("Q") if len(scaled) <= 65 else _ListMemo()',
    ),
    Mutant(
        "signed-packed-memo", "the packed memo holds signed 8-byte codes", "powerset.py",
        'self._popped = array("Q")', 'self._popped = array("q")',
    ),
    Mutant(
        "runs-never-renewed", "the public select hands every rule call the same list of runs", "powerset.py",
        _PACK,
        _PACK.replace("        while cursor[3] < k:\n            runs: list = []\n",
                      "        runs: list = []\n        while cursor[3] < k:\n"),
    ),
    Mutant(
        "memo-skips-last-run", "the public select packs every run of a rule call but the last", "powerset.py",
        _PACK, _PACK.replace("for run in runs:", "for run in runs[:-1]:"),
    ),
    Mutant(
        "memo-packs-runs-reversed", "the public select packs a rule call's runs in reverse order", "powerset.py",
        _PACK, _PACK.replace("for run in runs:", "for run in reversed(runs):"),
    ),
    Mutant(
        "drained-never-cleared", "the solver's select holds every drained run of a probe, not one call's",
        "powerset.py",
        ("cursor = self._cursor\n        while cursor[3] < k:\n            if ends", "self._pop_chunk(k, [], ends, totals)"),
        (
            "cursor, drained = self._cursor, []\n        while cursor[3] < k:\n            if ends",
            "self._pop_chunk(k, drained, ends, totals)",
        ),
    ),
    Mutant(
        "tables-one-short", "a shared position table grows one position short of what its rule needs",
        "powerset.py",
        "self._masks(range(len(table), size))", "self._masks(range(len(table), size - 1))",
    ),
    Mutant(
        "fast-guard-serves-forgotten", "the solver's select serves the last forgotten rank on its hot path",
        "powerset.py",
        "self._base < k <= self._size", "self._base <= k <= self._size",
    ),
    Mutant(
        "fast-guard-refuses-last-rank", "the solver's select sends the tree's last rank to its refusals",
        "powerset.py",
        "self._base < k <= self._size", "self._base < k < self._size",
    ),
    Mutant(
        "equivalent-clear-low-bit", "control: clear the low bit with -= in place of ^=", "powerset.py",
        "mask ^= low", "mask -= low", equivalent=True,
    ),
    Mutant(
        "equivalent-view-rule-from-one", "control: the views run the rule from a sum of 1", "powerset.py",
        "rule([[code], 0, 0, 0], 1, buckets, [], [], [], [])",
        "rule([[code], 0, 1, 0], 1, buckets, [], [], [], [])", equivalent=True,
    ),
    Mutant(
        "equivalent-memo-before-run",
        "control: the keyed fixed-length rule writes each run and its record before expanding it", "subset_tree.py",
        (_SUBTREE_FILED, _SUBTREE_RUN),
        (_SUBTREE_FILED.replace(_RECORD, ""), _SUBTREE_RUN.replace("            for", _RECORD + "            for")),
        equivalent=True,
    ),
    Mutant(
        "equivalent-heap-seq-from-five", "control: Frontier(root, expand) numbers the root's children from 5, not 1",
        "powerset.py",
        "self._seq = expand, count(1)", "self._seq = expand, count(5)", equivalent=True,
    ),
    Mutant(
        "equivalent-chunk-size", "control: a rule call expands at most 3 nodes, not 256", "powerset.py",
        "_CHUNK = 256", "_CHUNK = 3", equivalent=True,
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
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1", MALLOC_ARENA_MAX=ARENAS)
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
