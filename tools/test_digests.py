"""The benchmark's seed-7 digests: every instance's subset, nodes expanded and probed ranks.

solvebench/run.py hashes each instance's first outcome into the digest= field
of its "# " header line, so a change to the frontiers' memo or to the rank
search that moves any subset, node count or probe changes the digest. Each
workload runs one pass over its seed-7 pool (--seconds 0), about 1-2 s.

This test lives outside tests/ because tools/mutants.py copies only src/,
tests/ and tools/ into each mutant's directory and runs tests/ there: a test
under tests/ that needs solvebench/ would fail in every copy.
"""

import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "solvebench" / "run.py"
DIGESTS = {"exhaustive": "700a7fa6b8bd05c2", "planted": "9c0d2e6cb52ac5b9", "positive": "8dca5904ebd9dc5d"}


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_seed_7_digest(workload):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", "0"]
    run = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    headers = [line for line in run.stdout.splitlines() if line.startswith("# ")]
    assert len(headers) == 1, run.stdout
    assert f"digest={DIGESTS[workload]}" in headers[0].split(), headers[0]
