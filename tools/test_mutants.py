"""Every mutant in tools/mutants.py still names text its file holds exactly once.

A refactor that moves mutated text fails here in seconds, not only when the
whole mutant run starts. This test lives outside tests/ because the mutant
harness runs tests/ inside each mutated copy, where the mutated text no
longer matches.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


def test_every_mutant_edit_matches_its_file_once():
    assert mutants.check_edits() == []
