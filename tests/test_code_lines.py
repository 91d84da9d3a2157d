"""tools/code_lines.py counts the lines that hold a token outside a docstring."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SAMPLE = '''"""A module docstring
over two lines."""

import os  # a comment after code counts as code

# a comment alone does not count


class Box:
    """A class docstring."""

    def size(self, a,
             b):
        """A function docstring
        over two lines.
        """
        text = """a string that is
        not a docstring"""
        return (a +
                b + len(text))
'''


def test_counts_code_and_continuation_lines_but_not_docstrings_or_comments():
    # import, class, def and its continuation, text's two lines, return and its continuation.
    assert code_lines.code_lines(_SAMPLE) == 8

