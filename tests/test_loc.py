"""tools/loc.py counts code lines: docstrings, comments and blank lines are
left out, and every other line that holds a token is counted once."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import sys  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Method docstring."""
        text = """a string that is not a docstring,
        spread over two lines"""
        return (text,
                sys)
'''


def test_counts_only_code_lines():
    # import, class, def, the two lines of text, the two of the return
    assert loc.code_lines(SOURCE) == 7


def test_reads_the_package():
    assert (loc.PACKAGE / "cli.py").is_file()
