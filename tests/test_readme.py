"""The README's >>> examples run as written."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_pass():
    result = doctest.testfile(str(README), module_relative=False, verbose=False)
    assert result.attempted >= 7
    assert result.failed == 0
