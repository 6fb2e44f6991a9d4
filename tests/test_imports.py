"""The import graph: importing the package or its CLI loads none of the
heavy standard-library modules that dataclasses pulls in, and every
import sits at the top of its module, so no cost is moved to a first call.
No timing is asserted; the set of loaded modules is what decides it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: dataclasses and the modules it brings: together about half of the
#: package's import time on CPython 3.11.
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

#: Run in a child interpreter: the modules that importing {module} loads,
#: measured against what was loaded before it, so whatever the interpreter
#: preloads at start-up does not count.
CHILD = "import sys\nbefore = set(sys.modules)\nimport {module}\nprint(sorted(set(sys.modules) - before))\n"


def newly_loaded(module: str) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", CHILD.format(module=module)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(ast.literal_eval(out))


@pytest.mark.parametrize("module", ["partinv", "partinv.cli"])
def test_import_loads_no_heavy_module(module):
    loaded = newly_loaded(module)
    assert module in loaded and "partinv.verify" in loaded
    assert loaded.isdisjoint(HEAVY), sorted(loaded.intersection(HEAVY))


@pytest.mark.parametrize("path", sorted((SRC / "partinv").glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_at_module_top(path):
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    nested = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []
    assert not any(isinstance(node, ast.FunctionDef) and node.name == "__getattr__" for node in tree.body)
