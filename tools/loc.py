"""Count the code lines of each module of src/partinv and in total.

    python3 tools/loc.py

A code line holds at least one token that is neither a comment nor part
of a docstring (the string that opens a module, class or function); blank
lines, comment lines and docstring lines are left out. Prints one JSON
object of the shape {"modules": {"<module>.py": <code lines>, ...},
"total": <their sum>}, modules in name order.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "partinv"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    modules = {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    print(json.dumps({"modules": modules, "total": sum(modules.values())}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
