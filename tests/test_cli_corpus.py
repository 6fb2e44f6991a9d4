"""Every CLI output contract frozen as digests: for each argv in CASES,
the exit code and the sha256 of stdout and of stderr that cli.main gave,
replayed in process. The digests live in cli_corpus.json, keyed by the
argv joined with spaces. verify's elapsed figures are stripped before
hashing, and argparse is held at 80 columns so that usage and help text
do not follow the terminal's width.

    python tests/test_cli_corpus.py > tests/cli_corpus.json

rewrites the table from today's code; do so only for a change that is
meant to alter the output, and say which cases moved.
"""

import hashlib
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

import partinv.cli as cli

CORPUS = Path(__file__).resolve().parent / "cli_corpus.json"

#: The worked examples and their images, and inputs where r, s or both
#: are undefined (1, 1/2/3, 1/32), and one in comma form.
PARTITIONS = ("3/4/7/852/961", "6/7/852/9431", "2/431", "3/421", "3/4/652/7/981", "652/7/98431",
              "2/3/4/51", "54321", "321", "2/31", "21", "1", "1/2/3", "1/32", "10,7,3/11,9,8,6,5,4,2,1")

#: Input errors, size-guard errors and usage errors of each subcommand, and
#: one input for each message of SetPartition.validate that parse can reach:
#: a gap, a block not decreasing, a duplicate, mixed forms, blocks out of order.
ERRORS = (("stats", "3//1"), ("stats", "2/1"), ("stats", ""), ("sigma", "2/1"), ("sigma", "x"),
          ("enumerate", "4", "--max-n", "3"), ("enumerate", "15"), ("enumerate", "0"),
          ("enumerate", "501", "--max-n", "600"), ("enumerate", "three"), ("enumerate", "3", "--compact"),
          ("distribution", "15"), ("distribution", "0"), ("distribution", "5", "--stat", "z"),
          ("avoiders", "0"), ("avoiders", "301"), ("table", "301"), ("table", "0"), ("table", "5", "--max-n", "0"),
          ("verify", "--max-n", "0"), ("verify", "--max-n", "10"), ("stats",), ("table", "x"),
          ("stats", "31"), ("stats", "12"), ("stats", "1/21"), ("sigma", "3,1/42"), ("sigma", "2,1/2,1"))


def _cases():
    for fmt in ("text", "json"):
        form = ("--format", fmt)
        for n in range(1, 11):
            for stat in ("x", "y", "joint"):
                yield ("distribution", str(n), "--stat", stat, *form)
                yield ("distribution", str(n), "--stat", stat, "--nonoverlapping", *form)
        for n in range(1, 11):
            yield ("avoiders", str(n), *form)
        for n in (1, 7, 40, 120, 300):
            yield ("table", str(n), *form)
        for text in PARTITIONS:
            yield ("stats", text, *form)
            yield ("sigma", text, *form)
        yield ("verify", "--max-n", "6", *form)
        for argv in ERRORS:
            yield (*argv, *form)
        yield ("enumerate", "4", *form)
        yield ("enumerate", "4", "--nonoverlapping", *form)
        yield ("enumerate", "3", "--format", fmt.upper())
    yield from ((), ("nosuch",), ("--help",))
    for sub in ("enumerate", "stats", "sigma", "table", "distribution", "avoiders", "verify"):
        yield (sub, "--help")


CASES = list(_cases())

_ELAPSED = (re.compile(r"\(\d+\.\d+s\)"), re.compile(r'"elapsed_seconds": [-+.e0-9]+'))


def replay(argv) -> list:
    """[exit code, sha256 of stdout, sha256 of stderr] of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    stdout = out.getvalue()
    if argv[:1] == ("verify",):
        for pattern in _ELAPSED:
            stdout = pattern.sub("*", stdout)
    return [code, *(hashlib.sha256(s.encode()).hexdigest() for s in (stdout, err.getvalue()))]


@pytest.fixture(scope="module")
def frozen() -> dict:
    return json.loads(CORPUS.read_text())


def test_corpus_holds_exactly_the_cases(frozen):
    assert len(set(CASES)) == len(CASES)
    assert sorted(frozen) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_output_is_frozen(frozen, argv):
    assert replay(argv) == frozen[" ".join(argv)]


if __name__ == "__main__":
    print("{\n" + ",\n".join(f"{json.dumps(' '.join(argv))}: {json.dumps(replay(argv))}" for argv in CASES) + "\n}")
