"""The mutant table of tools/mutants.py stays in step with the code: every
edit still applies once to today's source, and every test it names still
exists. Running the mutants is left to the tool; this runs no pytest."""

import ast
import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _defines(path: Path, names: list[str]) -> bool:
    """True iff the module at path defines the nested class/function names.
    The last name may end in a parameter id, name[id]: the function must
    then carry pytest.mark.parametrize, and where its ids are a literal
    list, hold id."""
    body = ast.parse(path.read_text()).body
    node, names, case = None, list(names), ""
    if names:
        names[-1], _, case = names[-1].partition("[")
    for name in names:
        found = [node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                 and node.name == name]
        if not found:
            return False
        node = found[0]
        body = node.body
    if not case:
        return True
    if not isinstance(node, ast.FunctionDef) or not case.endswith("]"):
        return False
    deco = next((d for d in node.decorator_list
                 if isinstance(d, ast.Call) and ast.unparse(d.func) == "pytest.mark.parametrize"), None)
    if deco is None:
        return False
    ids = next((kw.value for kw in deco.keywords if kw.arg == "ids"), None)
    # ids made at collection time are not read here; pytest refuses an unknown one when the mutant runs
    return not isinstance(ids, ast.List) or case[:-1] in [e.value for e in ids.elts if isinstance(e, ast.Constant)]


TEST_VERIFY = ROOT / "tests" / "test_verify.py"


@pytest.mark.parametrize("names, expected", [
    (["TestOneReading", "test_each_field_is_read_once_per_side"], True),
    (["TestOneReading", "test_each_field_is_read_once_per_side[spans]"], True),
    (["TestOneReading", "test_each_field_is_read_once_per_side[nope]"], False),
    (["TestOneReading", "test_each_field_is_read_once_per_side[spans"], False),
    (["TestOneReading[spans]"], False),  # a class carries no parameter id
    (["TestOneReading", "test_a_fallen_back_n_enumerates_once_per_pass[spans]"], False),  # not parametrized
    (["TestSharedSweep", "test_same_reports_as_the_standalone_checks[identity]"], True),  # ids not a literal list
    (["TestOneReading", "test_no_such_test"], False),
], ids=["whole-test", "listed-id", "unlisted-id", "unclosed-id", "class-id", "unparametrized", "computed-ids",
        "missing"])
def test_defines_reads_a_trailing_parameter_id(names, expected):
    assert _defines(TEST_VERIFY, names) == expected


def test_table_size_and_unique_names():
    assert len(mutants.MUTANTS) >= 14
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_and_names_real_tests(m):
    path = ROOT / "src" / "partinv" / m.file
    source = path.read_text()
    try:
        mutated = mutants.mutate(source, m)
    except SystemExit as exc:
        pytest.fail(str(exc))
    assert mutated != source
    compile(mutated, str(path), "exec")
    assert m.tests
    for test in m.tests:
        file, *names = test.split("::")
        assert (ROOT / file).is_file(), test
        assert _defines(ROOT / file, names), test


@pytest.mark.parametrize("code, expected", [(0, "survived"), (1, "killed"), (2, "killed"), (4, "killed"),
                                           (mutants.TIME_CAP, "killed"), (mutants.MEMORY_CAP, "killed")],
                         ids=["pass", "test-failure", "file-fails-to-import", "test-id-not-collected",
                              "time-cap", "memory-cap"])
def test_exit_code_gives_status(code, expected):
    assert mutants.status("m", code) == expected


@pytest.mark.parametrize("outcome, expected", [
    ((0, b""), 0),
    ((1, b"E   AssertionError"), 1),
    ((1, b"E   MemoryError"), mutants.MEMORY_CAP),
    (None, mutants.TIME_CAP),
], ids=["pass", "test-failure", "memory-cap", "time-cap"])
def test_run_names_the_cap_it_hit(monkeypatch, outcome, expected):
    # pytest's run is stood in for: outcome is its exit code and report, or None when it overran
    def run(cmd, stdout, timeout, preexec_fn, **kwargs):
        assert (timeout, preexec_fn) == (mutants.TIME_CAP_S, mutants._cap_memory)
        if outcome is None:
            raise subprocess.TimeoutExpired(cmd, timeout)
        stdout.write(outcome[1])
        return subprocess.CompletedProcess(cmd, outcome[0])

    monkeypatch.setattr(mutants.subprocess, "run", run)
    assert mutants.run_tests(ROOT, ["tests/test_mutants.py"]) == expected


@pytest.mark.parametrize("code", [3, 5], ids=["internal-error", "no-tests-collected"])
def test_exit_code_that_is_no_verdict_stops_the_run(code):
    with pytest.raises(SystemExit, match=f"mutant m: pytest exit {code},"):
        mutants.status("m", code)
