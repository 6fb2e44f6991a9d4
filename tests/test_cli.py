"""The command-line surface: output of every subcommand, both formats,
and the exit-code contract (0 ok, 1 usage/input error, 2 failed check)."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

import partinv
import partinv.cli as cli
from partinv import SetPartition, format_partition, parse, v_table
from partinv.verify import CheckReport, Counterexample
from oracles import set_partitions, table_output
from test_cli_corpus import CORPUS, replay

NONOVERLAPPING_9_SHA256 = "3f6a6ec5035a50fdca76a4fbbffc6bef840914967c6d195807780947404bf2c2"
ALL_9_SHA256 = "8edfc596b218161eb93af89069c673fc768965a2ae598c441ade79167ea960c8"
ALL_6_JSON_SHA256 = "c1e9ab6f55bab594f0a21dc589ccc23517a1f7ad481e4644e8bc280c0d8b0868"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestEnumerate:
    def test_text_listing(self, capsys):
        code, out, err = run(capsys, "enumerate", "3")
        assert code == 0
        assert out.splitlines() == ["321", "21/3", "2/31", "1/32", "1/2/3"]

    def test_nonoverlapping_filter(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--nonoverlapping")
        assert code == 0
        assert len(out.splitlines()) == 14

    def test_nonoverlapping_nine_is_frozen(self, capsys):
        # sha256 of the stdout the filtering enumerator printed, frozen to
        # pin every line and the RGS-lex order
        code, out, _ = run(capsys, "enumerate", "9", "--nonoverlapping")
        assert code == 0
        assert out.count("\n") == 7651
        assert hashlib.sha256(out.encode()).hexdigest() == NONOVERLAPPING_9_SHA256

    def test_all_nine_is_frozen(self, capsys):
        # sha256 of the stdout the grouping enumerator printed, frozen to
        # pin every line and the RGS-lex order
        code, out, _ = run(capsys, "enumerate", "9")
        assert code == 0
        assert out.count("\n") == 21147
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_9_SHA256

    def test_all_six_json_is_frozen(self, capsys):
        code, out, _ = run(capsys, "enumerate", "6", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_6_JSON_SHA256

    def test_json_round_trips(self, capsys):
        code, payload = run_json(capsys, "enumerate", "3", "--format", "json")
        assert code == 0
        assert payload["count"] == 5
        parts = [SetPartition.from_json(obj) for obj in payload["partitions"]]
        assert parts == list(map(parse, ["321", "21/3", "2/31", "1/32", "1/2/3"]))

    @pytest.mark.parametrize("n, flags", [
        *(pytest.param(n, flags, id=f"{n}-{name}") for n in range(1, 8)
          for name, flags in (("all", ()), ("nonoverlapping", ("--nonoverlapping",)))),
        # the first n whose entries hold two-digit numbers, at a cost that fits Tier-1
        pytest.param(10, ("--nonoverlapping",), id="10-nonoverlapping"),
    ])
    def test_json_is_the_bytes_of_one_dump(self, capsys, n, flags):
        gen = partinv.enumerate_nonoverlapping if flags else partinv.enumerate_all
        parts = [p.to_json() for p in gen(n)]
        payload = {"n": n, "nonoverlapping": bool(flags), "count": len(parts), "partitions": parts}
        code, out, err = run(capsys, "enumerate", str(n), *flags, "--format", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(payload, indent=2) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(set_partitions(max_n=40))
    def test_partition_entry_is_the_indented_dump(self, p):
        # the slow path the template stands for stays as the oracle
        assert cli._partition_entry(p) == json.dumps(p.to_json(), indent=2).replace("\n", "\n    ")

    @pytest.mark.parametrize("flags", [(), ("--nonoverlapping",)], ids=["all", "nonoverlapping"])
    def test_json_streams(self, monkeypatch, flags):
        # what stdout holds when the generator is about to yield its last
        # item, on each pass: the first partition must already be there
        name = "enumerate_nonoverlapping" if flags else "enumerate_all"
        gen = getattr(cli, name)
        out = io.StringIO()
        written = []

        def watched(n, max_n):
            *items, last = gen(n, max_n=max_n)
            yield from items
            written.append(out.getvalue())
            yield last

        monkeypatch.setattr(cli, name, watched)
        monkeypatch.setattr(sys, "stdout", out)
        assert cli.main(["enumerate", "5", *flags, "--format", "json"]) == 0
        first = json.dumps(next(gen(5)).to_json(), indent=2).replace("\n", "\n    ")
        assert first in written[-1]
        assert out.getvalue().startswith(written[-1])

    def test_guard_override(self, capsys):
        code, out, err = run(capsys, "enumerate", "4", "--max-n", "3")
        assert code == 1
        assert out == ""
        assert err == "partinv: error: n=4 exceeds the enumeration guard 3 (raise max_n to override)\n"


class TestStats:
    def test_trivial_partition(self, capsys):
        code, out, _ = run(capsys, "stats", "1")
        assert code == 0
        lines = out.splitlines()
        assert "X: 1" in lines
        assert "Y: 1" in lines
        assert "nonoverlapping: true" in lines

    def test_full_text_output(self, capsys):
        code, out, _ = run(capsys, "stats", "3/4/7/852/961")
        assert out.splitlines() == [
            "partition: 3/4/7/852/961",
            "n: 9",
            "X: 3",
            "Y: 6",
            "r: 8",
            "s: 6",
            "spans: [3,3] [4,4] [7,7] [2,8] [1,9]",
            "nonoverlapping: true",
        ]

    def test_undefined_auxiliaries_omitted(self, capsys):
        code, out, _ = run(capsys, "stats", "1/2/3")
        lines = out.splitlines()
        assert not any(line.startswith(("r:", "s:")) for line in lines)

    def test_json_uses_nulls(self, capsys):
        code, payload = run_json(capsys, "stats", "1/2/3", "--format", "json")
        assert code == 0
        assert payload["r"] is None
        assert payload["s"] is None
        assert payload["x"] == 1
        assert payload["y"] == 1
        assert payload["nonoverlapping"] is True

    def test_json_spans(self, capsys):
        _, payload = run_json(capsys, "stats", "31/62/7/854", "--format", "json")
        assert payload["spans"] == [[1, 3], [2, 6], [7, 7], [4, 8]]
        assert payload["nonoverlapping"] is False

    @settings(max_examples=200, deadline=None)
    @given(set_partitions(max_n=40))
    def test_text_and_json_agree_field_by_field(self, p):
        def stats(*flags):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["stats", format_partition(p), *flags]) == 0
            return out.getvalue()

        payload = json.loads(stats("--format", "json"))
        lines = dict(line.split(": ", 1) for line in stats().splitlines())
        assert parse(lines.pop("partition")).to_json() == payload["partition"]
        assert int(lines.pop("n")) == payload["n"] == p.n
        assert int(lines.pop("X")) == payload["x"]
        assert int(lines.pop("Y")) == payload["y"]
        for label in ("r", "s"):
            # the text line is there exactly when the JSON value is not null
            text = lines.pop(label, None)
            assert (text if text is None else int(text)) == payload[label]
        assert lines.pop("spans") == " ".join(f"[{lo},{hi}]" for lo, hi in payload["spans"])
        assert lines.pop("nonoverlapping") == json.dumps(payload["nonoverlapping"])
        assert lines == {}


class TestSigma:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "sigma", "3/4/7/852/961")
        assert code == 0
        assert out.splitlines() == ["6/7/852/9431", "orbit: lower"]

    def test_json(self, capsys):
        code, payload = run_json(capsys, "sigma", "6/7/852/9431", "--format", "json")
        assert code == 0
        assert payload["image_text"] == "3/4/7/852/961"
        assert payload["orbit"] == "upper"
        assert SetPartition.from_json(payload["input"]) == parse("6/7/852/9431")
        assert SetPartition.from_json(payload["image"]) == parse("3/4/7/852/961")

    def test_fixed_point(self, capsys):
        code, out, _ = run(capsys, "sigma", "21")
        assert out.splitlines() == ["21", "orbit: fixed"]


class TestTable:
    def test_seven_rows_text(self, capsys):
        code, out, _ = run(capsys, "table", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["n\\k", "1", "2", "3", "4", "5", "6", "7"]
        values = [[int(v) for v in line.split()[1:]] for line in lines[1:8]]
        assert values == [list(r) for r in v_table(7)]
        assert lines[8] == ""
        assert lines[9] == "row sums"
        sums = [int(line.split()[1]) for line in lines[10:17]]
        assert sums == [1, 2, 5, 14, 43, 143, 509]

    def test_json(self, capsys):
        code, payload = run_json(capsys, "table", "4", "--format", "json")
        assert code == 0
        assert payload["rows"] == [["1"], ["1", "1"], ["2", "2", "1"], ["5", "5", "3", "1"]]
        assert payload["row_sums"] == ["1", "2", "5", "14"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("n", [*range(1, 41), 120, 300])
    def test_streamed_output_matches_whole_document_oracle(self, capsys, n, fmt):
        code, out, err = run(capsys, "table", str(n), "--format", fmt)
        assert (code, err) == (0, "")
        assert out == table_output(v_table(n), fmt)

    def test_rejects_zero(self, capsys):
        code, out, err = run(capsys, "table", "0")
        assert code == 1
        assert "error" in err

    def test_guard(self, capsys):
        code, out, err = run(capsys, "table", "100000")
        assert code == 1
        assert out == ""
        assert err.startswith("partinv: error:")
        assert "guard" in err

    def test_guard_override(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TRIANGLE_MAX_N", 5)
        code, _, err = run(capsys, "table", "6")
        assert code == 1
        assert err.startswith("partinv: error:")
        code, payload = run_json(capsys, "table", "6", "--max-n", "6", "--format", "json")
        assert code == 0
        assert payload["row_sums"][-1] == "143"
        code, _, _ = run(capsys, "table", "6", "--max-n", "5")
        assert code == 1


class TestDistribution:
    def test_joint_symmetric(self, capsys):
        code, payload = run_json(capsys, "distribution", "5", "--format", "json")
        assert code == 0
        cells = {(i, j): c for i, j, c in payload["counts"]}
        assert all(cells[(j, i)] == c for (i, j), c in cells.items())

    def test_marginals_agree(self, capsys):
        _, x_payload = run_json(capsys, "distribution", "5", "--stat", "x", "--format", "json")
        _, y_payload = run_json(capsys, "distribution", "5", "--stat", "Y", "--format", "json")
        assert x_payload["counts"] == y_payload["counts"]

    def test_text_rows(self, capsys):
        code, out, _ = run(capsys, "distribution", "4", "--stat", "x")
        assert out.splitlines() == ["1 5", "2 5", "3 4", "4 1"]

    def test_nonoverlapping_y_is_v_row(self, capsys):
        code, out, _ = run(capsys, "distribution", "6", "--stat", "y", "--nonoverlapping")
        got = [tuple(map(int, line.split())) for line in out.splitlines()]
        assert got == [(1, 43), (2, 43), (3, 29), (4, 18), (5, 9), (6, 1)]


class TestAvoiders:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "avoiders", "3")
        assert code == 0
        assert out.splitlines() == ["count 5", "1 2", "2 2", "3 1"]

    def test_json(self, capsys):
        code, payload = run_json(capsys, "avoiders", "7", "--format", "json")
        assert payload["count"] == 509
        assert payload["last_entry_distribution"][2] == [3, 100]

    def test_row_100_is_the_triangle_row(self, capsys):
        code_a, avoiders = run_json(capsys, "avoiders", "100", "--format", "json")
        code_t, table = run_json(capsys, "table", "100", "--format", "json")
        assert code_a == code_t == 0
        assert [[k, int(v)] for k, v in enumerate(table["rows"][99], start=1)] == avoiders["last_entry_distribution"]
        assert avoiders["count"] == int(table["row_sums"][99])

    def test_guard(self, capsys):
        code, _, err = run(capsys, "avoiders", "301")
        assert code == 1
        assert "guard" in err


class TestVerify:
    def test_all_pass_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("PASS") for line in lines[:6])
        assert lines[6] == "6/6 checks passed"

    def test_json_shape(self, capsys):
        code, payload = run_json(capsys, "verify", "--max-n", "4", "--format", "json")
        assert code == 0
        assert payload["ok"] is True
        assert [c["check"] for c in payload["checks"]] == [
            "involution", "spans", "nonoverlapping",
            "equidistribution", "y_matches_v", "avoiders_match_v",
        ]

    @pytest.mark.parametrize("depth", ["-3", "0", "15"])
    def test_bad_depth_exits_one_at_once(self, capsys, depth):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "--max-n", depth)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert out == ""
        assert err.startswith("partinv: error:")

    @pytest.mark.parametrize("depth, message", [
        ("0", "check depth must be an integer >= 1, got 0"),
        ("-3", "check depth must be an integer >= 1, got -3"),
        ("15", "check depth 15 exceeds the enumeration guard 14"),
        ("100", "check depth 100 exceeds the enumeration guard 14"),
    ])
    def test_bad_depth_message(self, capsys, depth, message):
        # verify takes no guard override, so the message offers none
        assert run(capsys, "verify", "--max-n", depth)[1:] == ("", f"partinv: error: {message}\n")

    def test_depth_past_the_default_runs_every_check(self, capsys):
        code, out, err = run(capsys, "verify", "--max-n", "10")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "6/6 checks passed"

    def test_failure_exits_two(self, capsys, monkeypatch):
        broken = CheckReport(
            check_name="involution",
            n_range=(1, 3),
            counterexample=Counterexample(3, "321", "X/Y interchange", "2", "3"),
            elapsed=0.0,
        )
        monkeypatch.setattr(cli, "run_all", lambda n: [broken])
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert "FAIL" in out
        assert "321" in out
        assert out.splitlines()[-1] == "0/1 checks passed"


class TestErrorPaths:
    def test_no_subcommand_prints_help(self, capsys):
        code, out, err = run(capsys)
        assert code == 1
        assert "usage:" in err

    def test_help_column_is_held_at_16_on_the_top_level_only(self, monkeypatch):
        # 3.13's argparse would move the subcommand help of `partinv --help`
        # from column 16 to 18; the subcommands keep argparse's default
        monkeypatch.setenv("COLUMNS", "80")
        parser = cli.build_parser()
        assert parser._get_formatter()._max_help_position == 16
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        default = argparse.HelpFormatter("partinv")._max_help_position
        assert default != 16
        assert all(p._get_formatter()._max_help_position == default for p in sub.choices.values())

    def test_invalid_choice_keeps_its_quotes_on_later_releases(self, monkeypatch):
        # later 3.12 and 3.13 releases join argparse's choices with str, not repr;
        # the five cases that would show it must still replay to their digests
        def later_check_value(self, action, value):
            if action.choices is not None and value not in action.choices:
                args = {"value": value, "choices": ", ".join(map(str, action.choices))}
                raise argparse.ArgumentError(action, "invalid choice: %(value)r (choose from %(choices)s)" % args)

        monkeypatch.setattr(argparse.ArgumentParser, "_check_value", later_check_value)
        frozen = json.loads(CORPUS.read_text())
        for argv in (("distribution", "5", "--stat", "z", "--format", "text"),
                     ("distribution", "5", "--stat", "z", "--format", "json"),
                     ("enumerate", "3", "--format", "TEXT"), ("enumerate", "3", "--format", "JSON"), ("nosuch",)):
            assert replay(argv) == frozen[" ".join(argv)], argv

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "nosuch")
        assert code == 1
        assert "error" in err

    def test_compact_flag_is_gone(self, capsys):
        code, _, err = run(capsys, "enumerate", "3", "--compact")
        assert code == 1
        assert "unrecognized arguments: --compact" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "enumerate", "3", "--format", "xml")
        assert code == 1
        assert "invalid choice" in err

    def test_non_integer_argument(self, capsys):
        code, _, err = run(capsys, "enumerate", "three")
        assert code == 1

    def test_parse_error_reported(self, capsys):
        code, _, err = run(capsys, "stats", "3//1")
        assert code == 1
        assert "position" in err

    def test_validation_error_reported(self, capsys):
        code, _, err = run(capsys, "sigma", "2/1")
        assert code == 1
        assert "increasing" in err

    @pytest.mark.parametrize("argv", [("enumerate", "10"), ("enumerate", "9", "--format", "json"),
                                      ("table", "300"), ("table", "300", "--format", "json")])
    def test_closed_pipe_exits_1_quietly(self, argv):
        # a reader that stops after one line, as `partinv enumerate 10 | head -1`;
        # the output is megabytes, so the child is still writing when the pipe closes,
        # and a table is then partway through its rows
        env = {**os.environ, "PYTHONPATH": str(Path(partinv.__file__).resolve().parent.parent)}
        proc = subprocess.Popen([sys.executable, "-m", "partinv.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert (first in (b"10,9,8,7,6,5,4,3,2,1\n", b"{\n")
                or first.startswith(b"n\\k  ") and first.endswith(b"  300\n"))
        assert err == b""
