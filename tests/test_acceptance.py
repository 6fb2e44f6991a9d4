"""Acceptance gate: each test runs one top-level criterion over its full
stated range and asserts both zero violations and the wall-clock budget.
Run with -v for one pass/fail line per criterion; each test also prints
an ACCEPTANCE line (shown under -rA).

Scales are exhaustive-oracle scales: nothing here samples, extrapolates,
or asserts anything about large-n behavior beyond the swept ranges.
"""

from time import perf_counter

import partinv.cli as cli
from partinv import (
    ALL_CHECKS,
    bessel,
    check_avoiders_match_v,
    check_equidistribution,
    check_involution,
    check_nonoverlapping,
    check_spans,
    enumerate_all,
    enumerate_nonoverlapping,
    format_partition,
    parse,
    sigma,
    stat_x,
    stat_y,
    v_table,
)
from partinv.verify import DEFAULT_LIMITS
from oracles import preimage_map

TRIANGLE_7 = [
    [1],
    [1, 1],
    [2, 2, 1],
    [5, 5, 3, 1],
    [14, 14, 9, 5, 1],
    [43, 43, 29, 18, 9, 1],
    [143, 143, 100, 66, 39, 17, 1],
]

SIGMA_EXAMPLES = [
    ("3/4/7/852/961", "6/7/852/9431"),
    ("2/431", "3/421"),
    ("3/4/652/7/981", "652/7/98431"),
    ("2/3/4/51", "54321"),
]


def _budget(k, t0, limit):
    elapsed = perf_counter() - t0
    assert elapsed < limit, f"criterion {k} took {elapsed:.1f}s, budget {limit}s"
    print(f"ACCEPTANCE {k} PASS ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_table_reproduction(capsys):
    t0 = perf_counter()
    assert cli.main(["table", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = [[int(v) for v in line.split()[1:]] for line in lines[1:8]]
    assert values == TRIANGLE_7
    _budget(1, t0, 1.0)


def test_criterion_2_worked_examples(capsys):
    t0 = perf_counter()
    for source, image in SIGMA_EXAMPLES:
        assert format_partition(sigma(parse(source))) == image
        assert cli.main(["sigma", source]) == 0
        assert capsys.readouterr().out.splitlines()[0] == image
    assert stat_y(parse("1/32")) == 1
    assert stat_y(parse("3/4/652/7/981")) == 6
    _budget(2, t0, 1.0)


def test_criterion_3_involution_suite():
    t0 = perf_counter()
    for report in (check_involution(10), check_spans(10), check_nonoverlapping(10)):
        assert report.ok, report.summary()
    _budget(3, t0, 30.0)


def test_criterion_4_equidistribution():
    t0 = perf_counter()
    report = check_equidistribution(10)
    assert report.ok, report.summary()
    _budget(4, t0, 60.0)


def test_criterion_5_bessel_consistency():
    t0 = perf_counter()
    sums = [sum(row) for row in v_table(12)]
    assert sums[6] == bessel(7) == 509
    for n in range(1, 13):
        count = sum(1 for _ in enumerate_nonoverlapping(n))
        assert count == sums[n - 1] == bessel(n), n
    _budget(5, t0, 120.0)


def test_criterion_6_pattern_avoidance_identity():
    t0 = perf_counter()
    report = check_avoiders_match_v(8)
    assert report.ok, report.summary()
    _budget(6, t0, 60.0)


def test_criterion_7_inverse_oracle():
    t0 = perf_counter()
    for n in range(1, 9):
        preimages = preimage_map(n)
        uppers = {p for p in enumerate_all(n) if stat_x(p) > stat_y(p)}
        assert set(preimages) == uppers
        for q in uppers:
            assert len(preimages[q]) == 1, format_partition(q)
            assert sigma(q) == preimages[q][0], format_partition(q)
    _budget(7, t0, 30.0)


def test_criterion_8_exhaustive_scope_only():
    """No large-n or asymptotic claim is made anywhere: the shipped
    checks are exactly the six exhaustive sweeps, at desk-scale depths."""
    t0 = perf_counter()
    assert [name for name, _ in ALL_CHECKS] == [
        "involution", "spans", "nonoverlapping",
        "equidistribution", "y_matches_v", "avoiders_match_v",
    ]
    assert DEFAULT_LIMITS == {
        "involution": 10,
        "spans": 10,
        "nonoverlapping": 10,
        "equidistribution": 10,
        "y_matches_v": 11,
        "avoiders_match_v": 8,
    }
    _budget(8, t0, 1.0)
