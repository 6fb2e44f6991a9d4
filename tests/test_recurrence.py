"""The v-triangle, row sums, exact big-integer arithmetic, the guard on
the rows built, and a build that keeps no table between calls."""

import ast
import inspect
import sys
import threading
import time
from math import comb

import pytest

import partinv.recurrence as recurrence
from partinv import (
    BoundError,
    PartinvError,
    bessel,
    enumerate_nonoverlapping,
    v_compute,
    v_table,
)
from partinv.recurrence import TRIANGLE_MAX_N
from oracles import v_alt_table

# Rows n = 1..7 as they appear in print; frozen after confirming every
# entry against the recurrence by hand (row 4) and the avoider brute
# force (test_patterns, verify).
TRIANGLE_7 = [
    [1],
    [1, 1],
    [2, 2, 1],
    [5, 5, 3, 1],
    [14, 14, 9, 5, 1],
    [43, 43, 29, 18, 9, 1],
    [143, 143, 100, 66, 39, 17, 1],
]

# Frozen after two independent derivations agreed: row sums of the
# recurrence and the span-laminarity enumeration count (also OEIS
# A006789, which this sequence is).
BESSEL_12 = [1, 2, 5, 14, 43, 143, 509, 1922, 7651, 31965, 139685, 636712]


@pytest.fixture(scope="module")
def alt60():
    """The O(n^4) oracle to row 60, built once: it takes seconds."""
    return v_alt_table(60)


def assert_matches_oracle(rows: tuple, alt: dict) -> None:
    for n in range(1, len(rows) + 1):
        for k in range(1, n + 1):
            assert rows[n - 1][k - 1] == alt[(n, k)], (n, k)


class TestVCompute:
    def test_table_entries(self):
        assert v_compute(7, 5) == 39
        assert v_compute(6, 1) == 43
        assert v_compute(4, 4) == 1

    def test_hand_expansion(self):
        # v[4][2] = (v[3][2] + v[3][3]) + C(0,0) * (v[2][1] + v[2][2])
        assert v_compute(4, 2) == (2 + 1) + (1 + 1) == 5

    @pytest.mark.parametrize("n, k", [(3, 0), (3, 4), (0, 1), (5, -1)])
    def test_domain(self, n, k):
        with pytest.raises(BoundError, match="need integers 1 <= k <= n"):
            v_compute(n, k)


class TestVTable:
    def test_reproduces_seven_rows(self):
        assert [list(r) for r in v_table(7)] == TRIANGLE_7

    def test_small_tables(self):
        assert [list(r) for r in v_table(3)] == [[1], [1, 1], [2, 2, 1]]
        assert v_table(1) == ((1,),)

    def test_rows(self):
        rows = v_table(7)
        assert len(rows) == 7
        assert rows[7 - 1][5 - 1] == 39
        assert rows[6 - 1] == (43, 43, 29, 18, 9, 1)
        assert tuple(sum(row) for row in rows) == (1, 2, 5, 14, 43, 143, 509)

    def test_rows_are_the_stored_tuples(self):
        # tuples all the way down, so no caller can alter the rows it reads
        rows = v_table(7)
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)

    def test_rejects_empty(self):
        with pytest.raises(BoundError):
            v_table(0)

    def test_shape_and_positivity(self):
        rows = v_table(12)
        assert len(rows) == 12
        for n in range(1, 13):
            row = rows[n - 1]
            assert len(row) == n
            assert row[-1] == 1
            assert all(value >= 1 for value in row)

    def test_columns_never_decrease_and_row_sums_increase(self):
        # v[n][k] = suf[n-1][k] + b >= v[n-1][k]; the text table takes its
        # column widths from the last row and its sum width from the last sum
        rows = v_table(TRIANGLE_MAX_N)
        for above, below in zip(rows, rows[1:]):
            assert all(a <= b for a, b in zip(above, below))
            assert sum(above) < sum(below)


class TestBessel:
    def test_values(self):
        assert bessel(1) == 1
        assert bessel(7) == 509 == 143 + 143 + 100 + 66 + 39 + 17 + 1
        assert [bessel(n) for n in range(1, 13)] == BESSEL_12

    def test_rejects_nonpositive(self):
        with pytest.raises(BoundError):
            bessel(0)

    def test_counts_nonoverlapping_partitions(self):
        for n in range(1, 10):
            assert bessel(n) == sum(1 for _ in enumerate_nonoverlapping(n))

    def test_first_column_identities(self):
        # v[n][1] = bessel(n-1) drops straight out of the k = 1 line
        for n in range(2, 13):
            assert v_compute(n, 1) == bessel(n - 1)
            # observed in every computed row; not a proved identity here
            assert v_compute(n, 1) == v_compute(n, 2)


def test_large_table_exact_arithmetic():
    """Entries near n = 40 overflow 64-bit arithmetic; recomputing the
    whole triangle with the summations nested the other way must agree
    bit for bit."""
    rows = v_table(40)
    alt = v_alt_table(40)
    assert rows[40 - 1][20 - 1] == alt[(40, 20)]
    assert rows[40 - 1][20 - 1] > 2**64
    for n in range(1, 41):
        for k in range(1, n + 1):
            assert rows[n - 1][k - 1] == alt[(n, k)]


def test_matches_oracle_cell_for_cell_to_60(alt60):
    assert_matches_oracle(v_table(60), alt60)


def test_build_order_does_not_matter(alt60):
    assert v_compute(25, 3) == alt60[(25, 3)]
    t60 = v_table(60)
    assert_matches_oracle(t60, alt60)
    assert bessel(45) == sum(alt60[(45, k)] for k in range(1, 46))
    assert v_table(30) == t60[:30]


def test_interrupted_row_is_rebuilt(monkeypatch, alt60):
    """An interrupt anywhere in a build leaves nothing behind, and the
    retry builds every row afresh. Every accumulate call of a 20-row
    build is interrupted in turn: rows 2..20 make one call for the suffix
    sums of the row above, rows 3..20 one for those of the row two above,
    and row m one per Pascal advance, m - 2."""
    n = 20
    expected = tuple(tuple(alt60[(m, k)] for k in range(1, m + 1)) for m in range(1, n + 1))
    real = recurrence.accumulate
    calls = stop = 0

    def interrupted(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == stop:
            raise KeyboardInterrupt
        return real(*args, **kwargs)

    monkeypatch.setattr(recurrence, "accumulate", interrupted)
    assert v_table(n) == expected
    total = calls
    assert total == 19 + 18 + sum(range(1, 19))
    for stop in range(1, total + 1):
        calls = 0
        with pytest.raises(KeyboardInterrupt):
            v_table(n)
        assert calls == stop
        assert v_table(n) == expected, stop
        assert calls == stop + total, stop


def test_pascal_state_is_one_anti_diagonal_per_diagonal(monkeypatch):
    """After row n, diagonal d <= n-3 has been transformed at order n-d-3:
    its Pascal state holds n-d-2 entries, the last being the binomial sum
    sum_j C(n-d-3, j) * D[d][j+1] the last row read, where
    D[d][i] = suf[i+d][i] is diagonal d of the suffix sums. The state is
    local to the build, so it is read off the seeded accumulate calls,
    one per Pascal advance: row m makes m - 2, and the last n - 2 are
    row n's."""
    n = 12
    real = recurrence.accumulate
    advances = []

    def recorded(*args, **kwargs):
        out = list(real(*args, **kwargs))
        if "initial" in kwargs:
            advances.append(out)
        return iter(out)

    monkeypatch.setattr(recurrence, "accumulate", recorded)
    rows = v_table(n)
    assert len(advances) == sum(range(1, n - 1))
    pascal = advances[-(n - 2):]
    for d, a in enumerate(pascal):
        order = n - d - 3
        assert len(a) == order + 1
        diag = [sum(rows[i + d - 1][i - 1:]) for i in range(1, order + 2)]
        assert a[-1] == sum(comb(order, j) * diag[j] for j in range(order + 1))


def test_concurrent_growth(alt60):
    results = []

    def worker(sizes):
        results.extend(v_table(n) for n in sizes)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sizes = [range(start, 41, 4) for start in range(1, 5)]
        sizes += [list(reversed(r)) for r in sizes]
        threads = [threading.Thread(target=worker, args=(r,)) for r in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 80
    for table in results:
        assert_matches_oracle(table, alt60)


def test_no_cache_decorator_and_no_recursion():
    tree = ast.parse(inspect.getsource(recurrence))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "functools" not in imported | modules
    assert not {"cache", "lru_cache"} & imported
    # no table, lock or global state: each call builds its rows afresh
    assert "threading" not in imported | modules
    assert not any(isinstance(node, ast.Global) for node in ast.walk(tree))
    t30, t60 = v_table(30), v_table(60)
    assert t30 == t60[:30]
    state = (list, tuple, dict, set, type(threading.Lock()), type(threading.RLock()))
    kept = {name for name, value in vars(recurrence).items()
            if isinstance(value, state) and not name.startswith("__")}
    assert not kept - imported - {"TRIANGLE_MAX_N"}, kept
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            called = {node.func.id for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
            assert fn.name not in called, fn.name


class TestGuard:
    def test_far_out_of_range_is_a_partinv_error_at_once(self):
        t = time.perf_counter()
        with pytest.raises(PartinvError):
            v_compute(1500, 3)
        assert time.perf_counter() - t < 1.0

    @pytest.mark.parametrize("call", [
        lambda: v_compute(TRIANGLE_MAX_N + 1, 1),
        lambda: v_table(TRIANGLE_MAX_N + 1),
        lambda: bessel(TRIANGLE_MAX_N + 1),
        lambda: v_table(9, max_n=8),
        lambda: v_table(100000),
    ])
    def test_bound(self, call):
        with pytest.raises(BoundError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: v_compute(TRIANGLE_MAX_N + 1, TRIANGLE_MAX_N + 2),
        lambda: v_compute(3, 4),
    ])
    def test_domain_checked_first(self, call):
        # the cell's message, not the row guard's
        with pytest.raises(BoundError, match="need integers 1 <= k <= n"):
            call()

    @pytest.mark.parametrize("call, size, value", [
        (lambda: v_table(-1), "n", -1),
        (lambda: bessel(0), "row", 0),
    ], ids=["v_table", "bessel"])
    def test_row_count_checked_before_its_guard(self, call, size, value):
        # a bad n is named before a bad max_n, by check_bound
        with pytest.raises(BoundError, match=f"^{size} must be an integer >= 1, got {value}$"):
            call()

    def test_lower_guard_admits_its_own_row(self):
        assert v_table(9, max_n=9)[9 - 1][3 - 1] == v_compute(9, 3)
        assert sum(v_table(9, max_n=9)[9 - 1]) == 7651


class TestOneDoor:
    """v_table is the one function that builds the triangle; v_compute and
    bessel read their row through it and keep the default guard."""

    def test_cells_and_sums_read_the_table(self):
        for n in range(1, 61):
            row = v_table(n)[n - 1]
            assert [v_compute(n, k) for k in range(1, n + 1)] == list(row), n
            assert bessel(n) == sum(row), n

    @pytest.mark.parametrize("call", [lambda: v_compute(TRIANGLE_MAX_N + 1, 1),
                                      lambda: bessel(TRIANGLE_MAX_N + 1)], ids=["v_compute", "bessel"])
    def test_past_the_guard_names_no_max_n(self, call):
        # neither takes max_n, so neither message may offer raising it
        with pytest.raises(BoundError, match=f"^row {TRIANGLE_MAX_N + 1} exceeds the triangle guard "
                                             f"{TRIANGLE_MAX_N}$") as raised:
            call()
        assert "max_n" not in str(raised.value)

    def test_v_table_lifts_its_guard(self):
        rows = v_table(400, max_n=400)
        assert len(rows) == 400 and rows[-1][-1] == 1
        assert rows[:TRIANGLE_MAX_N] == v_table(TRIANGLE_MAX_N)
        # row 301, the first past the guard: v[n][1] = bessel(n-1), v[n][n] = 1,
        # and its sum passes the last sum under the guard
        last_sum = bessel(TRIANGLE_MAX_N)
        first_past = rows[TRIANGLE_MAX_N]
        assert first_past[0] == last_sum and first_past[-1] == 1
        assert sum(first_past) > last_sum
