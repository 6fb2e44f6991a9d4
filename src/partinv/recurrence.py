"""The triangular recurrence v[n][k] counting pattern avoiders by last
entry, its row sums (the counting sequence of nonoverlapping partitions,
OEIS A006789), and exact big-integer evaluation.

The paper's recurrence:

    v[n][n] = 1                                        n >= 1
    v[n][1] = sum_{i=1}^{n-1} v[n-1][i]                n >= 2
    v[n][k] = sum_{i=k}^{n-1} v[n-1][i]
            + sum_{i=k+1}^{n} sum_{d=2}^{k} C(k-2, d-2) * v[n-d][i-d]
                                                       2 <= k <= n-1

Empty sums are 0 and C(0, 0) = 1. With the suffix sums
suf[n][k] = sum_{i=k}^{n} v[n][i], each sum over i is one suffix sum of
an earlier row, and with j = k - d, so C(k-2, d-2) = C(k-2, j), the
build runs

    v[n][1] = suf[n-1][1]                              n >= 2
    v[n][k] = suf[n-1][k] + b_{k-2}                    2 <= k <= n-1
    b_N = sum_{j=0}^{N} C(N, j) * suf[n-k+j][j+1]

The table stores v, one tuple per row; suf of the two rows above comes
from one running sum over each. The terms of b_N lie on diagonal n-k-1 of
suf, which row n+1 reads at k+1: b_N is a binomial transform, and each
row raises its order N by one and brings one new term, a_N = suf[n-2][k-1].
Its Pascal table,

    A_N[0] = a_N,   A_N[t] = A_N[t-1] + A_{N-1}[t-1],   b_N = A_N[N],

needs only its last anti-diagonal A_{N-1}[0..N-1] to make the next one:
A_N is the running sum of A_{N-1} seeded with a_N. So each term costs one
big-integer addition, with no multiplication and no binomial coefficient.

The triangle is built bottom-up, one row at a time, in O(n^3) big-integer
additions instead of O(n^4), with no recursion. v_table builds rows
1..n_max afresh on each call and keeps nothing between calls, so read
many cells from one v_table(n); v_compute and bessel read their row
through it, and nothing is computed at import. v_table returns a tuple
of row tuples, which no caller can alter.
All arithmetic is exact: entries grow super-exponentially and leave
64-bit range near n = 25.
"""

from itertools import accumulate

from .errors import BoundError, check_bound, is_int

#: Default ceiling on the rows built. The build costs O(n^3) big-integer
#: additions on numbers of O(n log n) digits. On a 2-core AMD EPYC VM
#: (three runs each, stdout to /dev/null) a cold `partinv table 300`
#: takes 0.21-0.22 s, peaks at 42 MiB and writes 11 MB with
#: `--format json`, and takes 0.22-0.24 s at 42 MiB for 18 MB of text; at
#: 400 rows that is 0.59-0.69 s, 76 MiB and 27 MB of JSON, or
#: 0.64-0.66 s, 76 MiB and 45 MB of text.
TRIANGLE_MAX_N = 300


def v_table(n_max: int, max_n: int = TRIANGLE_MAX_N) -> tuple[tuple[int, ...], ...]:
    """Rows 1..n_max of the triangle, built afresh on each call: row n is
    (v[n][1], ..., v[n][n]) at index n-1, and the row count is n_max. It
    raises BoundError past max_n. pascal[d] holds A_N[0..N] for diagonal d
    of suf, at the order N the latest row used."""
    check_bound(n_max, max_n, "triangle")
    rows, pascal = (), []
    for m in range(1, n_max + 1):
        # suf[m-1][k] and the seeds suf[m-2][k-1], for k = m-1 down
        above = list(accumulate(reversed(rows[m - 2]))) if m > 1 else []
        seeds = accumulate(reversed(rows[m - 3])) if m > 2 else ()
        # diagonal m-3 of suf starts at row m, from an empty state
        pascal = [list(accumulate(a, initial=seed)) for a, seed in zip([*pascal, []], seeds)]
        row = [above[d] + a[-1] for d, a in enumerate(pascal)]
        rows = (*rows, (*above[-1:], *reversed(row), 1))
    return rows


def v_compute(n: int, k: int) -> int:
    """Entry v[n][k] of the triangle, for rows up to TRIANGLE_MAX_N; read a
    row past it as v_table(n, max_n=n)[n - 1][k - 1]. Each call builds rows
    1..n in O(n^3) big-integer additions and keeps nothing, so read many
    cells from one v_table(n)."""
    if not (is_int(n) and is_int(k) and 1 <= k <= n):
        raise BoundError(f"need integers 1 <= k <= n, got n={n!r}, k={k!r}")
    check_bound(n, TRIANGLE_MAX_N, "triangle", "row")
    return v_table(n)[n - 1][k - 1]


def bessel(n: int) -> int:
    """Row sum of the triangle: the number of nonoverlapping partitions of
    [n], for rows up to TRIANGLE_MAX_N; read a row past it as
    sum(v_table(n, max_n=n)[n - 1]). Each call builds rows 1..n in O(n^3)
    big-integer additions and keeps nothing, so read many sums from one
    v_table(n)."""
    check_bound(n, TRIANGLE_MAX_N, "triangle", "row")
    return sum(v_table(n)[n - 1])
