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
suf[n][k] = sum_{i=k}^{n} v[n][i] (and suf[n][n+1] = 0), each sum over i
is one suffix sum of an earlier row:

    v[n][1] = suf[n-1][1]                              n >= 2
    v[n][k] = suf[n-1][k] + sum_{d=2}^{k} C(k-2, d-2) * suf[n-d][k+1-d]
                                                       2 <= k <= n-1

Every suffix sum on the right lies on the diagonal n - k - 1 of suf. Kept
by diagonal, D[e][k] = suf[k+e][k], and with C(k-2, d-2) = C(k-2, k-d):

    D[0][k] = 1
    D[e][k] = D[e-1][k+1] + D[e-1][k]
            + sum_{j=1}^{k-1} C(k-2, j-1) * D[e-1][j]          e >= 1

so v[n][k] = suf[n][k] - suf[n][k+1] and the row sum is suf[n][1].

The weighted sum is the binomial transform of a_i = D[e-1][i+1] at order
N = k-2, b_N = sum_{i=0}^{N} C(N, i) * a_i, and each row raises N by one
and brings one new term, a_N = D[e-1][k-1]. Its Pascal table,

    A_N[0] = a_N,   A_N[t] = A_N[t-1] + A_{N-1}[t-1],   b_N = A_N[N],

needs only its last anti-diagonal A_{N-1}[0..N-1] to make the next one:
A_N is the running sum of A_{N-1} seeded with a_N. So each term of the
sum costs one big-integer addition, with no multiplication and no
binomial coefficient.

The triangle is built bottom-up, one row at a time, in O(n^3) big-integer
additions instead of O(n^4), with no recursion. The one table grows on
demand and is shared by every function here; nothing is computed at
import. All arithmetic is exact: entries grow super-exponentially and
leave 64-bit range near n = 25.
"""

import threading
from dataclasses import dataclass
from itertools import accumulate

from .errors import DomainError, check_bound, is_int

#: Default ceiling on the rows built. The build costs O(n^3) big-integer
#: additions on numbers of O(n log n) digits. On a 2-core Xeon VM a cold
#: `partinv table 300 --format json` takes 0.5-0.8 s, peaks at 73 MiB and
#: writes 11 MB; at 400 rows that is 1.3-2.1 s, 165 MiB and 27 MB.
TRIANGLE_MAX_N = 300

#: _diag[e][k] = suf[k+e][k]; index 0 of each diagonal is a placeholder.
#: Rows 1..n are complete once len(_diag) == n.
_diag: list[list[int]] = []

#: _pascal[d] = A_N[0..N] for the binomial transform of _diag[d][1:], at
#: the order N the latest row used (empty before it is first needed).
_pascal: list[list[int]] = []

#: Held while the table grows, so concurrent callers never build a row twice.
_grow_lock = threading.Lock()


def _build(n: int, max_n: int) -> None:
    """Grow the table to row n, or raise BoundError above the guard."""
    check_bound(n, max_n, "triangle")
    if n <= len(_diag):
        return
    with _grow_lock:
        diag, pascal = _diag, _pascal
        for m in range(len(diag) + 1, n + 1):
            # row m adds suf[m][m-e] to each diagonal e, nearest the main one first
            new = [1]
            for e in range(1, m):
                k = m - e
                prev = diag[e - 1]
                a = pascal[e - 1]
                # advance to order k-2 only once: a retry of a row an
                # interrupt cut short finds the diagonals it reached advanced
                if len(a) < k - 1:
                    a = pascal[e - 1] = list(accumulate(a, initial=prev[k - 1]))
                new.append(new[-1] + prev[k] + (a[-1] if a else 0))
            # store by index, not append, so a row left half-written by an
            # interrupt is overwritten; the new diagonal goes last, after
            # its empty Pascal state, as it marks the row complete
            for e, value in enumerate(new[:-1]):
                diag[e][m - e:] = [value]
            pascal[m - 1:] = [[]]
            diag.append([0, new[-1]])


def _entry(n: int, k: int) -> int:
    """v[n][k] from a table built to row n."""
    if k == n:
        return 1
    return _diag[n - k][k] - _diag[n - k - 1][k + 1]


def v_compute(n: int, k: int, max_n: int = TRIANGLE_MAX_N) -> int:
    """Entry v[n][k] of the triangle."""
    if not (is_int(n) and is_int(k) and 1 <= k <= n):
        raise DomainError(f"need integers 1 <= k <= n, got n={n!r}, k={k!r}")
    _build(n, max_n)
    return _entry(n, k)


@dataclass(frozen=True)
class VTable:
    """The triangle v[n][k] for 1 <= k <= n <= n_max; rows[i] is row n=i+1."""

    n_max: int
    rows: tuple[tuple[int, ...], ...]

    def entry(self, n: int, k: int) -> int:
        if not (is_int(n) and is_int(k) and 1 <= k <= n <= self.n_max):
            raise DomainError(f"need 1 <= k <= n <= {self.n_max}, got n={n!r}, k={k!r}")
        return self.rows[n - 1][k - 1]

    def row(self, n: int) -> tuple[int, ...]:
        if not (is_int(n) and 1 <= n <= self.n_max):
            raise DomainError(f"need 1 <= n <= {self.n_max}, got n={n!r}")
        return self.rows[n - 1]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)


def v_table(n_max: int, max_n: int = TRIANGLE_MAX_N) -> VTable:
    """The full triangle up to row n_max."""
    if not is_int(n_max) or n_max < 1:
        raise DomainError(f"n_max must be an integer >= 1, got {n_max!r}")
    _build(n_max, max_n)
    rows = tuple(tuple(_entry(n, k) for k in range(1, n + 1)) for n in range(1, n_max + 1))
    return VTable(n_max, rows)


def bessel(n: int, max_n: int = TRIANGLE_MAX_N) -> int:
    """Row sum of the triangle: the number of nonoverlapping partitions of [n]."""
    if not is_int(n) or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    _build(n, max_n)
    return _diag[n - 1][1]
