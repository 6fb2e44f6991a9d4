"""Permutations avoiding the two vincular patterns behind the v-triangle:
the avoider predicate, and the count of avoiders by last entry.

Vincular convention: letters under a common overline must sit in adjacent
positions of the host permutation; the remaining letter may sit anywhere
on its side. Adjacency is a lower bound, so three mutually adjacent
letters still count (123 contains both patterns).

    12_3 (first two adjacent): positions i, i+1, j with j >= i+2 and
        p(i) < p(i+1) < p(j)
    1_23 (last two adjacent): positions i, j, j+1 with i < j and
        p(i) < p(j) < p(j+1)

Both the predicate and the count rest on one append rule: append a last
entry k to an avoider of length m and shift up by one every older entry
>= k. Deleting the last entry of an avoider and closing the gap gives an
avoider, so each avoider of length m + 1 comes from exactly one of length
m. The new entry completes an occurrence only as the 3 of 12_3, under an
ascent whose top is below k, or as the 3 of 1_23, when the old last entry
l is below k and is not the minimum, 1. So with b the smallest ascent top
(m + 1 when there is no ascent), the appends that keep an avoider are

    k <= l           giving (k, b + 1): a descent, every old top shifted;
    2 <= k <= b      when l = 1, giving (k, k): a new ascent with top k.

(l <= b always: a last entry above the top of an ascent that ends before
it completes 12_3, and an ascent that ends at it has top l.)

The predicate reads the rule along one permutation: p is an avoider when
each entry, appended to the prefix before it, is an allowed append. Only
an ascent a < b can break the rule, and it does when a is not the least
entry so far (a 1_23) or b is above the least earlier ascent top (a
12_3); a pass that keeps the running minimum and that top decides p in
O(n). The count lists no permutation: it tallies avoiders by the state
(l, b) and takes O(n^3) big-integer additions, not the n! * n steps of a
scan.

Boundary: every public function here checks its input from outside.
is_avoider refuses anything that is not a permutation of 1..n, text,
bytes, sets and mappings included, with ValidationError;
avoider_last_entry_distribution refuses a bad n or max_n with BoundError
before its count starts.
"""

from collections.abc import Set
from itertools import accumulate, islice, zip_longest
from typing import Sequence

from .errors import NOT_ENTRIES, ValidationError, check_bound, is_int

#: Default ceiling on n, as for the triangle (recurrence.TRIANGLE_MAX_N).
#: The count takes O(n^3) big-integer additions: 0.2-0.3 s at n = 300 on
#: a 2-core AMD EPYC VM.
AVOIDER_MAX_N = 300


def _permutation(p) -> tuple[int, ...]:
    """p as a tuple, once it is known to be a permutation of 1..len(p).
    The types of errors.NOT_ENTRIES, and sets, which have no order, are
    refused before tuple() can read "" or b"\\x01" as one. The abstract
    Set and Mapping take in frozenset, dict.keys() and mappingproxy as
    well as set and dict."""
    if isinstance(p, (*NOT_ENTRIES, Set)):
        raise ValidationError(f"expected a permutation, got {type(p).__name__}")
    try:
        perm = tuple(p)
    except TypeError:
        raise ValidationError(f"expected a permutation, got {p!r}") from None
    for e in perm:
        if not is_int(e):
            raise ValidationError(f"entry {e!r} is not an integer")
    if set(perm) != set(range(1, len(perm) + 1)):
        raise ValidationError(f"{perm} is not a permutation of 1..{len(perm)}")
    return perm


def is_avoider(p: Sequence[int]) -> bool:
    """Neither pattern occurs."""
    return _is_avoider(_permutation(p))


def _is_avoider(p: tuple[int, ...]) -> bool:
    """The append rule of the module docstring along p: low is the least
    entry so far, top the least ascent top (len(p) + 1 while there is none)."""
    low = top = len(p) + 1
    for a, b in zip(p, p[1:]):
        low = min(low, a)
        if a < b:
            if a > low or b > top:
                return False
            top = b
    return True


def _suffix_sums(values: list[int]) -> list[int]:
    """s[i] = values[i] + values[i + 1] + ... + values[-1]."""
    return [*accumulate(reversed(values))][::-1]


def _avoider_columns():
    """The count's state for avoiders of length m = 1, 2, ... in turn,
    without end. Applies the append rule of the module docstring to the one
    avoider of [1]. cols[b - 2][l - 1] counts the avoiders of length m in
    state (l, b), for 2 <= b <= m + 1. An append turns column b - 1 (none
    when b = 2) into column b: its suffix sums count the descents, k <= l,
    and on top of them goes the count of the ascents to k = b, the avoiders
    that end in 1 and have an ascent top of b or more."""
    cols = [[1]]
    while True:
        yield cols
        # ones[b - 2]: the avoiders ending in 1 whose smallest ascent top is b or more
        ones = _suffix_sums([col[0] for col in cols]) + [0]
        cols = [_suffix_sums(col) + [top] for col, top in zip([[0], *cols], ones)]


def _by_last_entry(cols: list[list[int]]) -> dict[int, int]:
    return {k: sum(cells) for k, cells in enumerate(zip_longest(*cols, fillvalue=0), start=1)}


def _last_entry_distributions():
    """avoider_last_entry_distribution(m) for m = 1, 2, ... in turn, without
    end and unguarded, from one run of the count: O(n^3) big-integer
    additions to reach n, where calling avoider_last_entry_distribution
    for each m <= n takes O(n^4)."""
    return map(_by_last_entry, _avoider_columns())


def avoider_last_entry_distribution(n: int, max_n: int = AVOIDER_MAX_N) -> dict[int, int]:
    """Count avoiders of [n] by final value; keys are all of 1..n. The count
    runs n - 1 appends (see _avoider_columns) and sums only the last state."""
    check_bound(n, max_n, "avoider")
    return _by_last_entry(next(islice(_avoider_columns(), n - 1, None)))
