"""Brute-force machinery for permutations avoiding the two vincular
patterns behind the v-triangle, and their last-entry distribution.

Vincular convention: letters under a common overline must sit in adjacent
positions of the host permutation; the remaining letter may sit anywhere
on its side. Adjacency is a lower bound, so three mutually adjacent
letters still count (123 contains both patterns).

    12_3 (first two adjacent): positions i, i+1, j with j >= i+2 and
        p(i) < p(i+1) < p(j)
    1_23 (last two adjacent): positions i, j, j+1 with i < j and
        p(i) < p(j) < p(j+1)

Boundary: every public function here checks its input from outside.
is_avoider, contains_12adj_3 and contains_1_23adj refuse anything that is
not a permutation of 1..n, text, bytes, sets and mappings included, with
ValidationError; avoider_last_entry_distribution refuses a bad n or max_n
with BoundError before its scan starts. The scan over all n! permutations
calls the unchecked kernels behind the predicates.
"""

from collections import Counter
from collections.abc import Set
from itertools import permutations
from typing import Sequence

from .errors import NOT_ENTRIES, ValidationError, check_bound, is_int

#: 9! = 362880 hosts; the n! * n scan stays interactive up to here.
AVOIDER_MAX_N = 9


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


def contains_12adj_3(p: Sequence[int]) -> bool:
    """Some adjacent ascent is followed, two or more places later, by a
    larger value."""
    return _contains_12adj_3(_permutation(p))


def contains_1_23adj(p: Sequence[int]) -> bool:
    """Some adjacent ascent is preceded, anywhere earlier, by a smaller
    value."""
    return _contains_1_23adj(_permutation(p))


def is_avoider(p: Sequence[int]) -> bool:
    """Neither pattern occurs."""
    return _is_avoider(_permutation(p))


def _contains_12adj_3(p: tuple[int, ...]) -> bool:
    n = len(p)
    if n < 3:
        return False
    suffix_max = 0
    # scan ascents right to left so the suffix maximum is available
    for i in range(n - 3, -1, -1):
        suffix_max = max(suffix_max, p[i + 2])
        if p[i] < p[i + 1] < suffix_max:
            return True
    return False


def _contains_1_23adj(p: tuple[int, ...]) -> bool:
    n = len(p)
    if n < 3:
        return False
    prefix_min = p[0]
    for j in range(1, n - 1):
        if prefix_min < p[j] < p[j + 1]:
            return True
        if p[j] < prefix_min:
            prefix_min = p[j]
    return False


def _is_avoider(p: tuple[int, ...]) -> bool:
    return not _contains_12adj_3(p) and not _contains_1_23adj(p)


def avoider_last_entry_distribution(n: int, max_n: int = AVOIDER_MAX_N) -> dict[int, int]:
    """Count avoiders of [n] by final value; keys are all of 1..n.

    Scans the n! permutations in lexicographic order.
    """
    check_bound(n, max_n, "factorial")
    counts = Counter()
    for p in permutations(range(1, n + 1)):
        if _is_avoider(p):
            counts[p[-1]] += 1
    return {k: counts[k] for k in range(1, n + 1)}
