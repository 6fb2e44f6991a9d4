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
"""

from collections import Counter
from itertools import permutations
from typing import Sequence

from .errors import check_bound

#: 9! = 362880 hosts; the n! * n scan stays interactive up to here.
AVOIDER_MAX_N = 9


def contains_12adj_3(p: Sequence[int]) -> bool:
    """Some adjacent ascent is followed, two or more places later, by a
    larger value."""
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


def contains_1_23adj(p: Sequence[int]) -> bool:
    """Some adjacent ascent is preceded, anywhere earlier, by a smaller
    value."""
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


def is_avoider(p: Sequence[int]) -> bool:
    """Neither pattern occurs."""
    return not contains_12adj_3(p) and not contains_1_23adj(p)


def avoider_last_entry_distribution(n: int, max_n: int = AVOIDER_MAX_N) -> dict[int, int]:
    """Count avoiders of [n] by final value; keys are all of 1..n.

    Scans the n! permutations in lexicographic order.
    """
    check_bound(n, max_n, "factorial")
    counts = Counter()
    for p in permutations(range(1, n + 1)):
        if is_avoider(p):
            counts[p[-1]] += 1
    return {k: counts[k] for k in range(1, n + 1)}
