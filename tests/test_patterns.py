"""The avoider predicate and the avoider last-entry distribution."""

import collections
import types
from collections import Counter
from itertools import permutations

import pytest

from partinv import (
    BoundError,
    ValidationError,
    avoider_last_entry_distribution,
    bessel,
    is_avoider,
    v_compute,
)
from oracles import (
    avoiders_by_scan,
    avoiders_depth_first,
    finish_table,
    naive_contains_1_23adj,
    naive_contains_12adj_3,
    st_last_joint,
    stat_st,
    transfer_joint,
)


class TestPredicates:
    """is_avoider reads the count's append rule, so the all-pairs scans of
    tests/oracles.py are its independent anchor."""

    def test_first_pattern(self):
        # 2 3 _ 4: an occurrence of 12_3 and none of 1_23
        assert (naive_contains_12adj_3((2, 3, 1, 4)), naive_contains_1_23adj((2, 3, 1, 4))) == (True, False)
        assert not is_avoider((2, 3, 1, 4))

    def test_second_pattern(self):
        # 1 _ 2 3: an occurrence of 1_23 and none of 12_3
        assert (naive_contains_12adj_3((1, 4, 2, 3)), naive_contains_1_23adj((1, 4, 2, 3))) == (False, True)
        assert not is_avoider((1, 4, 2, 3))

    def test_avoider(self):
        assert is_avoider((2, 3, 1))
        assert not is_avoider((1, 2, 3))
        assert is_avoider((3, 2, 1))

    def test_adjacency_is_a_lower_bound(self):
        # all three letters adjacent still counts for either pattern
        assert (naive_contains_12adj_3((1, 2, 3)), naive_contains_1_23adj((1, 2, 3))) == (True, True)
        assert not is_avoider((1, 2, 3))

    def test_agree_with_all_pairs_scan(self):
        for n in range(1, 9):
            for p in permutations(range(1, n + 1)):
                assert is_avoider(p) == (not naive_contains_12adj_3(p) and not naive_contains_1_23adj(p)), p

    @pytest.mark.parametrize("n", range(1, 9))
    def test_avoiders_are_counted_by_bessel(self, n):
        assert sum(map(is_avoider, permutations(range(1, n + 1)))) == bessel(n)

    def test_reverse_complement_keeps_avoiders(self):
        # the pass reads p left to right, but the class is closed under
        # reverse-complement, which swaps 12_3 and 1_23
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                assert is_avoider(p) == is_avoider(tuple(n + 1 - e for e in reversed(p))), p


#: Every permutation of length <= 4 that holds a pattern, with (holds 12_3,
#: holds 1_23) worked from the definitions; the rest of them avoid both.
SMALL_HOLDERS = {
    (1, 2, 3): (True, True),
    (1, 2, 3, 4): (True, True),
    (1, 2, 4, 3): (True, True),
    (1, 3, 2, 4): (True, True),
    (1, 3, 4, 2): (True, True),
    (1, 4, 2, 3): (False, True),
    (2, 1, 3, 4): (True, True),
    (2, 3, 1, 4): (True, False),
    (2, 3, 4, 1): (True, True),
    (3, 1, 2, 4): (True, True),
    (4, 1, 2, 3): (True, True),
}


@pytest.mark.parametrize("p", [p for n in range(5) for p in permutations(range(1, n + 1))], ids=repr)
def test_small_permutations_by_hand(p):
    held = SMALL_HOLDERS.get(p, (False, False))
    assert (naive_contains_12adj_3(p), naive_contains_1_23adj(p)) == held
    assert is_avoider(p) == (held == (False, False))


#: The last eleven iterate, but not as a sequence of entries: "" would read
#: as the empty permutation, b"\x02\x01" as (2, 1), a dict as its keys; a
#: keys view, a mappingproxy and a UserString are the same in other types.
JUNK = [None, 5, [1, "a", 3], "123", [1.0, 2.0], [True], [2, True], [1, 1], [1, 3], [0, 1], [2, 3],
        "", b"\x02\x01", b"\x01\x02\x03", bytearray(b"\x01"), {2: "x", 1: "y"}, {1, 2},
        frozenset({1}), set(), {2: 0, 1: 0}.keys(), types.MappingProxyType({1: 0}),
        pytest.param(collections.UserString(""), id="UserString('')"),
        pytest.param(memoryview(b"\x02\x01"), id="memoryview(b'\\x02\\x01')")]


@pytest.mark.parametrize("junk", JUNK, ids=repr)
@pytest.mark.parametrize("fn", [is_avoider], ids=lambda fn: fn.__name__)
def test_non_permutation_is_refused(fn, junk):
    with pytest.raises(ValidationError):
        fn(junk)


def test_empty_permutation_is_accepted():
    assert is_avoider(()) and is_avoider([])


class TestDistribution:
    def test_small_rows(self):
        assert avoider_last_entry_distribution(1) == {1: 1}
        assert avoider_last_entry_distribution(3) == {1: 2, 2: 2, 3: 1}

    def test_row_seven(self):
        assert avoider_last_entry_distribution(7) == {
            1: 143, 2: 143, 3: 100, 4: 66, 5: 39, 6: 17, 7: 1,
        }

    def test_three_letter_avoiders_by_hand(self):
        got = sorted(
            p for p in permutations((1, 2, 3)) if is_avoider(p)
        )
        assert got == [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]

    def test_totals_are_bessel_numbers(self):
        for n in range(1, 9):
            assert sum(avoider_last_entry_distribution(n).values()) == bessel(n)

    def test_matches_v_triangle(self):
        for n in range(1, 8):
            dist = avoider_last_entry_distribution(n)
            assert dist == {k: v_compute(n, k) for k in range(1, n + 1)}

    def test_guard(self):
        with pytest.raises(BoundError):
            avoider_last_entry_distribution(301)
        with pytest.raises(BoundError):
            avoider_last_entry_distribution(3, max_n=2)
        with pytest.raises(BoundError):
            avoider_last_entry_distribution(0)


def by_last_entry(avoiders, n: int) -> dict[int, int]:
    counts = Counter(p[-1] for p in avoiders)
    return {k: counts[k] for k in range(1, n + 1)}


class TestCount:
    """The append-rule count against the patterns themselves: the n! scan
    to n = 9, and past it the depth-first listing to n = 11."""

    LISTED_MAX_N = 11

    @pytest.fixture(scope="class")
    def listed(self):
        return avoiders_depth_first(self.LISTED_MAX_N)

    def test_scan_listing_and_count_agree(self, listed):
        for n in range(1, 10):
            scan = avoiders_by_scan(n)
            assert avoider_last_entry_distribution(n) == by_last_entry(scan, n)
            assert sorted(listed[n]) == scan

    def test_listed_avoiders_avoid(self, listed):
        for n, avoiders in listed.items():
            assert all(map(is_avoider, avoiders)), n

    def test_listing_is_closed_under_reverse_complement(self, listed):
        # reverse-complement maps an occurrence of 12_3 to one of 1_23
        for n, avoiders in listed.items():
            found = set(avoiders)
            assert len(found) == len(avoiders)
            assert {tuple(n + 1 - e for e in reversed(p)) for p in found} == found

    def test_listing_counts_by_last_entry(self, listed):
        for n, avoiders in listed.items():
            assert avoider_last_entry_distribution(n) == by_last_entry(avoiders, n)


def test_st_and_last_entry_have_the_nonoverlapping_xy_joint():
    """(st, last entry) over the avoiders, counted by the append rule, is the
    permutation side of the (X, Y) joint over nonoverlapping partitions: it
    equals a tally of the listed avoiders, and the transfer model's joint,
    which shares no code with it, and so is symmetric."""
    depth = 30
    joint = st_last_joint(depth)
    listed = avoiders_depth_first(9)
    for n in range(1, 10):
        assert joint[n] == Counter((stat_st(p), p[-1]) for p in listed[n]), n
    finish = finish_table(depth - 1, True)
    for n in range(1, depth + 1):
        assert joint[n] == transfer_joint(n, finish, True), n
        assert all(joint[n][k, s] == count for (s, k), count in joint[n].items()), n
