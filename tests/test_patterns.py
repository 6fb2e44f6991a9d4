"""Vincular pattern predicates and the avoider last-entry distribution."""

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
    contains_12adj_3,
    contains_1_23adj,
    is_avoider,
    v_compute,
)
from oracles import avoiders_by_scan, avoiders_depth_first, naive_contains_1_23adj, naive_contains_12adj_3


class TestPredicates:
    def test_first_pattern(self):
        assert contains_12adj_3((1, 2, 3))
        assert not contains_12adj_3((1, 3, 2))
        assert not contains_12adj_3((2, 1))

    def test_second_pattern(self):
        assert contains_1_23adj((1, 2, 3))
        assert not contains_1_23adj((2, 1, 3))
        assert not contains_1_23adj((1,))

    def test_avoider(self):
        assert is_avoider((2, 3, 1))
        assert not is_avoider((1, 2, 3))
        assert is_avoider((3, 2, 1))

    def test_adjacency_is_a_lower_bound(self):
        # all three letters adjacent still counts for either pattern
        assert contains_12adj_3((1, 2, 3))
        assert contains_1_23adj((1, 2, 3))

    def test_agree_with_all_pairs_scan(self):
        for n in range(1, 8):
            for p in permutations(range(1, n + 1)):
                assert contains_12adj_3(p) == naive_contains_12adj_3(p)
                assert contains_1_23adj(p) == naive_contains_1_23adj(p)


#: The last eleven iterate, but not as a sequence of entries: "" would read
#: as the empty permutation, b"\x02\x01" as (2, 1), a dict as its keys; a
#: keys view, a mappingproxy and a UserString are the same in other types.
JUNK = [None, 5, [1, "a", 3], "123", [1.0, 2.0], [True], [2, True], [1, 1], [1, 3], [0, 1], [2, 3],
        "", b"\x02\x01", b"\x01\x02\x03", bytearray(b"\x01"), {2: "x", 1: "y"}, {1, 2},
        frozenset({1}), set(), {2: 0, 1: 0}.keys(), types.MappingProxyType({1: 0}),
        pytest.param(collections.UserString(""), id="UserString('')"),
        pytest.param(memoryview(b"\x02\x01"), id="memoryview(b'\\x02\\x01')")]


@pytest.mark.parametrize("junk", JUNK, ids=repr)
@pytest.mark.parametrize("fn", [is_avoider, contains_12adj_3, contains_1_23adj],
                         ids=lambda fn: fn.__name__)
def test_non_permutation_is_refused(fn, junk):
    with pytest.raises(ValidationError):
        fn(junk)


def test_empty_permutation_is_accepted():
    assert is_avoider(()) and not contains_12adj_3([]) and not contains_1_23adj(())


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
