"""Uniform draws far past enumeration, from one scan-word unranker: the
words of each rank are exactly the scan words of the partitions, or of the
nonoverlapping ones, each once, and their counts are Bell's and Bessel's.
On uniform partitions of up to 200 elements, in both scopes, sigma keeps
its claims, keeps the nonnesting class, and Y is what its definition says.
"""

from collections import Counter

from hypothesis import given, settings

from partinv import (
    enumerate_all,
    enumerate_nonoverlapping,
    is_nonoverlapping,
    sigma,
    stat_x,
    stat_y,
    v_table,
)

from oracles import (bell_numbers, finish_table, nonnesting, scan_word, scan_word_at, stack_to_queue,
                     uniform_nonoverlapping, uniform_partitions, y_by_definition)


def test_ranks_give_every_scan_word_once():
    for nonoverlapping, enumerate_ in ((False, enumerate_all), (True, enumerate_nonoverlapping)):
        finish = finish_table(9, nonoverlapping)
        for n in range(1, 10):
            words = {scan_word_at(n, rank, finish, nonoverlapping) for rank in range(finish[n][0])}
            assert len(words) == finish[n][0], (n, nonoverlapping)
            assert words == {scan_word(p) for p in enumerate_(n)}, (n, nonoverlapping)
        assert scan_word_at(9, 0, finish, nonoverlapping) == ("S",) * 9


def test_word_counts_are_bell_and_bessel_numbers_to_300():
    # bessel(n) is the sum of row n of v_table(n); one v_table(300) holds every row
    every, nonoverlapping = (finish_table(300, nov) for nov in (False, True))
    assert [row[0] for row in every] == bell_numbers(300)
    assert [row[0] for row in nonoverlapping[1:]] == list(map(sum, v_table(300)))


def _spans(p):
    return Counter((b[-1], b[0]) for b in p.blocks if len(b) > 1)


def _check_claims(p):
    x, y = stat_x(p), stat_y(p)
    assert y == y_by_definition(p)
    q = sigma(p)
    q.validate()
    assert (stat_x(q), stat_y(q)) == (y, x)
    assert sigma(q) == p
    assert (q == p) == (x == y)
    assert _spans(q) == _spans(p)
    assert is_nonoverlapping(q) == is_nonoverlapping(p)
    return q


@settings(max_examples=60, deadline=None)
@given(uniform_partitions())
def test_sigma_claims_on_uniform_partitions(p):
    _check_claims(p)


@settings(max_examples=60, deadline=None)
@given(uniform_nonoverlapping())
def test_sigma_claims_on_uniform_nonoverlapping_partitions(p):
    assert is_nonoverlapping(p)
    _check_claims(p)


@settings(max_examples=60, deadline=None)
@given(uniform_nonoverlapping().map(stack_to_queue))
def test_sigma_keeps_uniform_nonnesting_partitions_nonnesting(p):
    # stack_to_queue sends the nonoverlapping partitions one to one onto the
    # nonnesting ones, so a uniform draw of the one is a uniform draw of the other
    assert nonnesting(p)
    assert nonnesting(_check_claims(p))
