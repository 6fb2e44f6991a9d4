"""The statistics X and Y and their auxiliaries r and s."""

import partinv.stats as stats
from partinv import (
    aux_r,
    aux_s,
    enumerate_all,
    parse,
    stat_x,
    stat_y,
)

from oracles import y_by_definition


class TestExamples:
    def test_stat_x(self):
        assert stat_x(parse("3/4/7/852/961")) == 3
        assert stat_x(parse("1/32")) == 1
        assert stat_x(parse("54321")) == 5

    def test_stat_y(self):
        assert stat_y(parse("1/32")) == 1
        assert stat_y(parse("3/4/652/7/981")) == 6
        assert stat_y(parse("1")) == 1

    def test_aux_r(self):
        assert aux_r(parse("3/4/7/852/961")) == 8
        assert aux_r(parse("3/4/652/7/981")) == 6
        assert aux_r(parse("21")) == 2

    def test_aux_r_undefined_on_all_singletons(self):
        assert aux_r(parse("1/2/3")) is None

    def test_aux_s(self):
        assert aux_s(parse("3/4/7/852/961")) == 6
        assert aux_s(parse("3/4/652/7/981")) == 8
        assert aux_s(parse("21")) == 2

    def test_aux_s_undefined_when_one_is_singleton(self):
        assert aux_s(parse("1/32")) is None

    def test_y_reaches_one_without_r(self):
        # every block a singleton: the first branch must fire, min(r, s)
        # is never consulted
        assert stat_y(parse("1/2/3/4")) == 1


def test_r_and_s_are_none_exactly_where_undefined():
    """r is undefined where every block is a singleton, s where {1} is a
    singleton block, over all of P_n, n <= 7."""
    for n in range(1, 8):
        for p in enumerate_all(n):
            assert (aux_r(p) is None) == all(len(b) == 1 for b in p.blocks), p
            assert (aux_s(p) is None) == (p.blocks[0] == (1,)), p


def test_invariants_exhaustively():
    """The structural facts the involution relies on, over all of P_n,
    n <= 10."""
    for n in range(1, 11):
        for p in enumerate_all(n):
            x, y = stat_x(p), stat_y(p)
            assert 1 <= x <= n
            assert 1 <= y <= n
            assert x == min(b[0] for b in p.blocks)

            one_block = next(b for b in p.blocks if 1 in b)
            if len(one_block) == 1:
                assert y == 1
            else:
                r, s = aux_r(p), aux_s(p)
                assert y == min(r, s)
                # r under its other formulation: least non-singleton maximum
                assert r == min(b[0] for b in p.blocks if len(b) > 1)
                # s independently: second smallest entry of 1's block
                assert s == sorted(one_block)[1]

            if x < y:
                assert len(p.blocks[0]) == 1


def test_stat_y_scans_for_itself(monkeypatch):
    """stat_y reads r and s without calling rs_blocks, and still equals Y
    from its definition over all of P_n, n <= 8: 1 where {1} is a block,
    else the smaller of the least non-singleton maximum and 1's neighbour
    in its block."""
    def called(blocks):
        raise AssertionError("stat_y called rs_blocks")

    monkeypatch.setattr(stats, "rs_blocks", called)
    for n in range(1, 9):
        for p in enumerate_all(n):
            assert stat_y(p) == y_by_definition(p), p
