"""The involution: worked examples, exhaustive properties, both moves
against their set-algebra oracles, and random large-n probes."""

from collections import Counter

import pytest
from hypothesis import given, settings

import partinv.involution as involution
from partinv import (
    PartinvError,
    SetPartition,
    ValidationError,
    aux_r,
    aux_s,
    enumerate_all,
    enumerate_nonoverlapping,
    format_partition,
    is_nonoverlapping,
    parse,
    sigma,
    stat_x,
    stat_y,
)
from oracles import nonnesting, set_partitions, sigma_by_sets, sigma_inverse_by_sets

FORWARD_EXAMPLES = [
    ("3/4/7/852/961", "6/7/852/9431"),
    ("2/431", "3/421"),
    ("3/4/652/7/981", "652/7/98431"),
    ("2/3/4/51", "54321"),
    ("2/31", "321"),
]


class TestExamples:
    @pytest.mark.parametrize("source, image", FORWARD_EXAMPLES)
    def test_forward(self, source, image):
        assert format_partition(sigma(parse(source))) == image

    @pytest.mark.parametrize("source, image", FORWARD_EXAMPLES)
    def test_backward(self, source, image):
        assert format_partition(sigma(parse(image))) == source

    def test_fixed_point(self):
        assert sigma(parse("21")) == parse("21")

    def test_sigma_scans_once(self, monkeypatch):
        calls = 0
        scan = involution.rs_blocks

        def counting(blocks):
            nonlocal calls
            calls += 1
            return scan(blocks)

        monkeypatch.setattr(involution, "rs_blocks", counting)
        for text in ("6/7/852/9431", "2/431", "21"):
            calls = 0
            sigma(parse(text))
            assert calls == 1, text

    def test_malformed_input_is_caught_by_validation_not_by_sigma(self):
        # sigma trusts standard form; the checking constructors and
        # validate() are where a malformed partition is refused
        bad = SetPartition(((1,), (1,)))
        with pytest.raises(ValidationError):
            bad.validate()
        with pytest.raises(ValidationError):
            SetPartition.from_blocks(bad.blocks)
        with pytest.raises(ValidationError, match=r"do not partition \{1, \.\.\., 4\}"):
            SetPartition(((2,), (3,), (4,))).validate()  # a gap: 1 is missing
        with pytest.raises(ValidationError, match="positive integer"):
            SetPartition(((True,),)).validate()

    @pytest.mark.parametrize("blocks", [((2,), (3,)), ((2,), (3, 2), (1,))])
    def test_no_block_to_scan_for_raises_a_package_error(self, blocks):
        # these do not validate, but where the shared scan for r's block and
        # the block holding 1 runs off the blocks, or finds 1 in a
        # singleton, it still raises one of the package's errors
        for fn in (sigma, stat_y, aux_s):
            with pytest.raises(PartinvError):
                fn(SetPartition(blocks))


def _span_multiset(p):
    return Counter((b[-1], b[0]) for b in p.blocks if len(b) > 1)


def test_everything_small_fixed():
    for n in (1, 2):
        for p in enumerate_all(n):
            assert sigma(p) == p
            assert stat_x(p) == stat_y(p)


def test_exhaustive_properties():
    """One fused sweep over P_n, n <= 8: involution, interchange, fixed
    points, span multiset, the nonoverlapping predicate, and which shape
    each forward case produces."""
    for n in range(1, 9):
        for p in enumerate_all(n):
            x, y = stat_x(p), stat_y(p)
            q = sigma(p)
            assert (stat_x(q), stat_y(q)) == (y, x)
            assert sigma(q) == p
            assert (q == p) == (x == y)
            assert _span_multiset(q) == _span_multiset(p)
            assert is_nonoverlapping(q) == is_nonoverlapping(p)
            if x < y:
                if aux_r(p) > aux_s(p):
                    assert len(q.blocks[0]) == 1
                else:
                    assert len(q.blocks[0]) > 1


def test_agrees_with_set_algebra_oracle():
    """sigma equals the set-algebra moves it replaced, the forward one on
    every partition of [n] and the inverse one on the X > Y side, n <= 10."""
    for n in range(1, 11):
        for p in enumerate_all(n):
            assert sigma(p) == sigma_by_sets(p), format_partition(p)
            if stat_x(p) > stat_y(p):
                assert sigma(p) == sigma_inverse_by_sets(p), format_partition(p)


@pytest.mark.parametrize("n", range(1, 11))
def test_nonnesting_class(n):
    """The nonnesting partitions, a second class counted by the Bessel
    numbers: sigma keeps it, and the (X, Y) joint over it equals the joint
    over the nonoverlapping partitions cell for cell."""
    nonnesting_ps = [p for p in enumerate_all(n) if nonnesting(p)]
    for p in nonnesting_ps:
        assert nonnesting(sigma(p)), format_partition(p)
    assert Counter((stat_x(p), stat_y(p)) for p in nonnesting_ps) == \
        Counter((stat_x(p), stat_y(p)) for p in enumerate_nonoverlapping(n))


def test_nonnesting_and_nonoverlapping_classes_differ():
    # so the equal joints above are a fact about two classes, not one class read twice;
    # n: (partitions in both classes, partitions in each)
    for n, (shared, each) in {4: (13, 14), 6: (89, 143)}.items():
        nonnesting_ps = {p for p in enumerate_all(n) if nonnesting(p)}
        nonoverlapping_ps = set(enumerate_nonoverlapping(n))
        assert (len(nonnesting_ps & nonoverlapping_ps), len(nonnesting_ps), len(nonoverlapping_ps)) == \
            (shared, each, each)


@settings(max_examples=250)
@given(set_partitions(max_n=40))
def test_random_large_partitions(p):
    x, y = stat_x(p), stat_y(p)
    q = sigma(p)
    q.validate()
    assert (stat_x(q), stat_y(q)) == (y, x)
    assert sigma(q) == p
    assert _span_multiset(q) == _span_multiset(p)
    assert is_nonoverlapping(q) == is_nonoverlapping(p)
    assert q == sigma_by_sets(p)
    if x > y:
        assert sigma(p) == sigma_inverse_by_sets(p)
