"""The involution: worked examples, exhaustive properties, both moves
against their set-algebra oracles, commutation with the stack-to-queue
map and the involution it carries to the avoiders, and random large-n
probes."""

from collections import Counter

import pytest
from hypothesis import given, settings

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
from oracles import (avoiders_depth_first, claesson_permutation, nonnesting, set_partitions, sigma_by_sets,
                     sigma_inverse_by_sets, stack_to_queue, stat_st, y_by_definition)

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

    # one of each shape sigma's own scan meets: r's block first or later, holding 1 or
    # not, 1's block last or not, and r above, at or below s, on both sides and at X = Y
    @pytest.mark.parametrize("text", ["21", "32/41", "2/31", "321", "2/431", "3/41/52", "431/52", "2/3/54/61",
                                      "54/6321", "3/4/652/7/981", "652/7/98431", "3/4/7/852/961", "6/7/852/9431"])
    def test_sigma_reads_r_and_s_as_they_are_defined(self, text):
        p = parse(text)
        q = sigma(p)
        assert q == sigma_by_sets(p)
        assert (stat_x(q), y_by_definition(q)) == (y_by_definition(p), stat_x(p))

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

    @pytest.mark.parametrize("blocks", [((2,), (3,)), ((2,), (3, 2), (1,)), ((), (2, 1)), ((1, 2),),
                                        ((3,), (), (2, 1)), ((2,), (1, 3))])
    def test_no_block_to_scan_for_raises_a_package_error(self, blocks):
        # these do not validate, but where the scan for r's block and the
        # block holding 1 (sigma's and stat_y's, and aux_s's for 1's block
        # alone) runs off the blocks, or finds 1 in a singleton, it still
        # raises one of the package's errors; an empty first block and a
        # first block holding 1 but not last are no {1}
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


def test_sigma_commutes_with_stack_to_queue_and_carries_to_the_avoiders():
    """sigma(S(p)) = S(sigma(p)) for S = stack_to_queue, over every
    partition of [n <= 8] and every nonoverlapping partition of [9]. On the
    nonoverlapping partitions of [n], C o S is one to one onto the avoiders
    of [n], C = claesson_permutation, and sigma keeps them, so
    tau = C o S o sigma o S^-1 o C^-1 is a map on the avoiders: it is read
    off the pairs (C(S(p)), C(S(sigma(p)))), and is an involution that
    swaps st with the last entry."""
    listed = avoiders_depth_first(9)
    for n in range(1, 10):
        tau = {}
        for p in enumerate_all(n) if n <= 8 else enumerate_nonoverlapping(n):
            queued, image = stack_to_queue(p), stack_to_queue(sigma(p))
            assert sigma(queued) == image, format_partition(p)
            if is_nonoverlapping(p):
                tau[claesson_permutation(queued)] = claesson_permutation(image)
        assert sorted(tau) == sorted(listed[n]), n
        for a, b in tau.items():
            assert tau[b] == a, a
            assert (stat_st(b), b[-1]) == (a[-1], stat_st(a)), a


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
