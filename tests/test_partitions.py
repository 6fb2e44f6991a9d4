"""Data model, serialization, spans, the nonoverlapping predicate, and
enumeration."""

import ast
import inspect
import types
from collections import Counter
from decimal import Decimal
from itertools import islice

import pytest
from hypothesis import given, settings

import partinv.partitions as partitions
import partinv.patterns as patterns
import partinv.recurrence as recurrence
from partinv import (
    BoundError,
    ParseError,
    SetPartition,
    ValidationError,
    avoider_last_entry_distribution,
    bessel,
    enumerate_all,
    enumerate_nonoverlapping,
    format_partition,
    is_nonoverlapping,
    normalize,
    parse,
    sigma,
    stat_y,
    v_compute,
    v_table,
)
from oracles import (
    all_by_one_batch,
    as_set_of_sets,
    bell_numbers,
    enumerate_by_groups,
    finish_table,
    laminar_pairwise,
    naive_nonoverlapping,
    nonoverlapping_by_filter,
    nonoverlapping_by_first_return,
    nonoverlapping_by_one_batch,
    nonoverlapping_by_reach_batch,
    partitions_recursive,
    span_families,
    transfer_joint,
)

BELL = bell_numbers(12)


class TestParse:
    def test_four_block_example(self):
        p = parse("31/62/7/854")
        assert p.n == 8
        assert p.blocks == ((3, 1), (6, 2), (7,), (8, 5, 4))

    def test_smallest(self):
        assert parse("1") == SetPartition(((1,),))

    def test_comma_form_two_blocks(self):
        p = parse("10,7,3/11,9,8,6,5,4,2,1")
        assert p.n == 11
        assert p.blocks == ((10, 7, 3), (11, 9, 8, 6, 5, 4, 2, 1))

    def test_bare_number_is_singleton_block(self):
        # the comma form needs singleton blocks once n > 9
        p = parse("10,9,8,7,6,5,4,3,2,1/11")
        assert p.blocks[1] == (11,)

    def test_all_singletons_above_nine(self):
        p = parse("1/2/3/4/5/6/7/8/9/10")
        assert p.n == 10
        assert all(len(b) == 1 for b in p.blocks)

    @pytest.mark.parametrize("text, message, position", [
        ("", "empty partition text", 0),
        ("31//854", "empty block", 3),
        ("31/", "empty block", 3),
        ("/31", "empty block", 0),
        ("3a1", "invalid character 'a'", 1),
        ("31 /2", "invalid character ' '", 2),
        ("\u0661", "invalid character '\u0661'", 0),  # ARABIC-INDIC DIGIT ONE
        ("0", "invalid entry '0'", 0),
        ("3,0", "invalid entry '0'", 2),
        ("01,2", "invalid entry '01'", 0),
        ("3,,1", "invalid entry ''", 2),
        ("3,\u0663/1", "invalid entry '\u0663'", 2),  # ARABIC-INDIC DIGIT THREE
        ("3,a", "invalid entry 'a'", 2),
        (123, "partition text must be a string, got int", 0),  # not text at all
        (None, "partition text must be a string, got NoneType", 0),
        (b"21", "partition text must be a string, got bytes", 0),
        (["21"], "partition text must be a string, got list", 0),
    ])
    def test_malformed_text(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"

    @pytest.mark.parametrize("text", [
        "2/1",           # blocks out of order
        "12",            # block not decreasing
        "1/21",          # duplicate entry
        "31",            # gap: 2 missing
        "3,1/42",        # mixing forms reads 42 as one number
        "2,1/2,1",       # duplicate block
    ])
    def test_nonstandard_form_rejected(self, text):
        with pytest.raises(ValidationError):
            parse(text)


class TestFormat:
    def test_compact_four_block_example(self):
        p = parse("31/62/7/854")
        assert format_partition(p) == "31/62/7/854"

    def test_compact_smallest(self):
        assert format_partition(parse("1")) == "1"

    def test_compact_up_to_nine(self):
        p = parse("9,8,7,6,5,4,3,2,1")
        assert format_partition(p) == "987654321"

    def test_auto_switches_on_large_entries(self):
        p = parse("2/10,9,8,7,6,5,4,3,1")
        assert format_partition(p) == "2/10,9,8,7,6,5,4,3,1"

    def test_str_is_default_format(self):
        p = parse("31/62/7/854")
        assert str(p) == format_partition(p)

    def test_round_trip_both_forms_exhaustive(self):
        # format_partition writes only compact below 10; the comma text is
        # built here so that parse's comma branch is read back over P_n too
        for n in range(1, 9):
            for p in enumerate_all(n):
                assert parse(format_partition(p)) == p
                assert parse("/".join(",".join(map(str, b)) for b in p.blocks)) == p


class TestConstructors:
    def test_normalize_orders_blocks_and_entries(self):
        p = normalize([{2, 6}, [1, 5, 4], (3,)])
        assert format_partition(p) == "3/541/62"

    def test_normalize_rejects_gap(self):
        with pytest.raises(ValidationError):
            normalize([{1, 3}])

    def test_normalize_rejects_duplicate(self):
        with pytest.raises(ValidationError):
            normalize([{1, 2}, {2, 3}])

    def test_from_blocks_requires_standard_form(self):
        assert SetPartition.from_blocks([(2,), (3, 1)]).n == 3
        with pytest.raises(ValidationError):
            SetPartition.from_blocks([(3, 1), (2,)])

    def test_validate_names_violation(self):
        bad = SetPartition(((3, 1), (2,)))
        with pytest.raises(ValidationError, match="increasing first entry"):
            bad.validate()
        with pytest.raises(ValidationError, match="decreasing"):
            SetPartition(((1, 2),)).validate()
        with pytest.raises(ValidationError, match="do not partition"):
            SetPartition(((3, 1),)).validate()
        with pytest.raises(ValidationError, match="entry 0 is not a positive integer"):
            SetPartition(((2, 0), (1,))).validate()
        with pytest.raises(ValidationError, match="not strictly decreasing"):
            SetPartition(((2, 2, 1),)).validate()
        # without the empty-block check, reading an empty block's first entry raises IndexError
        with pytest.raises(ValidationError, match="empty block"):
            SetPartition(((2, 1), ())).validate()
        with pytest.raises(ValidationError, match="empty block"):
            SetPartition.from_blocks([[]])

    @pytest.mark.parametrize("blocks", [([3, 2, 1],), [(3, 2, 1)], 5, ({1, 2, 3},)],
                             ids=["list-block", "list-of-blocks", "not-iterable", "set-block"])
    def test_validate_refuses_blocks_that_are_not_a_tuple_of_tuples(self, blocks):
        # a list block would make a "valid" partition that cannot be hashed
        with pytest.raises(ValidationError, match="tuple of tuples"):
            SetPartition(blocks).validate()

    @pytest.mark.parametrize("build, blocks", [
        (SetPartition.from_blocks, [b"\x02\x01"]),
        (normalize, [b"\x02\x01"]),
        (SetPartition.from_blocks, [bytearray(b"\x01")]),
        (normalize, [memoryview(b"\x01")]),
        (SetPartition.from_blocks, [{2: "a", 1: "b"}]),
        (normalize, [{2: "a", 1: "b"}]),
        (normalize, [types.MappingProxyType({1: 0})]),
        (SetPartition.from_blocks, {(2, 1): 0}),
        (normalize, {(1,): "x"}),
        (SetPartition.from_json, {"blocks": {(1,): "x"}}),
    ], ids=["from_blocks-bytes-block", "normalize-bytes-block", "from_blocks-bytearray-block",
            "normalize-memoryview-block", "from_blocks-dict-block", "normalize-dict-block",
            "normalize-mappingproxy-block", "from_blocks-dict-family", "normalize-dict-family",
            "from_json-dict-family"])
    def test_bytes_and_mappings_are_not_blocks(self, build, blocks):
        # they iterate, but as byte values or keys: b"\x02\x01" would read as 21
        with pytest.raises(ValidationError, match="iterable of iterables"):
            build(blocks)

    def test_sets_stay_legal_blocks_and_families(self):
        assert normalize({frozenset({2, 1}), frozenset({3})}) == parse("21/3")
        assert normalize([{1: 0}.keys()]) == parse("1")

    def test_json_round_trip(self):
        p = parse("31/62/7/854")
        payload = p.to_json()
        assert payload == {"blocks": [[3, 1], [6, 2], [7], [8, 5, 4]]}
        assert SetPartition.from_json(payload) == p

    def test_json_rejects_bad_payloads(self):
        # entries and blocks of the wrong type included: none may escape
        # as a TypeError from comparing them
        for payload in ({"blocks": [[1, 2]]}, {}, {"blocks": [[1], ["2"]]}, {"blocks": [[1], [None]]},
                        {"blocks": [[1], 2]}, {"blocks": 5}, {"blocks": [[True]]}):
            with pytest.raises(ValidationError):
                SetPartition.from_json(payload)

    def test_normalize_rejects_non_integer_entries(self):
        with pytest.raises(ValidationError):
            normalize([[1], ["2"]])
        with pytest.raises(ValidationError):
            normalize([[1], 2])
        # entries that cannot be ordered, met by normalize's own sort
        for blocks in ([[2, None]], [[1], ["a"]], [[Decimal("NaN"), 1]]):
            with pytest.raises(ValidationError, match="iterable of iterables of integers"):
                normalize(blocks)


class TestNamedTuple:
    """SetPartition is a named tuple, so a bare (blocks,) tuple compares
    equal to one; these pin the type of what the fast paths build."""

    def test_every_fast_path_builds_a_set_partition(self):
        for n in range(1, 9):
            built = [*enumerate_all(n), *enumerate_nonoverlapping(n)]
            for p in enumerate_all(n):
                built.append(sigma(p))
            for x in built:
                assert type(x) is SetPartition, x
                assert x.n == max(map(max, x.blocks)) == sum(map(len, x.blocks)) == n
                x.validate()

    def test_immutable(self):
        p = parse("2/31")
        with pytest.raises(AttributeError):
            p.n = 4
        with pytest.raises(AttributeError):
            p.blocks = ((1,),)

    def test_repr_unchanged(self):
        assert repr(parse("2/31")) == "SetPartition(blocks=((2,), (3, 1)))"

    def test_equal_partitions_hash_equal(self):
        p, q = parse("2/31"), SetPartition.from_blocks([[2], [3, 1]])
        assert p == q and hash(p) == hash(q)
        assert len({p, q, normalize([{1, 3}, {2}])}) == 1

    def test_unpacks_and_equals_the_plain_tuple(self):
        p = parse("2/31")
        (blocks,) = p
        assert (blocks,) == (((2,), (3, 1)),) == p

    def test_n_is_read_off_the_blocks(self):
        # blocks is the one field; n cannot be passed, so it cannot disagree
        assert SetPartition._fields == ("blocks",)
        assert SetPartition(((2,), (3, 1))).n == 3
        assert parse("10,7,3/11,9,8,6,5,4,2,1").n == 11
        with pytest.raises(TypeError):
            SetPartition(3, ((2,), (3, 1)))
        with pytest.raises(TypeError):
            SetPartition(n=3, blocks=((2,), (3, 1)))


class TestSpans:
    def test_nonoverlapping_examples(self):
        assert is_nonoverlapping(parse("2/43/651/87"))
        assert not is_nonoverlapping(parse("31/62/7/854"))
        assert is_nonoverlapping(parse("1/2/3"))

    def test_matches_all_pairs_scan(self):
        for n in range(1, 9):
            for p in enumerate_all(n):
                assert is_nonoverlapping(p) == naive_nonoverlapping(p)

    def test_spans_come_in_standard_form_order(self):
        # by increasing hi, as the blocks are stored, not sorted by lo
        assert partitions.nonsingleton_spans(parse("32/41")) == [(2, 3), (1, 4)]
        assert partitions.nonsingleton_spans(parse("31/62/7/854")) == [(1, 3), (2, 6), (4, 8)]
        assert partitions.nonsingleton_spans(parse("1/2/3")) == []

    def test_stack_scan_matches_pairwise_scan_on_every_partition(self):
        # laminar reads spans by increasing hi; the pairwise scan reads them by lo
        for n in range(1, 11):
            for p in enumerate_all(n):
                spans = partitions.nonsingleton_spans(p)
                assert partitions.laminar(spans) == laminar_pairwise(sorted(spans)), p

    @settings(max_examples=300, deadline=None)
    @given(span_families())
    def test_stack_scan_matches_pairwise_scan_on_drawn_spans(self, spans):
        assert partitions.laminar(spans) == laminar_pairwise(sorted(spans))


class TestEnumeration:
    @pytest.fixture(scope="class")
    def listing(self):
        """enumerate_nonoverlapping(n) as a list, for every n <= 11, drained
        once for the tests that compare it with an oracle."""
        return {n: list(enumerate_nonoverlapping(n)) for n in range(1, 12)}

    def test_order_is_deterministic_and_lexicographic(self):
        got = [format_partition(p) for p in enumerate_all(3)]
        assert got == ["321", "21/3", "2/31", "1/32", "1/2/3"]

    def test_counts_match_bell_triangle(self):
        for n in range(1, 11):
            assert sum(1 for _ in enumerate_all(n)) == BELL[n]

    def test_yields_valid_distinct_partitions(self):
        for n in range(1, 8):
            seen = set()
            for p in enumerate_all(n):
                p.validate()
                seen.add(p)
            assert len(seen) == BELL[n]

    def test_agrees_with_grouping_oracle(self):
        # same partitions in the same order as grouping each RGS afresh
        for n in range(1, 11):
            assert list(enumerate_all(n)) == list(enumerate_by_groups(n)), n

    def test_agrees_with_recursive_enumerator(self):
        for n in range(1, 8):
            ours = {as_set_of_sets(p) for p in enumerate_all(n)}
            assert ours == set(partitions_recursive(n))

    def test_nonoverlapping_counts(self):
        assert sum(1 for _ in enumerate_nonoverlapping(1)) == 1
        assert sum(1 for _ in enumerate_nonoverlapping(3)) == 5
        assert sum(1 for _ in enumerate_nonoverlapping(7)) == 509

    def test_nonoverlapping_agrees_with_first_return_oracle(self, listing):
        # same partitions in the same order, so CLI output and verify
        # counterexamples cannot move; the filter checks the oracle
        for n in range(1, 12):
            oracle = nonoverlapping_by_first_return(n)
            if n <= 8:
                assert oracle == nonoverlapping_by_filter(n), n
            assert listing[n] == oracle, n

    def test_two_element_batch_agrees_with_one_element_batch(self, listing):
        # the slow path it replaced: grow to n - 1, then place n alone
        assert [format_partition(p) for p in listing[1]] == ["1"]
        assert [format_partition(p) for p in listing[2]] == ["21", "1/2"]
        for n in range(1, 12):
            assert listing[n] == list(nonoverlapping_by_one_batch(n)), n

    def test_all_two_element_batch_agrees_with_one_element_batch(self):
        # the slow path it replaced: grow to n - 1, then place n alone
        assert [format_partition(p) for p in enumerate_all(2)] == ["21", "1/2"]
        for n in range(1, 11):
            assert list(enumerate_all(n)) == list(all_by_one_batch(n)), n

    def test_two_blocks_in_need_leave_one_completion(self, monkeypatch):
        # n - 1 closes the later block in need and n the earlier, which encloses it;
        # each such prefix is handed to the batch alone, as the only prefix of every level
        grow = partitions._grow_nonoverlapping
        met = 0
        for n in range(3, 12):
            prefixes = [((), 0)]
            for e in range(1, n - 1):
                prefixes = list(grow(prefixes, e, n - e))
            for blocks, need in prefixes:
                if need.bit_count() == 2:
                    met += 1
                    monkeypatch.setattr(partitions, "_grow_nonoverlapping", lambda *_: [(blocks, need)])
                    (p,) = partitions._gen_nonoverlapping(n)
                    assert naive_nonoverlapping(p), p
                    head = [b[1:] if b[0] >= n - 1 else b for b in p.blocks]
                    assert sorted(head) == sorted(blocks) and p.blocks[-2][0] == n - 1, p
        assert met == 4 + 62 + 603 + 4785

    def test_stack_batch_agrees_with_reach_loop_batch(self, listing):
        # the slow path the stack pass replaced: a loop over every earlier block per candidate
        for n in range(1, 12):
            assert listing[n] == list(nonoverlapping_by_reach_batch(n)), n

    def test_y_pass_reads_the_y_of_each_listed_partition(self, listing):
        # item for item, so a rule error that only moves counts between two values of Y
        # (s read as n where n - 1 joins {1}, and n - 1 where n does) is caught too
        for n in range(1, 12):
            assert list(partitions._y_nonoverlapping(n)) == [stat_y(p) for p in listing[n]], n

    def test_y_pass_counts_the_open_block_marginal(self):
        # one size past the listing: the Y marginal of the open-block count, which lists nothing
        finish = finish_table(11, True)
        for n in range(1, 13):
            marginal = Counter()
            for (_, y), count in transfer_joint(n, finish, True).items():
                marginal[y] += count
            assert Counter(partitions._y_nonoverlapping(n)) == marginal, n

    def test_stack_holds_exactly_the_reaching_blocks(self):
        # the claim the batch's stack pass rests on, replayed on block numbers: at each k the
        # stack, with the pinned (n,) read as top, is the earlier blocks that reach min(k), and
        # top once k is past it; and no block before top reaches min(top)
        visits = 0
        for n in range(2, 12):
            prefixes = [((), 0)]
            for e in range(1, n - 1):
                prefixes = list(partitions._grow_nonoverlapping(prefixes, e, n - e))
            for blocks, need in prefixes:
                if need & (need - 1):
                    continue
                top = need.bit_length() - 1
                reach = [n if b == top else block[0] for b, block in enumerate(blocks)]
                stack = []
                for k, block in enumerate(blocks):
                    lo = block[-1]
                    while stack and reach[stack[-1]] < lo:
                        stack.pop()
                    reaching = {b for b in range(k) if blocks[b][0] > lo}
                    assert set(stack) == reaching | ({top} if 0 <= top < k else set()), (blocks, need, k)
                    if k == top:
                        assert not reaching, (blocks, need)
                    stack.append(k)
                visits += len(blocks) if n == 11 else 0
        assert visits == 71745

    def test_prefixes_are_their_rgs_blocks_alone(self):
        # a prefix is its blocks numbered by their minima, as in the RGS, with
        # no copy in standard form: decreasing tuples that cover 1..e, minima
        # increasing; a nonoverlapping prefix adds only its need mask
        every, nonoverlapping = [()], [((), 0)]
        for e in range(1, 9):
            every = list(partitions._grow_all(every, e))
            nonoverlapping = list(partitions._grow_nonoverlapping(nonoverlapping, e, 9 - e))
            assert all(type(need) is int for _, need in nonoverlapping)
            for blocks in every + [blocks for blocks, _ in nonoverlapping]:
                assert type(blocks) is tuple and all(type(block) is tuple for block in blocks), blocks
                assert all(list(block) == sorted(block, reverse=True) for block in blocks), blocks
                assert sorted(x for block in blocks for x in block) == list(range(1, e + 1)), blocks
                minima = [block[-1] for block in blocks]
                assert minima == sorted(minima), blocks

    def test_all_grows_all_but_the_last_two_levels(self, monkeypatch):
        # elements n - 1 and n are placed by the batch, never by a level
        grown = []
        grow = partitions._grow_all

        def spy(prefixes, e):
            grown.append(e)
            return grow(prefixes, e)

        monkeypatch.setattr(partitions, "_grow_all", spy)
        for n in (1, 2, 10):
            grown.clear()
            assert sum(1 for _ in enumerate_all(n)) == BELL[n]
            assert grown == list(range(1, n - 1)), n

    def test_nonoverlapping_grows_all_but_the_last_two_levels(self, monkeypatch):
        # elements n - 1 and n are placed by the batch, never by a level
        grown = []
        grow = partitions._grow_nonoverlapping

        def spy(prefixes, e, room):
            grown.append((e, room))
            return grow(prefixes, e, room)

        monkeypatch.setattr(partitions, "_grow_nonoverlapping", spy)
        assert sum(1 for _ in enumerate_nonoverlapping(11)) == bessel(11)
        assert grown == [(e, 11 - e) for e in range(1, 10)]

    def test_nonoverlapping_generator_does_not_filter(self):
        for fn in (partitions._gen_nonoverlapping, partitions._grow_nonoverlapping):
            tree = ast.parse(inspect.getsource(fn))
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            assert not names & {"is_nonoverlapping", "_gen_all", "_grow_all", "enumerate_all"}, fn

    def test_streams_lazily_past_the_list_tests(self):
        # Bell(14) ~ 1.9e8: this returns at once only if nothing is built ahead
        assert list(islice(enumerate_all(14), 1000)) == list(islice(enumerate_by_groups(14), 1000))
        oracle = (p for p in enumerate_by_groups(14) if naive_nonoverlapping(p))
        assert list(islice(enumerate_nonoverlapping(14), 1000)) == list(islice(oracle, 1000))

    def test_guard(self):
        with pytest.raises(BoundError):
            next(enumerate_all(15))
        with pytest.raises(BoundError):
            next(enumerate_all(3, max_n=2))
        with pytest.raises(BoundError):
            next(enumerate_all(0))
        with pytest.raises(BoundError):
            next(enumerate_nonoverlapping(15))
        # the guard is adjustable, not a hard ceiling
        assert sum(1 for _ in enumerate_all(3, max_n=3)) == 5

    @pytest.mark.parametrize("gen, name", [(enumerate_all, "_gen_all"),
                                           (enumerate_nonoverlapping, "_gen_nonoverlapping")])
    def test_nesting_ceiling(self, monkeypatch, gen, name):
        # one generator level per element: past the fixed ceiling n is
        # refused up front, whatever max_n says, instead of recursing
        ceiling = partitions.NESTING_MAX_N
        assert next(gen(ceiling, max_n=ceiling)) == SetPartition((tuple(range(ceiling, 0, -1)),))
        monkeypatch.setattr(partitions, name, lambda n: pytest.fail("work started before the guard"))
        with pytest.raises(BoundError, match=f"n=1200 exceeds the generator nesting ceiling {ceiling}"):
            gen(1200, max_n=1200)


@pytest.mark.parametrize("call", [
    lambda: enumerate_all(2.5),
    lambda: enumerate_all(True),
    lambda: enumerate_nonoverlapping(3.0),
    lambda: v_compute(3.0, 1),
    lambda: v_compute(3, True),
    lambda: v_table(2.5),
    lambda: bessel(True),
    lambda: avoider_last_entry_distribution(3.0),
], ids=["enumerate_all-float", "enumerate_all-bool", "enumerate_nonoverlapping", "v_compute-n",
        "v_compute-k", "v_table", "bessel", "avoider_last_entry_distribution"])
def test_sizes_must_be_integers(call):
    with pytest.raises(BoundError):
        call()


GUARD_REFUSAL = (BoundError, "max_n must be an integer >= 1")
# v_compute and bessel take no guard override (rows past it are read through
# v_table), so any max_n passed to them is refused at the call.
NO_OVERRIDE = (TypeError, "unexpected keyword argument 'max_n'")


@pytest.mark.parametrize("max_n", [None, "a", 2.5, True, 0, -1])
@pytest.mark.parametrize("call, refusal", [
    (lambda max_n: enumerate_all(3, max_n=max_n), GUARD_REFUSAL),
    (lambda max_n: enumerate_nonoverlapping(3, max_n=max_n), GUARD_REFUSAL),
    (lambda max_n: v_compute(3, 1, max_n=max_n), NO_OVERRIDE),
    (lambda max_n: v_table(3, max_n=max_n), GUARD_REFUSAL),
    (lambda max_n: bessel(3, max_n=max_n), NO_OVERRIDE),
    (lambda max_n: avoider_last_entry_distribution(3, max_n=max_n), GUARD_REFUSAL),
], ids=["enumerate_all", "enumerate_nonoverlapping", "v_compute", "v_table", "bessel",
        "avoider_last_entry_distribution"])
def test_guards_must_be_integers(monkeypatch, call, refusal, max_n):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the guard was checked")
    for module, name in ((partitions, "_gen_all"), (partitions, "_gen_nonoverlapping"),
                         (patterns, "accumulate"), (recurrence, "v_table")):
        monkeypatch.setattr(module, name, refuse)
    error, message = refusal
    with pytest.raises(error, match=message):
        call(max_n)
