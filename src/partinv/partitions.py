"""Set partitions of [n] in standard form: parsing, serialization, spans,
the nonoverlapping test, and exhaustive enumeration.

Standard form writes every block in decreasing order and lists blocks by
increasing first entry (equivalently by increasing block maximum), e.g.
31/62/7/854, so n heads the last block; a SetPartition stores only its
blocks and reads n off them. Two text serializations exist:

    compact   one digit per entry, juxtaposed ("854"); legal only while
              every entry is <= 9
    comma     decimal entries joined by "," ("10,7,3"); works for any n

Blocks are joined by "/". format_partition writes compact iff n <= 9. A
string is read in comma form iff it contains a ',' or a '0' (a zero can
only occur inside a multi-digit decimal, and every all-singleton
partition of [n >= 10] spells out "10"); otherwise compact. Whenever both
readings are valid they denote the same partition, so the rule is
unambiguous. Both forms share one entry rule: every entry is a positive
decimal in ASCII digits with no leading zero, and a compact entry is
such a decimal one character long. The form decides only how a block is
split into entries and what parse's message calls a bad one.

nonsingleton_spans reads the spans of the non-singleton blocks, the
only spans the claims are about: sigma keeps every one of them, and the
nonoverlapping test (laminar) reads only those. The verify sweep reads
the lists of p and of its image only where sigma moves p and a span
claim is live, and hands them to the claims about both; it takes p's
nonoverlapping flag from enumerate_nonoverlapping, walked in lockstep
with enumerate_all while a claim reads it, and calls laminar only on an
image whose list differs from p's. Spans come in standard-form order, by
increasing hi, the order the blocks are stored in; no sort is made. The
CLI's stats command prints the span of every block, singletons included,
and reads those off the blocks itself.

Boundary: parse, normalize, SetPartition.from_blocks and
SetPartition.from_json check outside input; the other three end in
from_blocks, the one validating constructor, and SetPartition.validate
is the one checker of what the blocks hold. A family or a block that is
text, bytes, a byte view or a mapping (errors.NOT_ENTRIES) is refused
before its items are read; sets are legal blocks. enumerate_all and
enumerate_nonoverlapping check n and max_n before they build anything.
format_partition and is_nonoverlapping trust the SetPartition they are
handed; validate() re-checks one built directly.
"""

import re
from typing import Iterable, Iterator, NamedTuple

from .errors import NOT_ENTRIES, BoundError, ParseError, ValidationError, check_bound, is_int

Block = tuple[int, ...]

#: parse's one entry rule, in both forms.
_NUMBER = re.compile(r"[1-9][0-9]*\Z")

_NOT_A_FAMILY = "blocks must be an iterable of iterables of integers"

#: Default enumeration ceiling; Bell(14) ~ 1.9e8 partitions, streamed.
DEFAULT_MAX_N = 14

#: Ceiling on n whatever max_n says: the generators nest one level per element.
NESTING_MAX_N = 500


class SetPartition(NamedTuple):
    """A partition of {1, ..., n} in standard form.

    An immutable named tuple with one field, blocks: it unpacks as
    (blocks,) = p, orders as a tuple does, and compares and hashes equal
    to the plain tuple (blocks,). n is not stored but read off the blocks:
    in standard form the largest entry heads the last block. The
    constructor trusts its argument. Build instances through parse(),
    normalize() or from_blocks() unless the blocks are already known to be
    valid standard form; validate() re-checks every invariant.
    """

    blocks: tuple[Block, ...]

    @property
    def n(self) -> int:
        """The size of the ground set: the first entry of the last block."""
        return self.blocks[-1][0]

    def validate(self) -> "SetPartition":
        """Raise ValidationError naming the first violated invariant; n is
        read only once the blocks are known to be decreasing tuples of
        positive integers ordered by first entry."""
        if not isinstance(self.blocks, tuple) or not all(isinstance(block, tuple) for block in self.blocks):
            raise ValidationError("blocks must be a tuple of tuples")
        if not self.blocks:
            raise ValidationError("partition has no blocks")
        entries = []
        for block in self.blocks:
            if not block:
                raise ValidationError("empty block")
            for e in block:
                if not is_int(e) or e < 1:
                    raise ValidationError(f"entry {e!r} is not a positive integer")
            if any(a <= b for a, b in zip(block, block[1:])):
                raise ValidationError(f"block {block} is not strictly decreasing")
            entries.extend(block)
        firsts = [b[0] for b in self.blocks]
        if any(a >= b for a, b in zip(firsts, firsts[1:])):
            raise ValidationError("blocks are not ordered by increasing first entry")
        n = self.n
        if len(entries) != n or set(entries) != set(range(1, n + 1)):
            raise ValidationError(f"blocks do not partition {{1, ..., {n}}}")
        return self

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        """Validating constructor for blocks already in standard form."""
        return cls(tuple(_family(blocks))).validate()

    @classmethod
    def from_json(cls, obj: dict) -> "SetPartition":
        """Inverse of to_json; validates standard form."""
        if not isinstance(obj, dict) or "blocks" not in obj:
            raise ValidationError('expected an object with a "blocks" field')
        return cls.from_blocks(obj["blocks"])

    def to_json(self) -> dict:
        """Structured form: {"blocks": [[...], ...]}, inner lists decreasing."""
        return {"blocks": [list(b) for b in self.blocks]}

    def __str__(self) -> str:
        return format_partition(self)


def _iterable(value):
    """value, refused with ValidationError if it is of a type in
    errors.NOT_ENTRIES. Sets pass: a family or a block may be unordered."""
    if isinstance(value, NOT_ENTRIES):
        raise ValidationError(f"{_NOT_A_FAMILY}, got {type(value).__name__}")
    return value


def _family(blocks: Iterable[Iterable[int]]) -> list[Block]:
    """The caller's blocks as a list of tuples. What they hold is left to
    validate(); only a family or a block that cannot be iterated or is of
    a type in errors.NOT_ENTRIES is refused here."""
    try:
        return [tuple(_iterable(b)) for b in _iterable(blocks)]
    except TypeError:
        raise ValidationError(_NOT_A_FAMILY) from None


def normalize(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Build the standard form of an unordered family of disjoint sets.

    Unlike parse/from_blocks this sorts for the caller; it still rejects
    families that are not a partition of some {1, ..., n}. Blocks are
    sorted as whole tuples: disjoint blocks differ in their first entry.
    """
    try:
        fam = sorted(tuple(sorted(b, reverse=True)) for b in _family(blocks))
    except (TypeError, ArithmeticError):  # entries that do not compare; a Decimal NaN raises the latter
        raise ValidationError(_NOT_A_FAMILY) from None
    return SetPartition.from_blocks(fam)


def parse(text: str) -> SetPartition:
    """Parse a partition in the grammar above; rejects non-standard form.

    One rule reads every entry, in either form: it must match _NUMBER. A
    block's entries are its characters in compact form and its ","-split
    pieces in comma form. The form decides only what a bad entry is called
    in the message: "invalid character" in compact form, "invalid entry"
    in comma form."""
    if not isinstance(text, str):
        raise ParseError(f"partition text must be a string, got {type(text).__name__}", 0)
    if not text:
        raise ParseError("empty partition text", 0)
    sep = "," if "," in text or "0" in text else ""
    noun = "entry" if sep else "character"
    blocks = []
    pos = 0
    for chunk in text.split("/"):
        if not chunk:
            raise ParseError("empty block", pos)
        entries = []
        epos = pos
        for entry in chunk.split(sep) if sep else chunk:
            if not _NUMBER.match(entry):
                raise ParseError(f"invalid {noun} {entry!r}", epos)
            entries.append(int(entry))
            epos += len(entry) + len(sep)
        blocks.append(entries)
        pos += len(chunk) + 1
    return SetPartition.from_blocks(blocks)


def format_partition(p: SetPartition) -> str:
    """Serialize a partition: compact while n <= 9, comma form beyond."""
    sep = "" if p.n <= 9 else ","
    return "/".join(sep.join(map(str, b)) for b in p.blocks)


def nonsingleton_spans(p: SetPartition) -> list[tuple[int, int]]:
    """The spans (lo, hi) of the non-singleton blocks of p, in standard-form
    order, which is by increasing hi. No two blocks share a hi, so two such
    lists are equal exactly when they hold the same spans. A singleton's
    span is a single point, which nothing here reads. It is a loop, as on
    Python 3.11 a list comprehension builds a function on every call,
    which measurably slowed the verify sweep."""
    spans = []
    for b in p.blocks:
        if len(b) > 1:
            spans.append((b[-1], b[0]))
    return spans


def laminar(spans: list[tuple[int, int]]) -> bool:
    """True iff the spans, in standard-form order (by increasing hi), are
    pairwise disjoint or nested. Block endpoints are distinct elements, so
    no two endpoints tie.

    One pass in order of hi keeps outer, the spans seen so far that no
    span seen since encloses, left to right and pairwise disjoint. Each of
    them ends before hi, so one that starts after lo nests inside this
    span and is popped. The span then crosses an earlier one exactly when
    it starts inside the top: every span below the top ends before the
    top starts, and every span popped before lies inside one still kept
    or inside this one. Otherwise this span is pushed."""
    outer = []
    for lo, hi in spans:
        while outer and outer[-1][0] > lo:
            outer.pop()
        if outer and outer[-1][1] > lo:
            return False  # lo' < lo < hi' < hi: proper crossing
        outer.append((lo, hi))
    return True


def is_nonoverlapping(p: SetPartition) -> bool:
    """True iff all block spans of p are pairwise disjoint or nested."""
    return laminar(nonsingleton_spans(p))


def _check_size(n, max_n) -> None:
    """Both enumerations' guard: max_n, then the fixed nesting ceiling."""
    check_bound(n, max_n, "enumeration")
    if n > NESTING_MAX_N:
        raise BoundError(f"n={n} exceeds the generator nesting ceiling {NESTING_MAX_N}")


def enumerate_all(n: int, max_n: int = DEFAULT_MAX_N) -> Iterator[SetPartition]:
    """Every partition of [n] exactly once, in standard form, RGS-lex order."""
    _check_size(n, max_n)
    return _gen_all(n)


def _grow_all(prefixes, e):
    """Every one-element extension of each prefix of 1..e - 1, in RGS-lex
    order. A prefix is its blocks numbered by their minima, as in the RGS;
    element e joins each block in turn, then opens a block on the end."""
    for blocks in prefixes:
        for k, block in enumerate(blocks):
            yield blocks[:k] + ((e,) + block,) + blocks[k + 1:]
        yield blocks + ((e,),)


def _gen_all(n: int) -> Iterator[SetPartition]:
    """The empty prefix grown by one _grow_all level per element 1..n - 2.
    Elements n - 1 and n are placed together, in one batch per prefix: the
    prefix's blocks are sorted into standard form once, by their first
    entry, the block maximum, and each item is cut from that.

    n - 1 joins each block old in RGS order, which then moves to the end,
    and head is the rest; then n joins each block in RGS order: old, which
    it keeps at the end, or another, which moves past it. Then n opens a
    block. Last, n - 1 opens a block and n does the same over the blocks,
    n - 1's, and a block of its own. n = 1 is yielded directly; n = 2 is
    the batch on the empty prefix."""
    # new(SetPartition, (blocks,)) is the trusted constructor, one C-level call per item:
    # it skips SetPartition(blocks)'s argument handling, and a functools.partial around
    # it cost 190-200 ns a call against 160-165 ns (2-core Xeon VM, Python 3.11)
    new = tuple.__new__
    if n == 1:
        yield new(SetPartition, (((1,),),))
        return
    prefixes = ((),)
    for e in range(1, n - 1):
        prefixes = _grow_all(prefixes, e)
    last = (n,)
    for blocks in prefixes:
        std = tuple(sorted(blocks))
        for old in blocks:
            j = std.index(old)
            head = std[:j] + std[j + 1:]
            block = (n - 1,) + old
            for other in blocks:
                if other is old:
                    yield new(SetPartition, (head + (last + block,),))
                else:
                    j = head.index(other)
                    yield new(SetPartition, (head[:j] + head[j + 1:] + (block, last + other),))
            yield new(SetPartition, (head + (block, last),))
        block = (n - 1,)
        for other in blocks:
            j = std.index(other)
            yield new(SetPartition, (std[:j] + std[j + 1:] + (block, last + other),))
        yield new(SetPartition, (std + (last + block,),))
        yield new(SetPartition, (std + (block, last),))


def enumerate_nonoverlapping(n: int, max_n: int = DEFAULT_MAX_N) -> Iterator[SetPartition]:
    """Every nonoverlapping partition of [n] exactly once, in standard form,
    in the RGS-lex order of enumerate_all; the other partitions of [n] are
    never built."""
    _check_size(n, max_n)
    return _gen_nonoverlapping(n)


def _grow_nonoverlapping(prefixes, e, room):
    """The one-element extensions of each prefix of 1..e - 1 that some
    nonoverlapping partition of [e + room] extends, in RGS-lex order.

    A prefix is (blocks, need), blocks in RGS order as in _grow_all. need
    is the bitmask of blocks that must take a later element. When e joins
    block k, k's need is met; every earlier block whose largest element so
    far reaches min(k) must end after e, to enclose k; and k must go on if
    a later block in need does, to enclose it. Opening a block changes
    nothing. An extension is kept iff its need has at most room members.
    """
    for blocks, need in prefixes:
        for k, block in enumerate(blocks):
            lo = block[-1]
            g = need & ~(1 << k)
            for b in range(k):
                if blocks[b][0] >= lo:
                    g |= 1 << b
            if need >> (k + 1):
                g |= 1 << k
            if g.bit_count() <= room:
                yield blocks[:k] + ((e,) + block,) + blocks[k + 1:], g
        if need.bit_count() <= room:
            yield blocks + ((e,),), need


def _gen_nonoverlapping(n: int) -> Iterator[SetPartition]:
    """The empty prefix grown by one _grow_nonoverlapping level per
    element 1..n - 2, so no prefix that cannot be completed is built.
    Elements n - 1 and n are placed together, in one batch per prefix.

    A prefix keeps at most two blocks in need. With two, there is one
    completion: n - 1 closes the later block and n the earlier one, which
    must enclose it; it is yielded directly. With at most one the prefix
    is laminar, and one pass over its blocks in RGS order keeps stack,
    the blocks that enclose the current one (the open blocks of Flajolet
    & Schott 1990). At block k, the blocks that end below min(k) are
    popped; what is left is the chain of earlier blocks that reach min(k).
    The block in need, top, is pushed as (n,), not as itself: it must
    take n, past every later minimum, so it is never popped. Then n - 1
    joins k iff its need, by _grow_nonoverlapping's rule with room 1, has
    at most one member: that need is the stack, top included once k is
    past it (no earlier block reaches min(top), or it would be in need
    too). A block below top is only pushed: joined by n - 1, it would
    have to enclose top as well, and so would need n too; from top on,
    no later block is in need. With one block on the stack, n joins it.
    With none, n joins each root so far (a block pushed onto an empty
    stack, which no earlier block encloses), then n - 1's block, then
    opens a block.
    When n - 1 opens a block, n joins top, or each root, n - 1's block or
    a block of its own. The prefix's blocks are sorted into standard
    form once, as in _gen_all, and each item is cut from that, n - 1's
    block just before n's when they differ. The yields are written out
    twice, for a join and for an open, as one shared generator made the
    Y tally over n = 11 about 8 % slower; the reach test is written once,
    as the open case reads the roots the pass collected. n = 2 is the
    batch on the empty prefix. _y_counts_nonoverlapping runs the same
    pass to count Y over these completions, a class at a time, in a loop
    of its own."""
    new = tuple.__new__
    if n == 1:
        yield new(SetPartition, (((1,),),))
        return
    prefixes = (((), 0),)
    for e in range(1, n - 1):
        prefixes = _grow_nonoverlapping(prefixes, e, n - e)
    last = (n,)
    for blocks, need in prefixes:
        std = tuple(sorted(blocks))
        top = need.bit_length() - 1
        if need & (need - 1):
            # two blocks in need: n - 1 closes the later, which the earlier encloses
            block, other = blocks[top], blocks[(need ^ (1 << top)).bit_length() - 1]
            j = std.index(block)
            head = std[:j] + std[j + 1:]
            j = head.index(other)
            yield new(SetPartition, (head[:j] + head[j + 1:] + ((n - 1,) + block, last + other),))
            continue
        stack = []
        roots = []
        for k, block in enumerate(blocks):
            lo = block[-1]
            while stack and stack[-1][0] < lo:
                stack.pop()
            if len(stack) < 2 and k >= top:
                j = std.index(block)
                head = std[:j] + std[j + 1:]
                grown = (n - 1,) + block
                if stack:
                    other = blocks[top] if need else stack[0]
                    j = head.index(other)
                    yield new(SetPartition, (head[:j] + head[j + 1:] + (grown, last + other),))
                else:
                    for other in roots:
                        j = head.index(other)
                        yield new(SetPartition, (head[:j] + head[j + 1:] + (grown, last + other),))
                    yield new(SetPartition, (head + (last + grown,),))
                    yield new(SetPartition, (head + (grown, last),))
            if not stack:
                roots.append(block)
            stack.append(last if k == top else block)
        block = (n - 1,)
        if need:
            other = blocks[top]
            j = std.index(other)
            yield new(SetPartition, (std[:j] + std[j + 1:] + (block, last + other),))
        else:
            for other in roots:
                j = std.index(other)
                yield new(SetPartition, (std[:j] + std[j + 1:] + (block, last + other),))
            yield new(SetPartition, (std + (last + block,),))
            yield new(SetPartition, (std + (block, last),))


def _y_counts_nonoverlapping(n: int) -> dict[int, int]:
    """The Y distribution over the nonoverlapping partitions of [n],
    {y: count}, counted without listing them. It grows the prefixes
    _gen_nonoverlapping grows and runs the same stack pass over each
    last-level prefix, but adds each class of completions to the count at
    once, by its number of completions:

        two blocks in need                             1
        n - 1 joins a block, one block on the stack    1 (n joins that block)
        n - 1 joins a block, empty stack               roots + 2
        n - 1 opens a block, a block in need           1 (n joins top)
        n - 1 opens a block, no block in need          roots + 2

    roots counts the roots so far; n joins one of them, n - 1's block or a
    block of its own. The stack holds block maxima, top's pinned at n.

    Y = min(r, s), r the least maximum of a non-singleton block and s the
    second entry of 1's block, or 1 where {1} is a block. n - 1 and n
    exceed every prefix entry, so Y is read off the prefix: m0 and m1 are
    the two least maxima of its non-singleton blocks, n - 1 for each that
    is missing. Where 1's block is not a singleton, Y = min(m0, s) in
    every completion but those where n - 1 joins m0's block, which then
    ends past m1; there Y = min(m1, s). A join by n cannot move Y:
    a non-singleton block that n - 1 does not join and n does is 1's
    block or lies right of it, so its maximum was at least s already.
    Where 1's block is {1}, Y = 1 unless n - 1 or n joins it. n - 1 joins
    it as the pass's first candidate, which only a prefix with no block in
    need has; then Y = m0 for both completions. n joins it, the first
    root, in one completion of each later candidate with an empty stack,
    where Y = m0, or m1 if n - 1 joined m0's block; and in one where n - 1
    opens a block, where Y = m0, or n with no non-singleton block. n <= 2
    has an empty prefix and is counted directly."""
    if n <= 2:
        return dict.fromkeys(range(1, n + 1), 1)  # 21, then 1/2
    counts = [0] * (n + 1)
    prefixes = (((), 0),)
    for e in range(1, n - 1):
        prefixes = _grow_nonoverlapping(prefixes, e, n - e)
    for blocks, need in prefixes:
        m0 = m1 = n - 1
        for block in blocks:
            if len(block) > 1:
                hi = block[0]
                if hi < m1:
                    if hi < m0:
                        m0, m1 = hi, m0
                    else:
                        m1 = hi
        top = need.bit_length() - 1
        if need & (need - 1):
            # n - 1 closes the later block in need and n the earlier, neither of them {1}
            total, at_m0, to_one = 1, blocks[top][0] == m0, 0
        else:
            total = at_m0 = to_one = roots = 0  # at_m0: the completions where n - 1 joins m0's block
            stack = []
            for k, block in enumerate(blocks):
                lo = block[-1]
                while stack and stack[-1] < lo:
                    stack.pop()
                if len(stack) < 2 and k >= top:
                    w = 1 if stack else roots + 2
                    total += w
                    if block[0] == m0:
                        at_m0 = w
                    if roots and not stack:
                        to_one += 1  # n joins the first root, 1's block, in one of these
                if not stack:
                    roots += 1
                stack.append(n if k == top else block[0])
            total += 1 if need else roots + 2
        one = blocks[0]
        if len(one) > 1:
            s = one[-2]
            counts[m0 if m0 < s else s] += total - at_m0
            counts[m1 if m1 < s else s] += at_m0
        else:
            hit = at_m0 > 1  # m0's block is a later candidate with an empty stack
            counts[m1] += hit
            counts[m0] += to_one - hit
            rest = total - to_one
            if not need:
                counts[m0] += 2
                counts[m0 if m0 < n - 1 else n] += 1
                rest -= 3
            counts[1] += rest
    return {y: count for y, count in enumerate(counts) if count}
