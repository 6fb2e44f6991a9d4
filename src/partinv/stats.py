"""Partition statistics: the minimax statistic X, its companion Y, and the
auxiliary quantities r and s that drive the involution.

On a partition in standard form:

    X = first entry of the first block (= smallest block maximum)
    r = first entry of the first non-singleton block
    s = left neighbor of 1 in its block (= second smallest entry there)
    Y = 1 if {1} is a singleton block, else min(r, s)

When {1} is not a singleton its own block is non-singleton, so both r and
s exist exactly where Y's second branch needs them.
"""

from .errors import NoNonsingletonBlock, OneIsSingleton, ValidationError
from .partitions import Block, SetPartition


def stat_x(p: SetPartition) -> int:
    """Minimax statistic: the first entry of the first block."""
    return p.blocks[0][0]


def block_with_one(p: SetPartition) -> Block:
    """The block containing 1; as the global minimum, 1 sits last in it."""
    for block in p.blocks:
        if block[-1] == 1:
            return block
    raise ValidationError("no block contains 1")


def aux_r(p: SetPartition) -> int:
    """First entry of the first non-singleton block."""
    for block in p.blocks:
        if len(block) > 1:
            return block[0]
    raise NoNonsingletonBlock("every block is a singleton")


def aux_s(p: SetPartition) -> int:
    """Second smallest entry of the block containing 1."""
    block = block_with_one(p)
    if len(block) == 1:
        raise OneIsSingleton("{1} is a singleton block")
    return block[-2]


def stat_y(p: SetPartition) -> int:
    """1 when {1} is a singleton block, otherwise min(r, s). p must be in
    standard form, as built by parse, from_blocks, normalize or enumeration.
    """
    if p.blocks[0] == (1,):
        return 1
    return min(aux_r(p), aux_s(p))
