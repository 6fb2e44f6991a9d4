"""The involution sigma on partitions of [n].

sigma fixes partitions with X = Y and otherwise swaps the two statistics,
exchanging {X < Y} with {X > Y}. On the X < Y side it absorbs initial
singleton blocks into the block containing 1 (expelling s as a new
singleton when r > s); on the X > Y side it reconstructs the unique
preimage of that move. It never disturbs the span of any non-singleton
block, so it preserves the nonoverlapping property. Being an involution,
it is its own inverse.

Boundary: sigma checks no outside input. It trusts the SetPartition it is
handed to be in standard form, since validating it would cost about three
times what sigma costs.
"""

from .partitions import SetPartition
from .stats import rs_blocks


def _absorb(blocks: tuple, lead: int, j: int, r: int, s: int) -> tuple:
    """Forward move for X < Y, on the blocks of p with lead, j as rs_blocks
    gives them and r, s as the statistics define them.

    X < Y forces the first block to be a singleton, {1} to live in a
    non-singleton block, and at least one non-singleton block to exist, so
    r and s are both defined.

    r > s: move the initial singletons smaller than s into the block
    containing 1, then expel s from that block as a new singleton. Because
    the block holds at least three entries there (max > s), its span is
    untouched. The image starts with the singleton {s}.

    r <= s: move every initial singleton (all smaller than r) into the
    block containing 1. The image starts with a non-singleton block.

    Either way the block containing 1 keeps its maximum and the entries
    moved into it lie between 1 and s, so the image is built in standard
    form, with {s}, when expelled, first.
    """
    one = blocks[j]
    if r > s:
        t = 0
        while blocks[t][0] < s:
            t += 1
        head, kept = ((s,),), one[:-2]
    else:
        t, head, kept = lead, (), one[:-1]
    moved = ()
    for b in blocks[:t]:  # the singletons before t, each prepended: largest first
        moved = b + moved
    return head + blocks[t:j] + (kept + moved + (1,),) + blocks[j + 1:]


def _restore(blocks: tuple, j: int) -> tuple:
    """Inverse move for X > Y, on the blocks of q with the block holding 1
    at index j.

    Which forward case produced q is visible in its first block: a
    singleton {s} undoes the r > s move (pull the entries below s out of
    the block containing 1 and put s back next to 1), a non-singleton with
    first entry r undoes the r <= s move (pull the entries below r out).
    The pulled entries become initial singleton blocks again; they lie
    below every block maximum, so they lead the image in increasing order.
    """
    first = blocks[0]
    t = first[0]
    one = blocks[j]
    c = 1
    while one[c] >= t:
        c += 1
    pulled = tuple([(e,) for e in reversed(one[c:-1])])
    if len(first) == 1:
        return pulled + blocks[1:j] + (one[:c] + (t, 1),) + blocks[j + 1:]
    return pulled + blocks[:j] + (one[:c] + (1,),) + blocks[j + 1:]


def sigma(p: SetPartition) -> SetPartition:
    """Apply the involution: identity on X = Y, the absorb move on X < Y,
    its inverse on X > Y.

    p must be in standard form, as built by parse, from_blocks, normalize
    or enumeration. Validating it here would cost about three times what
    the map costs, so a directly constructed SetPartition should be
    validate()d first.
    """
    blocks = p.blocks
    if blocks[0] == (1,):
        return p  # X = Y = 1
    lead, j = rs_blocks(blocks)
    x, r, s = blocks[0][0], blocks[lead][0], blocks[j][-2]
    y = r if r < s else s
    if x == y:
        return p
    if x < y:
        return tuple.__new__(SetPartition, (_absorb(blocks, lead, j, r, s),))
    return tuple.__new__(SetPartition, (_restore(blocks, j),))
