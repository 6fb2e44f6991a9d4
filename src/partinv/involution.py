"""The involution sigma on partitions of [n].

sigma fixes partitions with X = Y and otherwise swaps the two statistics,
exchanging {X < Y} with {X > Y}. On the X < Y side it absorbs initial
singleton blocks into the block containing 1 (expelling s as a new
singleton when r > s); on the X > Y side it reconstructs the unique
preimage of that move. It never disturbs the span of any non-singleton
block, so it preserves the nonoverlapping property.
"""

import enum

from .errors import PreconditionError
from .partitions import SetPartition
from .stats import aux_r, aux_s, block_with_one, stat_x, stat_y


class OrbitClass(enum.Enum):
    FIXED = "fixed"
    LOWER = "lower"   # X < Y
    UPPER = "upper"   # X > Y


def orbit_class(p: SetPartition) -> OrbitClass:
    x, y = stat_x(p), stat_y(p)
    if x == y:
        return OrbitClass.FIXED
    return OrbitClass.LOWER if x < y else OrbitClass.UPPER


def _assemble(n: int, blocks: list) -> SetPartition:
    """Restore standard form: blocks are decreasing, order them by first entry."""
    blocks.sort(key=lambda b: b[0])
    return SetPartition(n, tuple(blocks))


def _absorb(p: SetPartition) -> SetPartition:
    """Forward move for X < Y.

    X < Y forces the first block to be a singleton, {1} to live in a
    non-singleton block, and at least one non-singleton block to exist, so
    r and s are both defined.

    r > s: move the initial singletons smaller than s into the block
    containing 1, then expel s from that block as a new singleton. Because
    the block holds at least three entries there (max > s), its span is
    untouched. The image starts with the singleton {s}.

    r <= s: move every initial singleton (all smaller than r) into the
    block containing 1. The image starts with a non-singleton block.
    """
    r, s = aux_r(p), aux_s(p)
    one = block_with_one(p)
    lead = 0
    while len(p.blocks[lead]) == 1:
        lead += 1
    if r > s:
        moved = [b[0] for b in p.blocks[:lead] if b[0] < s]
        new_one = tuple(sorted((set(one) | set(moved)) - {s}, reverse=True))
        extra = [(s,)]
        kept_lead = [b for b in p.blocks[:lead] if b[0] > s]
    else:
        moved = [b[0] for b in p.blocks[:lead]]
        new_one = tuple(sorted(set(one) | set(moved), reverse=True))
        extra = []
        kept_lead = []
    rest = [b for b in p.blocks[lead:] if b is not one]
    return _assemble(p.n, kept_lead + rest + [new_one] + extra)


def sigma_inverse(q: SetPartition) -> SetPartition:
    """The unique p with X(p) < Y(p) and sigma(p) = q, for X(q) > Y(q).

    Which forward case produced q is visible in its first block: a
    singleton {s} undoes the r > s move (pull the entries below s out of
    the block containing 1 and put s back next to 1), a non-singleton with
    first entry r undoes the r <= s move (pull the entries below r out).
    The pulled entries become initial singleton blocks again. Like sigma,
    it trusts q to be in standard form.
    """
    if stat_x(q) <= stat_y(q):
        raise PreconditionError("sigma_inverse needs X > Y")
    first = q.blocks[0]
    one = block_with_one(q)
    if len(first) == 1:
        s = first[0]
        removed = [e for e in one if e != 1 and e < s]
        new_one = tuple(sorted((set(one) - set(removed)) | {s}, reverse=True))
        rest = [b for b in q.blocks[1:] if b is not one]
    else:
        r = first[0]
        removed = [e for e in one if e != 1 and e < r]
        new_one = tuple(sorted(set(one) - set(removed), reverse=True))
        rest = [b for b in q.blocks if b is not one]
    singletons = [(e,) for e in removed]
    return _assemble(q.n, rest + [new_one] + singletons)


def sigma(p: SetPartition) -> SetPartition:
    """Apply the involution: identity on X = Y, the absorb move on X < Y,
    its inverse on X > Y.

    p must be in standard form, as built by parse, from_blocks, normalize
    or enumeration. Validating it here would cost as much as the map, so a
    directly constructed SetPartition should be validate()d first.
    """
    x, y = stat_x(p), stat_y(p)
    if x == y:
        return p
    if x < y:
        return _absorb(p)
    return sigma_inverse(p)
