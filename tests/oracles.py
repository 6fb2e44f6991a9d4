"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different algorithm than
the code under test (recursive enumeration instead of the chain of
per-element generators, all-pairs and all-triples scans instead of linear ones,
Pascal's rule instead of math.comb, bottom-up tabulation with the
summations nested the other way round), so agreement is evidence rather
than repetition. The slow paths that fast ones replaced live on here too
(grouping every labeling afresh, sigma through set algebra, the pairwise
laminar scan, the two generators that batched only the last element,
the joint tally keyed by (X, Y) pairs, the avoiders found by testing
all n! permutations, each swept claim checked on its own at
every partition, the CLI's v-triangle rendered whole before a byte is
written), and the fast paths must equal them item for item. The
open-block scan reads a partition element by element, as a word and as
a transfer model that counts the (X, Y) joint without listing any
partition; its word, with every close made to take the oldest open
block, leads through Claesson's map to the avoiders. Ranking the words
by the transfer model's counts gives uniform draws far past enumeration,
in both scopes. On the permutation side, the append rule of patterns.py,
run on a state of its own, counts the avoiders by st and last entry, the
same joint reached without partitions.
"""

import json
import operator
from collections import Counter, defaultdict
from functools import cache
from itertools import combinations, permutations
from typing import Iterator

from hypothesis import strategies as st

from partinv import (
    SetPartition,
    ValidationError,
    aux_r,
    aux_s,
    enumerate_all,
    format_partition,
    normalize,
    sigma,
    stat_x,
    stat_y,
)
from partinv.partitions import _grow_all, _grow_nonoverlapping
from partinv.patterns import _is_avoider
from partinv.verify import Counterexample


def block_with_one(p: SetPartition) -> tuple[int, ...]:
    """The block containing 1, by a scan from the first block; as the
    global minimum, 1 sits last in it."""
    for block in p.blocks:
        if block[-1] == 1:
            return block
    raise ValidationError("no block contains 1")


def y_by_definition(p: SetPartition) -> int:
    """Y read off its definition, with no scan of the blocks in order: 1
    where {1} is a block, else the smaller of the least non-singleton
    maximum and 1's neighbour, the second smallest entry of its block."""
    one_block = sorted(next(b for b in p.blocks if 1 in b))
    if len(one_block) == 1:
        return 1
    return min(min(max(b) for b in p.blocks if len(b) > 1), one_block[1])


def bell_numbers(n_max: int) -> list[int]:
    """bell[i] = number of partitions of [i], via the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        bells.append(nxt[0])
        row = nxt
    return bells


def partitions_recursive(n: int) -> list[frozenset[frozenset[int]]]:
    """Every partition of [n] as a frozenset of frozensets, built by
    inserting n into each block of each partition of [n-1]."""
    if n == 0:
        return [frozenset()]
    out = []
    for smaller in partitions_recursive(n - 1):
        out.append(smaller | {frozenset({n})})
        for block in smaller:
            out.append((smaller - {block}) | {block | {n}})
    return out


def as_set_of_sets(p: SetPartition) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(b) for b in p.blocks)


def naive_nonoverlapping(p: SetPartition) -> bool:
    """All-pairs span test, singletons included."""
    spans = [(b[-1], b[0]) for b in p.blocks]
    for i, (lo1, hi1) in enumerate(spans):
        for lo2, hi2 in spans[i + 1:]:
            disjoint = hi1 < lo2 or hi2 < lo1
            nested = (lo1 <= lo2 and hi2 <= hi1) or (lo2 <= lo1 and hi1 <= hi2)
            if not (disjoint or nested):
                return False
    return True


def laminar_pairwise(spans: list[tuple[int, int]]) -> bool:
    """The pairwise scan partitions.laminar replaced: each span of the
    lo-sorted list against every later one that starts inside it, for
    spans whose lo endpoints never tie."""
    for i, (lo1, hi1) in enumerate(spans):
        for lo2, hi2 in spans[i + 1:]:
            if lo2 > hi1:
                break  # sorted by lo: everything later is disjoint from this one
            if hi2 > hi1:
                return False  # lo1 < lo2 <= hi1 < hi2: proper crossing
    return True


def asymmetry_by_counter(n: int, pairs, scope: str) -> Counterexample | None:
    """The joint tally verify._sweep replaced: the (X, Y) pairs counted in
    a Counter keyed by the pair, and its cells scanned in sorted order for
    the first whose count differs from its mirror's, reported as
    verify._asymmetry reports it."""
    joint = Counter(pairs)
    for (i, j), count in sorted(joint.items()):
        if count != joint[j, i]:
            return Counterexample(n, f"joint cells (X={i}, Y={j}) vs (X={j}, Y={i}) over {scope} "
                                  f"partitions of [{n}]", "symmetric joint distribution",
                                  f"{count} = {count}", f"{count} != {joint[j, i]}")
    return None


def involution_by_loop(n_max: int, sigma_fn) -> Counterexample | None:
    """The involution claim on its own, as the verify sweep reports it:
    every p of [1..n_max] in enumeration order, X and Y of sigma_fn(p) and
    sigma_fn(sigma_fn(p)) computed afresh, fixed points included."""
    for n in range(1, n_max + 1):
        for p in enumerate_all(n):
            x, y, q = stat_x(p), stat_y(p), sigma_fn(p)
            if (stat_x(q), stat_y(q)) != (y, x):
                return Counterexample(n, format_partition(p), "X/Y interchange", f"image with X={y}, Y={x}",
                                      f"{format_partition(q)} with X={stat_x(q)}, Y={stat_y(q)}")
            back = sigma_fn(q)
            if back != p:
                return Counterexample(n, format_partition(p), "sigma(sigma(p)) = p",
                                      format_partition(p), format_partition(back))
            if (q == p) != (x == y):
                return Counterexample(n, format_partition(p), "fixed point iff X = Y",
                                      f"fixed={x == y}", f"fixed={q == p}")
    return None


def _spans(p: SetPartition) -> list[tuple[int, int]]:
    return sorted((b[-1], b[0]) for b in p.blocks if len(b) > 1)


def nonnesting(p: SetPartition) -> bool:
    """No two non-singleton spans of p nest, lo < lo' < hi' < hi. In the
    spans sorted by lo, such a pair is a hi that falls, so p is nonnesting
    exactly when the his rise too; block endpoints are distinct, so none tie."""
    his = [hi for _, hi in _spans(p)]
    return his == sorted(his)


def spans_by_loop(n_max: int, sigma_fn) -> Counterexample | None:
    """The span claim on its own: the sorted non-singleton spans of every p
    of [1..n_max] against those of sigma_fn(p)."""
    for n in range(1, n_max + 1):
        for p in enumerate_all(n):
            before, after = _spans(p), _spans(sigma_fn(p))
            if before != after:
                return Counterexample(n, format_partition(p), "non-singleton span multiset preserved",
                                      str(before), str(after))
    return None


def nonoverlapping_by_loop(n_max: int, sigma_fn) -> Counterexample | None:
    """The nonoverlapping claim on its own: the all-pairs span test of every
    p of [1..n_max] against that of sigma_fn(p)."""
    for n in range(1, n_max + 1):
        for p in enumerate_all(n):
            before, after = naive_nonoverlapping(p), naive_nonoverlapping(sigma_fn(p))
            if before != after:
                return Counterexample(n, format_partition(p), "nonoverlapping predicate preserved",
                                      f"nonoverlapping={before}", f"nonoverlapping={after}")
    return None


def equidistribution_by_loop(n_max: int) -> Counterexample | None:
    """The equidistribution claim on its own: the (X, Y) pairs of all
    partitions of [n], then of the nonoverlapping ones, tallied by
    asymmetry_by_counter, for n = 1..n_max."""
    for n in range(1, n_max + 1):
        xy = [(stat_x(p), stat_y(p), naive_nonoverlapping(p)) for p in enumerate_all(n)]
        c = (asymmetry_by_counter(n, [(x, y) for x, y, _ in xy], "all")
             or asymmetry_by_counter(n, [(x, y) for x, y, nov in xy if nov], "nonoverlapping"))
        if c is not None:
            return c
    return None


def enumerate_by_groups(n: int) -> Iterator[SetPartition]:
    """Every partition of [n] in RGS-lex order, the slow way: step the
    restricted growth string a through lexicographic order (a[0] = 0,
    a[i] <= 1 + max(a[:i]); b[i] caches that bound) and group, reverse and
    sort the blocks of each labeling from scratch."""
    a = [0] * n
    b = [1] * n
    last = n - 1
    by_max = operator.itemgetter(-1)
    while True:
        nblocks = b[last] + (1 if a[last] == b[last] else 0) if last else 1
        groups = [[] for _ in range(nblocks)]
        for i in range(n):
            groups[a[i]].append(i + 1)
        groups.sort(key=by_max)
        yield SetPartition(tuple(tuple(reversed(g)) for g in groups))
        i = last
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        bound = b[i] + (1 if a[i] == b[i] else 0)
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = bound


def nonoverlapping_by_filter(n: int) -> list[SetPartition]:
    """The nonoverlapping partitions of [n] the slow way: every partition
    of [n], in enumeration order, kept when no two block spans cross."""
    return [p for p in enumerate_by_groups(n) if naive_nonoverlapping(p)]


def all_by_one_batch(n: int) -> Iterator[SetPartition]:
    """Every partition of [n] as the generator made them before it placed
    two elements per batch: the empty prefix grown by one _grow_all level
    per element 1..n - 1, then n placed in one batch per prefix. n joins
    each block, which then holds the largest element and so moves to the
    end, then opens a block. Each item is cut from the prefix's blocks
    sorted into standard form once."""
    prefixes = ((),)
    for e in range(1, n):
        prefixes = _grow_all(prefixes, e)
    for blocks in prefixes:
        std = tuple(sorted(blocks))
        for block in blocks:
            j = std.index(block)
            yield SetPartition(std[:j] + std[j + 1:] + ((n,) + block,))
        yield SetPartition(std + ((n,),))


def nonoverlapping_by_one_batch(n: int) -> Iterator[SetPartition]:
    """The nonoverlapping partitions of [n] as the generator made them
    before it placed two elements per batch: the empty prefix grown by one
    _grow_nonoverlapping level per element 1..n - 1, then n placed in one
    batch per prefix. With need = {j}, n joins j; with need empty, it joins
    each block whose minimum lies past the largest element of every
    earlier block, then opens a block. A block that fails lies inside an
    earlier one, so only a join raises hi. Each item is cut from the
    prefix's blocks sorted into standard form once."""
    prefixes = (((), 0),)
    for e in range(1, n):
        prefixes = _grow_nonoverlapping(prefixes, e, n - e)
    for blocks, need in prefixes:
        std = tuple(sorted(blocks))
        if need:
            block = blocks[need.bit_length() - 1]
            j = std.index(block)
            yield SetPartition(std[:j] + std[j + 1:] + ((n,) + block,))
        else:
            hi = 0
            for block in blocks:
                if block[-1] > hi:
                    hi = block[0]
                    j = std.index(block)
                    yield SetPartition(std[:j] + std[j + 1:] + ((n,) + block,))
            yield SetPartition(std + ((n,),))


#: the nonoverlapping partitions of [k] by size k, each a tuple of
#: decreasing blocks ordered by least entry
_first_returns: dict[int, list[tuple[tuple[int, ...], ...]]] = {0: [()]}


def _first_return(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every nonoverlapping partition of [n] by its first return: the
    block B of 1, with largest entry m, is m, any subset of 2..m-1 and 1.
    No other block crosses B's span, so the rest of 2..m-1 is any
    nonoverlapping partition nested under B, and m+1..n any one beside it."""
    if n not in _first_returns:
        out = []
        for m in range(1, n + 1):
            inner = range(m - 1, 1, -1)
            for size in range(len(inner) + 1):
                for chosen in combinations(inner, size):
                    block = (m, *chosen, 1) if m > 1 else (1,)
                    rest = sorted(set(inner) - set(chosen))
                    for under in _first_return(len(rest)):
                        nested = tuple(tuple(rest[e - 1] for e in b) for b in under)
                        for beside in _first_return(n - m):
                            out.append((block, *nested, *(tuple(e + m for e in b) for b in beside)))
        _first_returns[n] = out
    return _first_returns[n]


def nonoverlapping_by_first_return(n: int) -> list[SetPartition]:
    """The nonoverlapping partitions of [n] from the first-return
    decomposition behind the Bessel numbers' continued fraction (Flajolet
    & Schott 1990), in standard form and sorted by restricted growth
    string, the enumeration order. Uses nothing from partinv but
    SetPartition."""
    def rgs(blocks):
        label = bytearray(n)
        for i, b in enumerate(blocks):
            for e in b:
                label[e - 1] = i
        return label

    return [SetPartition(tuple(sorted(blocks))) for blocks in sorted(_first_return(n), key=rgs)]


def _assemble(blocks: list) -> SetPartition:
    """Restore standard form: blocks are decreasing, order them by first entry."""
    blocks.sort(key=lambda b: b[0])
    return SetPartition(tuple(blocks))


def _absorb_by_sets(p: SetPartition) -> SetPartition:
    """The forward move for X < Y through set algebra: with r > s, the
    initial singletons below s join the block containing 1 and s leaves it
    as a new singleton; with r <= s, every initial singleton joins it."""
    one = block_with_one(p)
    r, s = aux_r(p), one[-2]
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
    return _assemble(kept_lead + rest + [new_one] + extra)


def sigma_inverse_by_sets(q: SetPartition) -> SetPartition:
    """The inverse move for X > Y through set algebra: a singleton first
    block {s} gives s back to the block containing 1 and pulls the entries
    below s out of it; a non-singleton first block with first entry r
    pulls out the entries below r."""
    if stat_x(q) <= stat_y(q):
        raise ValueError("sigma_inverse_by_sets needs X > Y")
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
    return _assemble(rest + [new_one] + singletons)


def sigma_by_sets(p: SetPartition) -> SetPartition:
    """sigma through the statistics and set algebra, one move per orbit class."""
    x, y = stat_x(p), stat_y(p)
    if x == y:
        return p
    if x < y:
        return _absorb_by_sets(p)
    return sigma_inverse_by_sets(p)


def pascal_binomial(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[b]


def v_alt_table(n_max: int) -> dict[tuple[int, int], int]:
    """The v-triangle tabulated bottom-up, with the double sum nested
    d-outer/i-inner and the direct sum taken in reverse."""
    v: dict[tuple[int, int], int] = {}
    for n in range(1, n_max + 1):
        v[(n, n)] = 1
        for k in range(n - 1, 0, -1):
            if k == 1:
                v[(n, 1)] = sum(v[(n - 1, i)] for i in range(1, n))
                continue
            total = 0
            for d in range(2, k + 1):
                c = pascal_binomial(k - 2, d - 2)
                for i in range(k + 1, n + 1):
                    total += c * v[(n - d, i - d)]
            for i in range(n - 1, k - 1, -1):
                total += v[(n - 1, i)]
            v[(n, k)] = total
    return v


def table_output(table, fmt: str) -> str:
    """The stdout of `partinv table` for the rows in table, rendered whole:
    every cell a string first, the JSON document from one json.dumps, and
    each text column's width from the lengths of its strings."""
    n_max = len(table)
    rows = [[str(v) for v in row] for row in table]
    sums = [str(sum(row)) for row in table]
    if fmt == "json":
        return json.dumps({"n_max": n_max, "rows": rows, "row_sums": sums}, indent=2) + "\n"
    label_w = max(3, len(str(n_max)))
    # column k holds the k-th entry of rows k..n_max
    col_w = [max(len(str(k)), *(len(row[k - 1]) for row in rows[k - 1:])) for k in range(1, n_max + 1)]
    lines = ["n\\k".rjust(label_w) + "".join(f"  {str(k).rjust(col_w[k - 1])}" for k in range(1, n_max + 1))]
    for n, row in enumerate(rows, start=1):
        lines.append(str(n).rjust(label_w) + "".join(f"  {v.rjust(col_w[k])}" for k, v in enumerate(row)))
    lines += ["", "row sums"]
    sum_w = max(map(len, sums))
    for n, total in enumerate(sums, start=1):
        lines.append(str(n).rjust(label_w) + "  " + total.rjust(sum_w))
    return "\n".join(lines) + "\n"


def naive_contains_12adj_3(p) -> bool:
    n = len(p)
    return any(
        p[i] < p[i + 1] < p[j]
        for i in range(n - 2)
        for j in range(i + 2, n)
    )


def naive_contains_1_23adj(p) -> bool:
    n = len(p)
    return any(
        p[i] < p[j] < p[j + 1]
        for j in range(1, n - 1)
        for i in range(j)
    )


def avoiders_by_scan(n: int) -> list[tuple[int, ...]]:
    """The avoiders of [n] in lexicographic order, by testing each of the
    n! permutations with the unchecked predicate kernel: the scan that
    patterns.avoider_last_entry_distribution ran before it counted."""
    return [p for p in permutations(range(1, n + 1)) if _is_avoider(p)]


def avoiders_depth_first(n_max: int) -> dict[int, list[tuple[int, ...]]]:
    """listed[m] = the avoiders of [m] for 1 <= m <= n_max, by a depth-first
    search from (1,). Each avoider p of [m] is extended by every last entry
    k (older entries >= k shift up by one) that completes no pattern, read
    off p itself: k may not exceed an ascent top of p (12_3), nor p's last
    entry unless that entry is the minimum, 1 (1_23). Deleting the last
    entry of an avoider and closing the gap leaves an avoider, so the
    search meets each avoider once."""
    listed = {m: [] for m in range(1, n_max + 1)}
    stack = [(1,)]
    while stack:
        p = stack.pop()
        m = len(p)
        listed[m].append(p)
        if m == n_max:
            continue
        reach = min((hi for lo, hi in zip(p, p[1:]) if lo < hi), default=m + 1)
        if p[-1] != 1:
            reach = min(reach, p[-1])
        for k in range(1, reach + 1):
            stack.append(tuple(e + (e >= k) for e in p) + (k,))
    return listed


def stat_st(p: tuple[int, ...]) -> int:
    """The least of max(p(i), p(i + 1)) over the left-to-right minima p(i)
    of p, with p(n + 1) = 0. In an avoider the entries after each
    left-to-right minimum decrease (an ascent among them is a 1_23 whose 1
    is that minimum), so st is the least maximum of the segments that p
    falls into when cut before each left-to-right minimum: the blocks of
    the partition Claesson (2001) maps p to, whose least block maximum is X.
    Named like stat_x and stat_y, since st names hypothesis's strategies
    in this module."""
    low = best = len(p) + 1
    for e, after in zip(p, (*p[1:], 0)):
        if e < low:
            low = e
            best = min(best, max(e, after))
    return best


def st_last_joint(n_max: int) -> dict[int, Counter]:
    """joint[m][s, k] = the number of avoiders of [m] with st s and last
    entry k, for 1 <= m <= n_max, counted by the append rule of
    patterns.py without listing a permutation. The state (l, b, s) adds s
    to the count's (l, b): while l != 1, s is st; when l = 1, s is the
    least segment maximum before the final segment [1], or m + 1, above
    every entry, when there is none.
    From [1], in state (1, 2, 2), an append k gives
        k = 1:                (1, b + 1, st + 1), every old segment shifted
                              (st is 1 when l = 1, else s);
        2 <= k <= l:          (k, b + 1, s + [s >= k]), k joins the final segment;
        l = 1 and 2 <= k <= b: (k, k, min(s, k)), k tops the final segment [1].
    It loops over k, so it takes O(n^5) steps to reach n_max."""
    joint = {}
    states = {(1, 2, 2): 1}
    for m in range(1, n_max + 1):
        joint[m] = Counter()
        after = defaultdict(int)
        for (l, b, s), count in states.items():
            least = 1 if l == 1 else s  # st of the avoider
            joint[m][least, l] += count
            after[1, b + 1, least + 1] += count
            for k in range(2, l + 1):
                after[k, b + 1, s + (s >= k)] += count
            if l == 1:
                for k in range(2, b + 1):
                    after[k, k, min(s, k)] += count
        states = after
    return joint


def preimage_map(n: int, sigma_fn=sigma) -> dict[SetPartition, list[SetPartition]]:
    """image -> its X<Y preimages under the forward map, by brute force."""
    out: dict[SetPartition, list[SetPartition]] = {}
    for p in enumerate_all(n):
        if stat_x(p) < stat_y(p):
            out.setdefault(sigma_fn(p), []).append(p)
    return out


def skip_transfer_mutant(p: SetPartition) -> SetPartition:
    """Deliberately broken forward map: in the case that should split off
    the left neighbor of 1 as a new singleton, it merges the leading
    singletons and stops there. Everything else goes through the real map."""
    if stat_x(p) < stat_y(p) and aux_r(p) > aux_s(p):
        blocks = [set(b) for b in p.blocks]
        lead: list[set[int]] = []
        for b in blocks:
            if len(b) > 1:
                break
            lead.append(b)
        target = next(b for b in blocks if 1 in b)
        for b in lead:
            target |= b
        return normalize([b for b in blocks if b not in lead])
    return sigma(p)


def scan_word(p: SetPartition) -> tuple:
    """The open-block scan of p (Flajolet & Schott 1990): for e = 1..n,
    with the open non-singleton blocks listed oldest first, "S" for a
    singleton, "O" for the least element of a non-singleton block, which
    opens, ("J", i) for an element that joins the i-th open block, which
    stays open, and ("C", i) for the greatest element of the i-th open
    block, which closes."""
    block_of = {e: b for b in p.blocks for e in b}
    open_blocks: list[tuple[int, ...]] = []
    word: list = []
    for e in range(1, p.n + 1):
        b = block_of[e]
        if len(b) == 1:
            word.append("S")
        elif e == b[-1]:
            open_blocks.append(b)
            word.append("O")
        elif e == b[0]:
            word.append(("C", open_blocks.index(b) + 1))
            open_blocks.remove(b)
        else:
            word.append(("J", open_blocks.index(b) + 1))
    return tuple(word)


def from_scan_word(word) -> SetPartition:
    """The partition whose scan word is word: any ("C", i) closes the i-th
    open block, oldest first."""
    blocks: list[list[int]] = []
    open_blocks: list[list[int]] = []
    for e, letter in enumerate(word, start=1):
        if letter == "S":
            blocks.append([e])
        elif letter == "O":
            open_blocks.append([e])
        else:
            kind, i = letter
            open_blocks[i - 1].append(e)
            if kind == "C":
                blocks.append(open_blocks.pop(i - 1))
    return normalize(blocks)


def stack_to_queue(p: SetPartition) -> SetPartition:
    """The partition whose scan word is p's with every close made to take
    the oldest open block: each ("C", i) read as ("C", 1). A nonoverlapping
    partition closes its newest block each time, a nonnesting one its
    oldest, so this sends the one class to the other."""
    return from_scan_word(tuple(("C", 1) if letter[0] == "C" else letter for letter in scan_word(p)))


def claesson_permutation(p: SetPartition) -> tuple[int, ...]:
    """Claesson's (2001) permutation of p: the blocks of p by decreasing
    minimum, each written as its minimum and then its other entries in
    decreasing order. The minima are then the left-to-right minima, and
    cutting before each of them gives the blocks back."""
    return tuple(e for block in sorted(p.blocks, key=min, reverse=True) for e in (block[-1], *block[:-1]))


def finish_table(r_max: int, nonoverlapping: bool) -> list[list[int]]:
    """finish[r][k] for r <= r_max and k <= r_max + 1: the ways to place r
    more elements of the open-block scan with k blocks open and leave none
    open. Each element is a singleton or joins one of the k (1 + k ways),
    opens a block (1 way) or closes one: any of the k over all partitions,
    only the newest over nonoverlapping ones."""
    width = r_max + 2
    finish = [[1] + [0] * (width - 1)]
    for _ in range(r_max):
        prev = [*finish[-1], 0]
        finish.append([(1 + k) * prev[k] + prev[k + 1] + (min(k, 1) if nonoverlapping else k) * prev[k - 1]
                       for k in range(width)])
    return finish


def transfer_joint(n: int, finish: list[list[int]], nonoverlapping: bool) -> Counter:
    """The (X, Y) joint over the partitions of [n], or the nonoverlapping
    ones, counted by the open-block scan without listing a partition.
    X is the time of the first singleton or the first close. Y is 1 when
    {1} is a singleton; otherwise it is the time of the first close, or of
    the first join to 1's block if that comes first. While Y is unknown,
    1's block is open and the oldest, so over nonoverlapping partitions it
    can close only when k = 1, and any close makes Y known. A state
    (k, X, Y), X and Y None while unknown, goes to cell (X, Y) once both
    are known, times finish[r][k] for the r elements left; finish is
    finish_table(r_max, nonoverlapping) for some r_max >= n - 1."""
    joint = Counter({(1, 1): finish[n - 1][0]})  # 1 is a singleton
    states = {(1, None, None): 1}  # or it opens the oldest block
    for e in range(2, n + 1):
        after: Counter = Counter()
        for (k, x, y), count in states.items():
            closes = min(k, 1) if nonoverlapping else k
            moves = [((k, x or e, y), 1), ((k + 1, x, y), 1), ((k - 1, x or e, y or e), closes)]
            moves += [((k, x, y), k)] if y else [((k, x, e), 1), ((k, x, y), k - 1)]
            for (k2, x2, y2), ways in moves:
                if not ways:
                    continue
                if x2 and y2:
                    joint[x2, y2] += count * ways * finish[n - e][k2]
                else:
                    after[k2, x2, y2] += count * ways
        states = after
    return joint


def scan_word_at(n: int, rank: int, finish: list[list[int]], nonoverlapping: bool) -> tuple:
    """The scan word of rank 0 <= rank < finish[n][0] among those of the
    partitions of [n], or of the nonoverlapping ones; finish is
    finish_table(r_max, nonoverlapping) for some r_max >= n. Each element
    takes the first letter, in the order singleton, open, join to each
    open block oldest first, close of any open block (only the newest over
    nonoverlapping partitions), whose words reach past the rank: a letter
    that leaves k blocks open with r elements to place stands for
    finish[r][k] words. Rank 0 is the all-singletons word. The order is
    not RGS-lex."""
    word: list = []
    k = 0
    for r in range(n - 1, -1, -1):
        stay, opened = finish[r][k], finish[r][k + 1]
        if rank < stay:
            word.append("S")
        elif rank < stay + opened:
            rank -= stay
            word.append("O")
            k += 1
        elif rank < (k + 1) * stay + opened:  # the k joins, stay words each
            i, rank = divmod(rank - stay - opened, stay)
            word.append(("J", i + 1))
        else:
            i, rank = divmod(rank - (k + 1) * stay - opened, finish[r][k - 1])
            word.append(("C", k if nonoverlapping else i + 1))
            k -= 1
    return tuple(word)


@cache
def _scan_counts(max_n: int, nonoverlapping: bool) -> list[list[int]]:
    return finish_table(max_n, nonoverlapping)


def _uniform(draw, max_n: int, nonoverlapping: bool) -> SetPartition:
    """n from st.integers, then a rank from a Random that hypothesis seeds:
    its integers favour small values even over a range of 10^275, and small
    ranks are words that open with singletons, nearly always X = Y."""
    finish = _scan_counts(max_n, nonoverlapping)
    n = draw(st.integers(1, max_n))
    rank = draw(st.randoms(use_true_random=True)).randrange(finish[n][0])
    return from_scan_word(scan_word_at(n, rank, finish, nonoverlapping))


@st.composite
def uniform_partitions(draw, max_n: int = 200) -> SetPartition:
    """A partition of [n], n drawn from 1..max_n, uniform among the Bell(n):
    a rank drawn uniformly, and the partition of its scan word. It shrinks
    toward n = 1."""
    return _uniform(draw, max_n, False)


@st.composite
def uniform_nonoverlapping(draw, max_n: int = 200) -> SetPartition:
    """A nonoverlapping partition of [n], n drawn from 1..max_n, uniform
    among the nonoverlapping ones, as uniform_partitions draws."""
    return _uniform(draw, max_n, True)


@st.composite
def set_partitions(draw, min_n: int = 1, max_n: int = 40) -> SetPartition:
    """Random partitions drawn as restricted growth labelings."""
    n = draw(st.integers(min_n, max_n))
    labels = [0]
    top = 0
    for _ in range(1, n):
        v = draw(st.integers(0, top + 1))
        labels.append(v)
        top = max(top, v)
    groups: dict[int, list[int]] = {}
    for i, v in enumerate(labels, start=1):
        groups.setdefault(v, []).append(i)
    return normalize(groups.values())


class Perturbed(Exception):
    """Raised by a map from perturbed_sigmas on its raising partition."""


@st.composite
def perturbed_sigmas(draw, max_n: int = 6):
    """(depth, map): sigma, changed on up to three partitions of [1..depth]
    to the identity or to another partition of [1..max_n] (which may be a
    partition of another size), and raising Perturbed on at most one, so
    that every check meets the same raise, if any."""
    depth = draw(st.integers(1, max_n))
    every = [p for n in range(1, max_n + 1) for p in enumerate_all(n)]
    domain = st.sampled_from([p for p in every if p.n <= depth])
    changed = draw(st.dictionaries(domain, st.none() | st.sampled_from(every), max_size=3))
    raiser = draw(st.none() | domain)

    def perturbed(p: SetPartition) -> SetPartition:
        if p == raiser:
            raise Perturbed(format_partition(p))
        if p in changed:
            return p if changed[p] is None else changed[p]
        return sigma(p)
    return depth, perturbed


@st.composite
def span_families(draw, max_spans: int = 8) -> list[tuple[int, int]]:
    """Spans (lo, hi), lo < hi, no two endpoints equal, by increasing hi, the
    order nonsingleton_spans gives: distinct endpoints drawn in random order
    and paired off as they come, so that crossing, nested and disjoint
    pairs all occur."""
    ends = draw(st.lists(st.integers(1, 4 * max_spans), unique=True, max_size=2 * max_spans))
    return sorted(((min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])), key=lambda span: span[1])


@st.composite
def xy_multisets(draw, max_n: int = 8) -> tuple[int, list[tuple[int, int]]]:
    """(n, pairs): a multiset of (X, Y) pairs over [n]. Half the draws are
    made symmetric by adding every pair's mirror; then up to two more
    pairs go in, which may break the symmetry."""
    n = draw(st.integers(1, max_n))
    cell = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = draw(st.lists(cell, max_size=30))
    if draw(st.booleans()):
        pairs += [(y, x) for x, y in pairs]
    return n, pairs + draw(st.lists(cell, max_size=2))
