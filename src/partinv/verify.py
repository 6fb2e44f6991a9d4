"""Exhaustive cross-checks binding each structural claim to an executable
test, with counterexample reporting.

Every check scans n = 1..n_max in the deterministic enumeration order and
reports the first violation it meets, so failures are stable regression
artifacts. A report fails exactly when it carries a counterexample; its
status is read off that field. Checks never raise on failure; the CLI
turns failures into a nonzero exit code. A depth below 1 or past the
guard of what its check reads (the enumeration guard for the sweep and
the Y check, the avoider guard for the avoider check) raises BoundError
before any work starts.
The sigma-dependent checks accept the map under test as a parameter so
that deliberately broken variants can be shown to trip them.

The four claims over all of P_n (SWEPT) are checked in one sweep that
enumerates each partition once while any of them is live; a failed claim
drops out and the others go on. Its one read rule: of every partition p
it reads X and Y and whether p is nonoverlapping, and tallies both (X, Y)
joints. The flag is read off enumerate_nonoverlapping(n), walked in
lockstep with enumerate_all(n) once per pass: the nonoverlapping
partitions of [n] come in the same order, so p is one exactly when it
equals the next of them. Only the nonoverlapping claim, the
equidistribution claim and the Y check read the flag or the
nonoverlapping joint, so the walk is made only while one of them is
live or asked for; otherwise no p is flagged. The image
q = sigma_fn(p), q's fields and the checks that read them are gated too,
and run while the involution, spans or nonoverlapping claim is live.
sigma_fn is taken to be a function: when it returns p itself, the
image's fields are p's (its X and Y, its spans and its image, which is p
again), so no spans are read, as both span claims hold there, and where
X = Y the involution claim holds too and is not checked. Where q is not
p and a span claim (spans or nonoverlapping) is live, the spans of p's
and q's non-singleton blocks are read and compared once, and q's flag is
computed, with laminar, only where the two span lists differ: equal
lists give equal flags. An image that is merely equal to p is read in
full. The package's sigma is trusted, as enumeration is; any other
sigma_fn has each result validated, and one that is not a SetPartition
in standard form raises ValidationError. Span lists come in
standard-form order, so two are equal exactly when they hold the same
spans, and a spans counterexample prints each sorted by lo.
The sweep stops at the end of the n at which its last claim settled; the
rest of that P_n reads only p's own fields. A report's elapsed time runs
from the start of its sweep until its claim was settled.

While the involution claim is live, the sweep checks each n in a paired
pass first. sigma is to pair each X < Y partition p with the X > Y
partition q = sigma_fn(p), so the paired pass checks every live claim at
p, including sigma_fn(q) = p, and at the X = Y partitions, and only
counts an X > Y partition. It settles nothing. n is checked again by the
full pass, which checks every partition on its own and so reports or
raises exactly what it would have alone, on any of three triggers: a
check fails, sigma_fn raises, or the X < Y partitions whose image is a
partition of [n] differ in number from the X > Y partitions of [n].
Otherwise the full pass would find nothing at n either: since sigma_fn is
a function, the checks at those X < Y partitions make it one-to-one from
them into the X > Y partitions of [n], equal numbers make it onto, each
claim at q = sigma_fn(p) is the claim at p read backwards, and any other
partition is checked as the full pass would check it. With true X and Y
the two sides of P_n are equinumerous, so the numbers agree exactly when
no image falls outside P_n. Once the involution claim is settled, every
later n runs the full pass alone, and so does a sweep without it.

The Y check needs the Y distribution over the nonoverlapping partitions
of [n], which is the Y marginal of the sweep's nonoverlapping joint. So
the sweep runs it too, when asked, after its loop: for each n the loop
finished it reads that marginal from the pass that completed n (the full
pass, if the paired pass fell back). For each n past them it reads the
count of partitions._y_counts_nonoverlapping, which runs the stack pass
of enumerate_nonoverlapping's batch over each last-level prefix and adds
each class of completions to the count at once, by its number of
completions and with Y read off the prefix, so no partition is built
and no Y is read per partition. Its report's time starts when the Y
check starts. check_y_matches_v on its own is a sweep of no P_n claim,
and so counts every n that way.
"""

from time import perf_counter
from typing import Callable, NamedTuple

from .errors import ValidationError, check_bound
from .involution import sigma
from .partitions import (DEFAULT_MAX_N, SetPartition, _y_counts_nonoverlapping, enumerate_all, enumerate_nonoverlapping,
                         format_partition, laminar, nonsingleton_spans)
from .patterns import AVOIDER_MAX_N, _last_entry_distributions
from .recurrence import v_table
from .stats import stat_x, stat_y

#: Per-check default depth. On a 2-core Intel Xeon VM (Python 3.11) the
#: whole run_all() takes 0.51-0.58 s in process at these depths (quartiles
#: of 20 runs, median 0.52 s): the shared sweep to n = 10 0.46-0.53 s,
#: y_matches_v 0.051-0.054 s, all of it the Y count over n = 11 (n <= 10
#: is read from the sweep's tally), avoiders_match_v under 1 ms. Each
#: further n of the sweep costs five to six times more.
DEFAULT_LIMITS = {
    "involution": 10,
    "spans": 10,
    "nonoverlapping": 10,
    "equidistribution": 10,
    "y_matches_v": 11,
    "avoiders_match_v": 8,
}

SigmaFn = Callable[[SetPartition], SetPartition]


class Counterexample(NamedTuple):
    n: int
    item: str        # offending partition/permutation/cell, serialized
    claim: str       # the violated property
    expected: str
    actual: str

    def to_json(self) -> dict:
        return self._asdict()


class CheckReport(NamedTuple):
    """One check's outcome. It passes exactly when it holds no
    counterexample: ok and status ("pass" or "fail") are read off that
    field, not stored beside it. elapsed (seconds) runs from the start of
    the sweep the check ran in until its claim was settled, so a claim
    that shares a sweep also counts the time of the claims beside it; the
    Y and avoider checks time from their own start."""

    check_name: str
    n_range: tuple[int, int]
    counterexample: Counterexample | None
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        return "pass" if self.ok else "fail"

    def to_json(self) -> dict:
        return {
            "check": self.check_name,
            "n_range": list(self.n_range),
            "status": self.status,
            "counterexample": None if self.counterexample is None else self.counterexample.to_json(),
            "elapsed_seconds": round(self.elapsed, 6),
        }

    def summary(self) -> str:
        lo, hi = self.n_range
        line = f"{self.status.upper():4s} {self.check_name} n={lo}..{hi} ({self.elapsed:.2f}s)"
        if self.counterexample is not None:
            c = self.counterexample
            line += (
                f"\n     counterexample at n={c.n}: {c.item}"
                f"\n     violated: {c.claim}; expected {c.expected}, got {c.actual}"
            )
        return line


def _report(name, n_max, t0, counter=None):
    return CheckReport(name, (1, n_max), counter, perf_counter() - t0)


#: The four claims over all of P_n, checked together by _sweep in this order.
SWEPT = ("involution", "spans", "nonoverlapping", "equidistribution")


def _involution(n, p, x, y, q, sigma_fn: SigmaFn) -> Counterexample | None:
    """The first involution property that p of [n] breaks, given
    x, y = X(p), Y(p) and its image q = sigma_fn(p), or None. The sweep
    calls it only where q is not p or x != y: a fixed point with X = Y
    keeps every property, since its image's fields are p's. Only X = Y can
    break the fixed-point property once the interchange holds, since
    x != y then gives X(q) = y != X(p), so q != p."""
    if stat_x(q) != y or stat_y(q) != x:
        return Counterexample(n, format_partition(p), "X/Y interchange", f"image with X={y}, Y={x}",
                              f"{format_partition(q)} with X={stat_x(q)}, Y={stat_y(q)}")
    back = sigma_fn(q)
    if back != p:
        return Counterexample(n, format_partition(p), "sigma(sigma(p)) = p",
                              format_partition(p), format_partition(back))
    if x == y and q != p:
        return Counterexample(n, format_partition(p), "fixed point iff X = Y", "fixed=True", "fixed=False")
    return None


def _asymmetry(n, joint: list[list[int]], scope: str) -> Counterexample | None:
    """The first nonzero cell (X=i, Y=j) of joint, the (X, Y) counts over
    scope partitions of [n] with joint[i][j] the count of (X=i, Y=j),
    whose count differs from that of (X=j, Y=i). Cells are scanned in
    (i, j) order and empty ones skipped, so the cell reported is the first
    asymmetric one that some partition of scope lands in."""
    for i, row in enumerate(joint):
        for j, count in enumerate(row):
            mirror = joint[j][i]
            if count and count != mirror:
                return Counterexample(n, f"joint cells (X={i}, Y={j}) vs (X={j}, Y={i}) over {scope} "
                                      f"partitions of [{n}]", "symmetric joint distribution",
                                      f"{count} = {count}", f"{count} != {mirror}")
    return None


def _validated(sigma_fn: SigmaFn) -> SigmaFn:
    """sigma_fn, refusing with ValidationError any result that is not a
    SetPartition in standard form; a result's own ValidationError is raised
    again under the sigma_fn prefix."""
    def checked(p: SetPartition) -> SetPartition:
        q = sigma_fn(p)
        if not isinstance(q, SetPartition):
            raise ValidationError(f"sigma_fn must return a SetPartition, got {q!r}")
        try:
            return q.validate()
        except ValidationError as exc:
            raise ValidationError(f"sigma_fn must return a SetPartition in standard form, got {q!r}: {exc}") from exc
    return checked


class _Unpaired(Exception):
    """A check of the paired pass failed: the pass settles nothing, and its
    n is checked again by the full pass."""


def _sweep(depths: dict[str, int], sigma_fn: SigmaFn = sigma) -> dict[str, CheckReport]:
    """Check the named claims of SWEPT, each to its own depth, in one pass
    over P_1, P_2, ... that stops at the end of the n at which the last
    claim settled. X, Y and the nonoverlapping flag of every partition are
    read, the flag off enumerate_nonoverlapping walked in lockstep while a
    claim that reads it is live, and both joints tallied; sigma_fn is
    called, and its image read, only while the involution, spans or
    nonoverlapping claim is live: the involution properties are checked
    only where the image is not p itself or X != Y, and the spans read
    only while a span claim is live and where the image is not p itself.
    When depths names y_matches_v too, the sweep runs the Y check after
    its loop: the Y distribution of each n the loop finished is the Y
    marginal of that n's nonoverlapping tally, from its completed pass,
    and past them the Y check reads partitions._y_counts_nonoverlapping,
    which counts each class of the batch's completions at once."""
    for n_max in depths.values():
        check_bound(n_max, DEFAULT_MAX_N, "enumeration", "check depth")
    if not callable(sigma_fn):
        raise ValidationError(f"sigma_fn must be callable, got {sigma_fn!r}")
    if sigma_fn is not sigma:
        sigma_fn = _validated(sigma_fn)
    t0 = perf_counter()
    reports = {}
    tallied = []  # the Y distribution over the nonoverlapping partitions of each finished n

    def settle(name, c=None):
        if paired and c is not None:
            raise _Unpaired  # the paired pass settles nothing
        reports[name] = _report(name, depths[name], t0, c)
        return False  # the claim's live flag from now on

    # one live flag per claim; only the map and the image's fields are read under them
    inv, spn, nvl, eqd = (name in depths for name in SWEPT)
    n = 0
    while inv or spn or nvl or eqd:
        n += 1
        # while the involution claim is live, n is checked in the paired pass,
        # and checked again in the full pass if any part of the paired pass fails
        for paired in (True, False) if inv else (False,):
            # joint[x][y] counts (X=x, Y=y); X and Y lie in 1..n
            joint_all = [[0] * (n + 1) for _ in range(n + 1)]
            joint_nov = [[0] * (n + 1) for _ in range(n + 1)]
            sides = 0  # X < Y partitions with an image in P_n less X > Y ones, in the paired pass
            # the nonoverlapping partitions of [n] are a subsequence of enumerate_all(n), in its
            # order, so p is nonoverlapping exactly when it is the next of them; they are walked
            # only for the claims that read the flag or the nonoverlapping tally
            walk = nvl or eqd or "y_matches_v" in depths
            nonoverlapping = enumerate_nonoverlapping(n) if walk else iter(())
            nxt = next(nonoverlapping, None)
            try:
                for p in enumerate_all(n):
                    x, y = stat_x(p), stat_y(p)
                    joint_all[x][y] += 1
                    nov = p == nxt
                    if nov:
                        joint_nov[x][y] += 1
                        nxt = next(nonoverlapping, None)
                    if paired and x > y:
                        sides -= 1  # each claim at p is its X < Y partner's claim read backwards
                    elif inv or spn or nvl:
                        q = sigma_fn(p)
                        if paired and x < y:
                            sides += q.n == n  # an image outside P_n pairs p with no partition of [n]
                        # a fixed point with X = Y passes the involution claim
                        if inv and not (q is p and x == y):
                            c = _involution(n, p, x, y, q, sigma_fn)
                            if c is not None:
                                inv = settle("involution", c)
                        # only the span claims read spans; a fixed point's spans are p's, so both hold there
                        if (spn or nvl) and q is not p:
                            sp, sq = nonsingleton_spans(p), nonsingleton_spans(q)
                            differ = sp != sq
                            if spn and differ:
                                spn = settle("spans", Counterexample(n, format_partition(p),
                                    "non-singleton span multiset preserved", str(sorted(sp)), str(sorted(sq))))
                            # equal span lists give equal flags, so p's is kept
                            if nvl and differ and laminar(sq) != nov:
                                nvl = settle("nonoverlapping", Counterexample(
                                    n, format_partition(p), "nonoverlapping predicate preserved",
                                    f"nonoverlapping={nov}", f"nonoverlapping={not nov}"))
                if sides:
                    raise _Unpaired  # some X > Y partition is no counted X < Y partition's image
                if eqd:
                    c = _asymmetry(n, joint_all, "all") or _asymmetry(n, joint_nov, "nonoverlapping")
                    if c is not None:
                        eqd = settle("equidistribution", c)
            except Exception:
                # _Unpaired, or a raise of sigma_fn, which the full pass meets again where it is due
                if not paired:
                    raise
            else:
                break
        tallied.append({y: total for y, total in enumerate(map(sum, zip(*joint_nov))) if total})
        # a claim still live at its depth has passed
        inv, spn, nvl, eqd = (live and (n < depths[name] or settle(name))
                              for name, live in zip(SWEPT, (inv, spn, nvl, eqd)))
    if depth := depths.get("y_matches_v"):  # check_bound has refused every depth below 1
        reports["y_matches_v"] = _matches_v(
            "y_matches_v", depth, map(lambda n: tallied[n - 1] if n <= len(tallied) else _y_counts_nonoverlapping(n),
                                      range(1, depth + 1)),
            "Y={k} over nonoverlapping partitions of [{n}]", "Y-distribution matches the v-triangle")
    return reports


def check_involution(n_max: int = DEFAULT_LIMITS["involution"], sigma_fn: SigmaFn = sigma) -> CheckReport:
    """sigma is a self-inverse map swapping X and Y, fixing exactly X = Y."""
    return _sweep({"involution": n_max}, sigma_fn)["involution"]


def check_spans(n_max: int = DEFAULT_LIMITS["spans"], sigma_fn: SigmaFn = sigma) -> CheckReport:
    """sigma preserves the multiset of non-singleton block spans."""
    return _sweep({"spans": n_max}, sigma_fn)["spans"]


def check_nonoverlapping(n_max: int = DEFAULT_LIMITS["nonoverlapping"], sigma_fn: SigmaFn = sigma) -> CheckReport:
    """sigma maps nonoverlapping partitions to nonoverlapping partitions."""
    return _sweep({"nonoverlapping": n_max}, sigma_fn)["nonoverlapping"]


def check_equidistribution(n_max: int = DEFAULT_LIMITS["equidistribution"]) -> CheckReport:
    """X and Y are equidistributed, jointly symmetric, over all partitions
    and over nonoverlapping ones."""
    return _sweep({"equidistribution": n_max})["equidistribution"]


def _matches_v(name: str, n_max: int, distributions, item: str, claim: str) -> CheckReport:
    """The distributions, dicts k -> count that distributions yields for
    n = 1, 2, ... in turn, equal the rows of the v-triangle for n = 1..n_max;
    item names the offending cell by n and k. The rows are read once, and a
    distribution is drawn only as its row is compared, so none past the
    first failing n or past n_max. Each n is one loop over the keys with one
    report site: the cells k = 1..n against the row, then each key outside
    them, in sorted order, against 0. The first key whose count differs is
    reported, so a row that passes totals Bessel(n), the triangle's row
    sum."""
    t0 = perf_counter()
    for n, (row, dist) in enumerate(zip(v_table(n_max), distributions), start=1):
        for k, expected in (*enumerate(row, start=1), *((k, 0) for k in sorted(dist.keys() - range(1, n + 1)))):
            if dist.get(k, 0) != expected:
                c = Counterexample(n, item.format(n=n, k=k), claim, str(expected), str(dist.get(k, 0)))
                return _report(name, n_max, t0, c)
    return _report(name, n_max, t0)


def check_y_matches_v(n_max: int = DEFAULT_LIMITS["y_matches_v"]) -> CheckReport:
    """Y on nonoverlapping partitions of [n] has distribution v[n][k]. On
    its own the check is a sweep of no P_n claim, so it reads the Y count
    of partitions._y_counts_nonoverlapping for each n, which adds each
    class of enumerate_nonoverlapping(n)'s batch at once, by its number of
    completions; in run_all's sweep it reads the distributions for the n
    the sweep finished from the sweep's nonoverlapping tally, and counts
    only past them."""
    return _sweep({"y_matches_v": n_max})["y_matches_v"]


def check_avoiders_match_v(n_max: int = DEFAULT_LIMITS["avoiders_match_v"]) -> CheckReport:
    """The avoiders' last-entry distribution matches the v-triangle, to at
    most AVOIDER_MAX_N, the guard of the count it reads. The distributions
    of every n come from one run of the append-rule count of patterns,
    which lists no permutation; the tests tie that count to the pattern
    predicates."""
    check_bound(n_max, AVOIDER_MAX_N, "avoider", "check depth")
    return _matches_v("avoiders_match_v", n_max, _last_entry_distributions(),
                      "last entry {k} over avoiders of [{n}]",
                      "avoider last-entry distribution matches the v-triangle")


ALL_CHECKS = (
    ("involution", check_involution),
    ("spans", check_spans),
    ("nonoverlapping", check_nonoverlapping),
    ("equidistribution", check_equidistribution),
    ("y_matches_v", check_y_matches_v),
    ("avoiders_match_v", check_avoiders_match_v),
)


def run_all(n_max_override: int | None = None) -> list[CheckReport]:
    """Run every check at its default depth, or all at the given depth;
    the four claims over all of P_n and the Y check share one sweep, which
    runs first and so refuses a depth of any of them past the enumeration
    guard before any work, and which hands the Y check its nonoverlapping
    tally."""
    depths = {name: DEFAULT_LIMITS[name] if n_max_override is None else n_max_override for name, _ in ALL_CHECKS}
    reports = _sweep({name: depths[name] for name in (*SWEPT, "y_matches_v")})
    return [reports[name] if name in reports else fn(depths[name]) for name, fn in ALL_CHECKS]
