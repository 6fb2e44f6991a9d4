"""Exhaustive cross-checks binding each structural claim to an executable
test, with counterexample reporting.

Every check scans n = 1..n_max in the deterministic enumeration order and
reports the first violation it meets, so failures are stable regression
artifacts. Checks never raise on failure; the CLI turns failures into a
nonzero exit code. The sigma-dependent checks accept the map under test as
a parameter so that deliberately broken variants can be shown to trip them.
"""

from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from .involution import sigma
from .partitions import SetPartition, enumerate_all, enumerate_nonoverlapping, format_partition, is_nonoverlapping
from .patterns import avoider_last_entry_distribution
from .recurrence import v_compute
from .stats import stat_x, stat_y

#: Per-check depth keeping each run under a minute on commodity hardware.
DEFAULT_LIMITS = {
    "involution": 10,
    "spans": 10,
    "nonoverlapping": 10,
    "equidistribution": 10,
    "y_matches_v": 11,
    "avoiders_match_v": 8,
}


@dataclass(frozen=True)
class Counterexample:
    n: int
    item: str        # offending partition/permutation/cell, serialized
    claim: str       # the violated property
    expected: str
    actual: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "item": self.item,
            "claim": self.claim,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass(frozen=True)
class CheckReport:
    check_name: str
    n_range: tuple[int, int]
    status: str  # "pass" | "fail"
    counterexample: Counterexample | None
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.status == "pass"

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
    status = "pass" if counter is None else "fail"
    return CheckReport(name, (1, n_max), status, counter, perf_counter() - t0)


def check_involution(n_max: int = DEFAULT_LIMITS["involution"],
                     sigma_fn: Callable[[SetPartition], SetPartition] = sigma) -> CheckReport:
    """sigma is a self-inverse map swapping X and Y, fixing exactly X = Y."""
    t0 = perf_counter()
    for n in range(1, n_max + 1):
        for p in enumerate_all(n):
            x, y = stat_x(p), stat_y(p)
            q = sigma_fn(p)
            text = format_partition(p)
            if (stat_x(q), stat_y(q)) != (y, x):
                c = Counterexample(n, text, "X/Y interchange",
                                   f"image with X={y}, Y={x}",
                                   f"{format_partition(q)} with X={stat_x(q)}, Y={stat_y(q)}")
                return _report("involution", n_max, t0, c)
            if sigma_fn(q) != p:
                c = Counterexample(n, text, "sigma(sigma(p)) = p",
                                   text, format_partition(sigma_fn(q)))
                return _report("involution", n_max, t0, c)
            if (q == p) != (x == y):
                c = Counterexample(n, text, "fixed point iff X = Y",
                                   f"fixed={x == y}", f"fixed={q == p}")
                return _report("involution", n_max, t0, c)
    return _report("involution", n_max, t0)


def _nonsingleton_spans(p: SetPartition) -> Counter:
    return Counter((b[-1], b[0]) for b in p.blocks if len(b) > 1)


def check_spans(n_max: int = DEFAULT_LIMITS["spans"],
                sigma_fn: Callable[[SetPartition], SetPartition] = sigma) -> CheckReport:
    """sigma preserves the multiset of non-singleton block spans."""
    t0 = perf_counter()
    for n in range(1, n_max + 1):
        for p in enumerate_all(n):
            before = _nonsingleton_spans(p)
            after = _nonsingleton_spans(sigma_fn(p))
            if before != after:
                c = Counterexample(n, format_partition(p),
                                   "non-singleton span multiset preserved",
                                   str(sorted(before.elements())),
                                   str(sorted(after.elements())))
                return _report("spans", n_max, t0, c)
    return _report("spans", n_max, t0)


def check_nonoverlapping(n_max: int = DEFAULT_LIMITS["nonoverlapping"],
                         sigma_fn: Callable[[SetPartition], SetPartition] = sigma) -> CheckReport:
    """sigma maps nonoverlapping partitions to nonoverlapping partitions."""
    t0 = perf_counter()
    for n in range(1, n_max + 1):
        for p in enumerate_all(n):
            before = is_nonoverlapping(p)
            after = is_nonoverlapping(sigma_fn(p))
            if before != after:
                c = Counterexample(n, format_partition(p),
                                   "nonoverlapping predicate preserved",
                                   f"nonoverlapping={before}", f"nonoverlapping={after}")
                return _report("nonoverlapping", n_max, t0, c)
    return _report("nonoverlapping", n_max, t0)


def _joint_violation(joint: Counter, scope: str, n: int):
    """Symmetry of the joint (X, Y) counts; implies equal marginals, which
    are still compared explicitly."""
    for (i, j), count in sorted(joint.items()):
        mirror = joint.get((j, i), 0)
        if count != mirror:
            return Counterexample(n, f"joint cells (X={i}, Y={j}) vs (X={j}, Y={i}) over {scope}",
                                  "symmetric joint distribution",
                                  f"{count} = {count}", f"{count} != {mirror}")
    x_marg = Counter()
    y_marg = Counter()
    for (i, j), count in joint.items():
        x_marg[i] += count
        y_marg[j] += count
    for k in sorted(set(x_marg) | set(y_marg)):
        if x_marg[k] != y_marg[k]:
            return Counterexample(n, f"value {k} over {scope}",
                                  "X-distribution equals Y-distribution",
                                  f"#X={x_marg[k]}", f"#Y={y_marg[k]}")
    return None


def check_equidistribution(n_max: int = DEFAULT_LIMITS["equidistribution"]) -> CheckReport:
    """X and Y are equidistributed, jointly symmetric, over all partitions
    and over nonoverlapping ones."""
    t0 = perf_counter()
    for n in range(1, n_max + 1):
        joint_all = Counter()
        joint_nov = Counter()
        for p in enumerate_all(n):
            key = (stat_x(p), stat_y(p))
            joint_all[key] += 1
            if is_nonoverlapping(p):
                joint_nov[key] += 1
        for joint, scope in ((joint_all, f"all partitions of [{n}]"),
                             (joint_nov, f"nonoverlapping partitions of [{n}]")):
            c = _joint_violation(joint, scope, n)
            if c is not None:
                return _report("equidistribution", n_max, t0, c)
    return _report("equidistribution", n_max, t0)


def check_y_matches_v(n_max: int = DEFAULT_LIMITS["y_matches_v"]) -> CheckReport:
    """Y on nonoverlapping partitions of [n] has distribution v[n][k]."""
    t0 = perf_counter()
    for n in range(1, n_max + 1):
        counts = Counter(stat_y(p) for p in enumerate_nonoverlapping(n))
        for k in range(1, n + 1):
            expected = v_compute(n, k)
            if counts.get(k, 0) != expected:
                c = Counterexample(n, f"Y={k} over nonoverlapping partitions of [{n}]",
                                   "Y-distribution matches the v-triangle",
                                   str(expected), str(counts.get(k, 0)))
                return _report("y_matches_v", n_max, t0, c)
    return _report("y_matches_v", n_max, t0)


def check_avoiders_match_v(n_max: int = DEFAULT_LIMITS["avoiders_match_v"]) -> CheckReport:
    """The avoiders' last-entry distribution matches the v-triangle."""
    t0 = perf_counter()
    for n in range(1, n_max + 1):
        # the caller picked the depth, so it overrides the factorial guard
        dist = avoider_last_entry_distribution(n, max_n=n)
        for k in range(1, n + 1):
            expected = v_compute(n, k)
            if dist[k] != expected:
                c = Counterexample(n, f"last entry {k} over avoiders of [{n}]",
                                   "avoider last-entry distribution matches the v-triangle",
                                   str(expected), str(dist[k]))
                return _report("avoiders_match_v", n_max, t0, c)
    return _report("avoiders_match_v", n_max, t0)


ALL_CHECKS = (
    ("involution", check_involution),
    ("spans", check_spans),
    ("nonoverlapping", check_nonoverlapping),
    ("equidistribution", check_equidistribution),
    ("y_matches_v", check_y_matches_v),
    ("avoiders_match_v", check_avoiders_match_v),
)


def run_all(n_max_override: int | None = None) -> list[CheckReport]:
    """Run every check at its default depth, or all at the given depth."""
    reports = []
    for name, fn in ALL_CHECKS:
        n_max = DEFAULT_LIMITS[name] if n_max_override is None else n_max_override
        reports.append(fn(n_max))
    return reports
