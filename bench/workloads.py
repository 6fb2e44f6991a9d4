"""The three benchmark workloads and the correctness gates on their output.

Each workload is exhaustive and takes no generated input. A workload
function returns an Outcome: the time of the timed work, scaled to the
reference speed of gauge.py and raw, the item count the workload fixes
(independent of how the program does the work), and how many gate checks
were attempted and how many failed.
"""

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from typing import NamedTuple

from partinv import bessel, enumerate_nonoverlapping, run_all, stat_y, v_compute
from partinv.cli import main as cli_main

from gauge import SpeedGauge

#: Depth of each check in the `verify` workload: the shipped defaults,
#: frozen here so that the item count cannot drift with the program.
VERIFY_LIMITS = {
    "involution": 10,
    "spans": 10,
    "nonoverlapping": 10,
    "equidistribution": 10,
    "y_matches_v": 11,
    "avoiders_match_v": 8,
}

#: Checks that walk all of P_n, once per partition each.
PARTITION_CHECKS = ("involution", "spans", "nonoverlapping", "equidistribution")

NONOVERLAP_N = 11
TRIANGLE_N = 120

#: Bessel numbers, OEIS A006789, for n = 1..11 (the published terms).
A006789 = (1, 2, 5, 14, 43, 143, 509, 1922, 7651, 31965, 139685)

#: sha256 of the compact JSON of the decimal-string rows of the v-triangle
#: up to row N, frozen from the independent bottom-up tabulation
#: tests/oracles.py:v_alt_table.
TRIANGLE_DIGESTS = {
    8: "f67490a5216f8c686c9cfeee509e9980a4a244576a45b688429b3ec9f9146dad",
    120: "8aa5948b03999b77bfc458a146cdf09fca77d605b7d62b52e655429b9edfb236",
}


class Outcome(NamedTuple):
    wall_s: float  # at the reference speed
    raw_wall_s: float
    items: int
    attempted: int
    failed: int


def bell_numbers(n_max: int) -> list[int]:
    """bell[n] for n = 0..n_max, by the Bell triangle."""
    bells = [1]
    row = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        bells.append(nxt[0])
        row = nxt
    return bells


def verify_items(limits: dict[str, int]) -> dict[str, int]:
    """Items each check covers: partitions for the four P_n sweeps,
    nonoverlapping partitions plus triangle cells for y_matches_v,
    permutations plus triangle cells for avoiders_match_v."""
    bell = bell_numbers(max(limits[name] for name in PARTITION_CHECKS))
    items = {name: sum(bell[1:limits[name] + 1]) for name in PARTITION_CHECKS}
    d = limits["y_matches_v"]
    items["y_matches_v"] = sum(A006789[:d]) + d * (d + 1) // 2
    d = limits["avoiders_match_v"]
    items["avoiders_match_v"] = sum(math.factorial(n) for n in range(1, d + 1)) + d * (d + 1) // 2
    return items


def verify_gate(reports, limits: dict[str, int]) -> tuple[int, int]:
    """One check per claim: its report is present, in order, at the
    frozen depth, and passing."""
    failed = len(limits) - sum(
        r.ok and r.check_name == name and tuple(r.n_range) == (1, depth)
        for r, (name, depth) in zip(reports, limits.items())
    )
    return len(limits), failed


def verify_limits(n_max: int | None) -> dict[str, int]:
    """The frozen depths, or n_max for every check."""
    return VERIFY_LIMITS if n_max is None else dict.fromkeys(VERIFY_LIMITS, n_max)


def verify(n_max: int | None = None) -> Outcome:
    """run_all() at the shipped depths, or every check at depth n_max."""
    limits = verify_limits(n_max)
    with SpeedGauge() as gauge:
        reports = run_all(n_max)
    return Outcome(gauge.scaled_s, gauge.wall_s, sum(verify_items(limits).values()), *verify_gate(reports, limits))


def nonoverlap_gate(tally: Counter, n: int) -> tuple[int, int]:
    """The count is Bessel(n) and the Y tally is row n of the triangle."""
    checks = (
        sum(tally.values()) == bessel(n) == A006789[n - 1],
        [tally.get(k, 0) for k in range(1, n + 1)] == [v_compute(n, k) for k in range(1, n + 1)],
    )
    return len(checks), checks.count(False)


def nonoverlap(n: int = NONOVERLAP_N) -> Outcome:
    """Stream the nonoverlapping partitions of [n] and tally Y."""
    with SpeedGauge() as gauge:
        tally = Counter(stat_y(p) for p in enumerate_nonoverlapping(n))
    return Outcome(gauge.scaled_s, gauge.wall_s, A006789[n - 1], *nonoverlap_gate(tally, n))


def triangle_digest(rows: list[list[str]]) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def triangle_gate(code: int, text: str, n_max: int) -> tuple[int, int]:
    """Exit code 0, rows matching the frozen oracle digest, and row sums
    starting with the published Bessel numbers."""
    try:
        payload = json.loads(text)
        rows, sums = payload["rows"], payload["row_sums"]
        prefix = [int(s) for s in sums[:len(A006789)]]
    except (ValueError, KeyError, TypeError):
        rows, prefix = None, None
    checks = (
        code == 0,
        rows is not None and triangle_digest(rows) == TRIANGLE_DIGESTS[n_max],
        prefix == list(A006789[:n_max]),
    )
    return len(checks), checks.count(False)


def run_table(n_max: int) -> tuple[int, str]:
    """`partinv table n_max --format json` with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["table", str(n_max), "--format", "json"])
    return code, buf.getvalue()


def triangle(n_max: int = TRIANGLE_N) -> Outcome:
    """The CLI triangle, cold: the first call in this interpreter fills the
    recurrence cache, as every CLI invocation does."""
    with SpeedGauge() as gauge:
        code, text = run_table(n_max)
    return Outcome(gauge.scaled_s, gauge.wall_s, n_max * (n_max + 1) // 2, *triangle_gate(code, text, n_max))


WORKLOADS = {"verify": verify, "nonoverlap": nonoverlap, "triangle": triangle}
