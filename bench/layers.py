"""Traced replays: the per-item calls of each workload, made from this file
with a perf_counter span around every call into a partinv module.

Coarse spans (one per check and per n) are kept individually. Per-item
spans are too many to keep, so they are aggregated in memory as count and
total time per (layer, n); they have no children, so their self time is
their total. A coarse span's self time is its duration minus the time its
child spans cover; its layer time is the per-item time in its subtree.
"""

import inspect
from collections import Counter
from contextlib import contextmanager
from itertools import permutations
from time import perf_counter

from partinv import (
    ALL_CHECKS,
    avoider_last_entry_distribution,
    enumerate_all,
    enumerate_nonoverlapping,
    format_partition,
    is_avoider,
    is_nonoverlapping,
    sigma,
    stat_x,
    stat_y,
    v_compute,
    v_table,
)

import workloads


class Tracer:
    def __init__(self):
        self.calls = {}  # (layer, n) -> [count, total_s]
        self.spans = []  # finished coarse spans, in closing order
        self._open = []  # [id, child_s, layer_s] of each open coarse span
        self.attempted = 0  # claims the replays re-check, as the checks do
        self.failed = 0

    def expect(self, holds: bool) -> None:
        self.attempted += 1
        self.failed += not holds

    def add(self, layer: str, n: int, dt: float, count: int = 1) -> None:
        cell = self.calls.setdefault((layer, n), [0, 0.0])
        cell[0] += count
        cell[1] += dt
        if self._open:
            self._open[-1][1] += dt
            self._open[-1][2] += dt

    def call(self, layer: str, n: int, fn, *args):
        t = perf_counter()
        out = fn(*args)
        self.add(layer, n, perf_counter() - t)
        return out

    def stream(self, layer: str, n: int, items):
        """Yield from items, timing each step (the exhausting one too)."""
        it = iter(items)
        while True:
            t = perf_counter()
            item = next(it, None)
            self.add(layer, n, perf_counter() - t, item is not None)
            if item is None:
                return
            yield item

    @contextmanager
    def span(self, name: str, n: int | None = None):
        parent = self._open[-1][0] if self._open else None
        record = [len(self.spans) + len(self._open), 0.0, 0.0]
        self._open.append(record)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            if self._open:
                self._open[-1][1] += end - start
                self._open[-1][2] += record[2]
            self.spans.append({"id": record[0], "parent": parent, "name": name, "n": n, "start": start,
                               "end": end, "self_s": end - start - record[1], "layer_s": record[2]})

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def layer_time(self, name: str) -> float:
        return sum(s["layer_s"] for s in self.spans if s["name"] == name)

    def dump(self) -> dict:
        return {"calls": [[layer, n, c, t] for (layer, n), (c, t) in self.calls.items()],
                "spans": self.spans}


def _sigma_class(x: int, y: int) -> str:
    return "fixed" if x == y else "lower" if x < y else "upper"


def _replay_involution(tr: Tracer, n_max: int) -> None:
    mirror = {"fixed": "fixed", "lower": "upper", "upper": "lower"}
    for n in range(1, n_max + 1):
        with tr.span("n", n):
            for p in tr.stream("partitions.enumerate_all", n, enumerate_all(n)):
                x = tr.call("stats.stat_x", n, stat_x, p)
                y = tr.call("stats.stat_y", n, stat_y, p)
                cls = _sigma_class(x, y)
                q = tr.call("involution.sigma." + cls, n, sigma, p)
                text = tr.call("partitions.format_partition", n, format_partition, p)
                image = (tr.call("stats.stat_x", n, stat_x, q), tr.call("stats.stat_y", n, stat_y, q))
                back = tr.call("involution.sigma." + mirror[cls], n, sigma, q)
                tr.expect(bool(text) and image == (y, x) and back == p and (q == p) == (x == y))


def _replay_spans(tr: Tracer, n_max: int) -> None:
    for n in range(1, n_max + 1):
        with tr.span("n", n):
            for p in tr.stream("partitions.enumerate_all", n, enumerate_all(n)):
                q = tr.call("involution.sigma", n, sigma, p)
                tr.expect(Counter((b[-1], b[0]) for b in p.blocks if len(b) > 1)
                          == Counter((b[-1], b[0]) for b in q.blocks if len(b) > 1))


def _replay_nonoverlapping(tr: Tracer, n_max: int) -> None:
    for n in range(1, n_max + 1):
        with tr.span("n", n):
            for p in tr.stream("partitions.enumerate_all", n, enumerate_all(n)):
                before = tr.call("partitions.is_nonoverlapping", n, is_nonoverlapping, p)
                q = tr.call("involution.sigma", n, sigma, p)
                tr.expect(before == tr.call("partitions.is_nonoverlapping", n, is_nonoverlapping, q))


def _replay_equidistribution(tr: Tracer, n_max: int) -> None:
    for n in range(1, n_max + 1):
        with tr.span("n", n):
            joint_all, joint_nov = Counter(), Counter()
            for p in tr.stream("partitions.enumerate_all", n, enumerate_all(n)):
                key = (tr.call("stats.stat_x", n, stat_x, p), tr.call("stats.stat_y", n, stat_y, p))
                joint_all[key] += 1
                if tr.call("partitions.is_nonoverlapping", n, is_nonoverlapping, p):
                    joint_nov[key] += 1
            for joint in (joint_all, joint_nov):
                tr.expect(all(count == joint.get((j, i), 0) for (i, j), count in joint.items()))


def _replay_y_matches_v(tr: Tracer, n_max: int) -> None:
    for n in range(1, n_max + 1):
        with tr.span("n", n):
            counts = Counter(tr.call("stats.stat_y", n, stat_y, p) for p in
                             tr.stream("partitions.enumerate_nonoverlapping", n, enumerate_nonoverlapping(n)))
            for k in range(1, n + 1):
                tr.expect(counts.get(k, 0) == tr.call("recurrence.v_compute", n, v_compute, n, k))


def _replay_avoiders_match_v(tr: Tracer, n_max: int) -> None:
    for n in range(1, n_max + 1):
        with tr.span("n", n):
            dist = tr.call("patterns.avoider_last_entry_distribution", n,
                           avoider_last_entry_distribution, n, n)
            for k in range(1, n + 1):
                tr.expect(dist[k] == tr.call("recurrence.v_compute", n, v_compute, n, k))


REPLAYS = {
    "involution": _replay_involution,
    "spans": _replay_spans,
    "nonoverlapping": _replay_nonoverlapping,
    "equidistribution": _replay_equidistribution,
    "y_matches_v": _replay_y_matches_v,
    "avoiders_match_v": _replay_avoiders_match_v,
}


def trace_verify(n_max: int | None = None) -> dict:
    """Run each shipped check once, with a counting sigma_fn where it takes
    one, and right after it replay its calls with spans, so that both see
    about the same processor speed."""
    limits = workloads.verify_limits(n_max)
    tr = Tracer()
    sigma_calls = 0

    def counting_sigma(p):
        nonlocal sigma_calls
        sigma_calls += 1
        return sigma(p)

    reports = []
    for name, fn in ALL_CHECKS:
        kwargs = {"sigma_fn": counting_sigma} if "sigma_fn" in inspect.signature(fn).parameters else {}
        with tr.span("verify." + name):
            reports.append(fn(limits[name], **kwargs))
        with tr.span("replay." + name):
            REPLAYS[name](tr, limits[name])
    depth = limits["avoiders_match_v"]
    with tr.span("probe.is_avoider", depth):
        for perm in permutations(range(1, depth + 1)):
            tr.call("patterns.is_avoider", depth, is_avoider, perm)

    items = workloads.verify_items(limits)
    metrics = {}
    for name in limits:
        metrics[f"verify.{name}.s"] = tr.duration("verify." + name)
        metrics[f"verify.{name}.items"] = items[name]
    metrics["involution.sigma.calls"] = sigma_calls
    # derived: check time not covered by the replayed calls into other layers
    metrics["verify.self_s"] = sum(tr.duration("verify." + name) - tr.layer_time("replay." + name)
                                   for name in limits)
    metrics["patterns.avoider_last_entry_distribution.s"] = \
        tr.calls[("patterns.avoider_last_entry_distribution", depth)][1]
    attempted, failed = workloads.verify_gate(reports, limits)
    traced_wall = sum(tr.duration("replay." + name) for name in limits)
    return {"metrics": metrics, "traced_wall_s": traced_wall,
            "attempted": attempted + tr.attempted, "failed": failed + tr.failed, **tr.dump()}


def trace_nonoverlap(n: int = workloads.NONOVERLAP_N) -> dict:
    tr = Tracer()
    with tr.span("replay.nonoverlap", n):
        tally = Counter(tr.call("stats.stat_y", n, stat_y, p) for p in
                        tr.stream("partitions.enumerate_nonoverlapping", n, enumerate_nonoverlapping(n)))
    attempted, failed = workloads.nonoverlap_gate(tally, n)
    return {"metrics": {}, "traced_wall_s": tr.duration("replay.nonoverlap"),
            "attempted": attempted, "failed": failed, **tr.dump()}


def trace_triangle(n_max: int = workloads.TRIANGLE_N) -> dict:
    """Cold v_table, then the CLI on the warm recurrence: what remains of
    the CLI call is rendering."""
    tr = Tracer()
    with tr.span("replay.triangle", n_max):
        tr.call("recurrence.v_table", n_max, v_table, n_max)
        code, text = tr.call("cli.table", n_max, workloads.run_table, n_max)
    attempted, failed = workloads.triangle_gate(code, text, n_max)
    metrics = {"recurrence.v_table.cold_s": tr.calls[("recurrence.v_table", n_max)][1],
               "cli.table.render_s": tr.calls[("cli.table", n_max)][1]}
    return {"metrics": metrics, "traced_wall_s": tr.duration("replay.triangle"),
            "attempted": attempted, "failed": failed, **tr.dump()}


TRACES = {"verify": trace_verify, "nonoverlap": trace_nonoverlap, "triangle": trace_triangle}

