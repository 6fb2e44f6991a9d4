"""Tests of the benchmark itself: its gates count failures, and every
workload and the traced run work end to end at tiny sizes.

    python3 -m pytest bench
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import gauge  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from partinv import ALL_CHECKS, sigma  # noqa: E402

TINY = {"verify": [4], "nonoverlap": [6], "triangle": [8]}


def _reports(n_max, sigma_fn):
    return [fn(n_max, sigma_fn=sigma_fn) if name in ("involution", "spans", "nonoverlapping") else fn(n_max)
            for name, fn in ALL_CHECKS]


def test_verify_gate_counts_broken_sigma_as_failure():
    limits = dict.fromkeys(workloads.VERIFY_LIMITS, 4)
    assert workloads.verify_gate(_reports(4, sigma), limits) == (6, 0)
    # the identity keeps spans and the nonoverlapping property, but is no X/Y swap
    assert workloads.verify_gate(_reports(4, lambda p: p), limits) == (6, 1)


def test_verify_gate_counts_wrong_depth_and_missing_reports():
    reports = _reports(4, sigma)
    assert workloads.verify_gate(reports, workloads.VERIFY_LIMITS) == (6, 6)
    assert workloads.verify_gate(reports[:4], dict.fromkeys(workloads.VERIFY_LIMITS, 4)) == (6, 2)


def test_nonoverlap_gate():
    from collections import Counter
    from partinv import enumerate_nonoverlapping, stat_y
    tally = Counter(stat_y(p) for p in enumerate_nonoverlapping(6))
    assert workloads.nonoverlap_gate(tally, 6) == (2, 0)
    tally[2] += 1
    assert workloads.nonoverlap_gate(tally, 6) == (2, 2)


def test_triangle_gate():
    code, text = workloads.run_table(8)
    assert workloads.triangle_gate(code, text, 8) == (3, 0)
    payload = json.loads(text)
    payload["rows"][7][3] = str(int(payload["rows"][7][3]) + 1)
    assert workloads.triangle_gate(code, json.dumps(payload), 8) == (3, 1)
    payload["row_sums"][6] = "508"
    assert workloads.triangle_gate(1, json.dumps(payload), 8) == (3, 3)
    assert workloads.triangle_gate(code, "not json", 8) == (3, 2)


def test_failed_gate_reaches_the_result(monkeypatch):
    def spawn(self, *args):
        rec = {"setup_s": 0.05, "raw_setup_s": 0.06, "elapsed_s": 0.1}
        if args[0] == "run":
            rec.update(wall_s=0.04, raw_wall_s=0.05, items=10, attempted=3, failed=1, maxrss_kib=20480)
        return rec

    monkeypatch.setattr(run.Runner, "spawn", spawn)
    attempted, failed, values, _ = run.untraced("triangle", 0, 0.0, [])
    assert (attempted, failed) == (3, 1)
    assert values["pass_ratio"] == pytest.approx(2 / 3)


def test_gauge_scales_each_stretch_by_the_kernel_times_at_its_ends():
    g = gauge.SpeedGauge()
    g.marks = [(0.0, 0.001), (0.011, 0.012), (0.022, 0.0225)]
    assert g.wall_s == pytest.approx(0.02)
    nominal = gauge.REF_NOMINAL_S
    assert g.scaled_s == pytest.approx(0.01 * nominal / 0.001 + 0.01 * nominal / 0.00075)


def test_gauge_samples_during_the_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with gauge.SpeedGauge(interval_s=0.01) as g:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.2:
            pass
    assert len(g.marks) >= 5
    assert 0 < g.wall_s < perf_counter() - t0 and g.scaled_s > 0
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tracer_self_and_layer_time():
    tr = layers.Tracer()
    with tr.span("outer"):
        with tr.span("inner", 1):
            tr.add("layer", 1, 0.25)
        tr.add("layer", 2, 0.5)
    inner, outer = tr.spans
    assert (inner["parent"], outer["parent"]) == (outer["id"], None)
    assert inner["layer_s"] == 0.25 and outer["layer_s"] == 0.75
    assert outer["self_s"] == pytest.approx(outer["end"] - outer["start"] - 0.5 - (inner["end"] - inner["start"]))
    assert tr.calls == {("layer", 1): [1, 0.25], ("layer", 2): [1, 0.5]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_smoke(workload):
    result, info = run.measure(workload, seed=3, seconds=0.5, trace=False, sizes=TINY)
    assert result["correct"] and result["failed"] == 0
    declared = run.declared_metrics(trace=False)
    assert [m["name"] for m in declared] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["metrics"]["pass_ratio"]["value"] == 1.0
    assert len(info["samples"]["setup_s"]) >= run.SETUP_PROBES + 1
    assert info["seed"] == 3 and info["env"]["nproc"] >= 1


def test_traced_smoke():
    result, info = run.measure("verify", seed=0, seconds=1, trace=True, sizes=TINY)
    assert result["correct"] and result["attempted"] > 0
    declared = run.declared_metrics(trace=True)
    assert [m["name"] for m in declared] == list(result["metrics"])
    # sigma runs twice per partition in the involution check, once in spans
    # and once in nonoverlapping: 4 * (Bell(1) + ... + Bell(4)) calls
    assert result["metrics"]["involution.sigma.calls"]["value"] == 4 * (1 + 2 + 5 + 15)
    assert result["metrics"]["verify.involution.items"]["value"] == 1 + 2 + 5 + 15
    assert set(info["trace"]) == {"verify", "nonoverlap", "triangle", "untraced_wall_s"}


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "triangle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
