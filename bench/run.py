"""partinv benchmark: one workload per run, every step in a fresh child
interpreter, one child at a time.

    python3 bench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Untraced (--trace 0): for --seconds, alternate workload iterations with
import-only probes, in an order drawn from --seed, and report the
end-to-end metrics named in BENCHMARK.json; work times are scaled to the
reference speed of gauge.py, and the raw ones are recorded. Traced (--trace 1): one
untraced iteration of the workload, then the traced replay of every
workload, and report the per-layer metrics; the spans go to
bench/out/. The last line of stdout is the result object; the line before
it records the seed, the environment and the raw samples.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gauge import REF_NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("verify", "nonoverlap", "triangle")

#: Import-only probes per untraced run; each iteration gives a set-up sample too.
SETUP_PROBES = 25
#: A run of the full benchmark stays inside the 180 s a run may take.
RUN_LIMIT_S = 170

#: Per-layer metrics averaged over traced calls; each averages the calls of
#: the layer it names and of that layer's sub-layers.
PER_CALL = (
    "partitions.enumerate_all.us_per_item",
    "partitions.enumerate_nonoverlapping.us_per_item",
    "partitions.is_nonoverlapping.us_per_call",
    "partitions.format_partition.us_per_call",
    "stats.stat_x.us_per_call",
    "stats.stat_y.us_per_call",
    "involution.sigma.us_per_call",
    "involution.sigma.fixed.us_per_call",
    "involution.sigma.lower.us_per_call",
    "involution.sigma.upper.us_per_call",
    "recurrence.v_compute.us_per_call",
    "patterns.is_avoider.us_per_call",
)


class BenchError(Exception):
    pass


class Runner:
    """Spawns child steps one at a time, all inside one time limit."""

    def __init__(self, limit_s: float = RUN_LIMIT_S):
        self.deadline = time.monotonic() + limit_s

    def spawn(self, *args) -> dict:
        """Run bench/child.py with args; return its record, with raw_setup_s
        (spawn to `import partinv` returned), setup_s (the same at the
        reference speed of gauge.py) and elapsed_s (spawn to exit)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        start = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *map(str, args)],
                                  cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                  text=True, timeout=max(1.0, self.deadline - start))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {args} passed the run's time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"child {args} exited with {proc.returncode}")
        record = json.loads(proc.stdout.splitlines()[-1])
        if not Path(record["partinv_file"]).resolve().is_relative_to(SRC):
            raise BenchError(f"partinv was imported from {record['partinv_file']}, not from {SRC}")
        record["raw_setup_s"] = record["imported_at"] - start
        record["setup_s"] = record["raw_setup_s"] * REF_NOMINAL_S / record["kernel_s"]
        record["elapsed_s"] = time.monotonic() - start
        return record


def untraced(workload: str, seed: int, seconds: float, size: list[int]) -> tuple[int, int, dict, dict]:
    """Workload iterations until the next would end after `seconds`, with
    SETUP_PROBES import-only probes interleaved by a seeded coin."""
    rng = random.Random(seed)
    runner = Runner()
    runner.spawn("probe")  # not sampled: it may compile bytecode
    end = time.monotonic() + seconds
    runs, setups, longest, probes = [], [], 0.0, SETUP_PROBES
    while True:
        may_run = not runs or time.monotonic() + longest <= end
        if probes and (not may_run or rng.random() < 0.5):
            setups.append(runner.spawn("probe"))
            probes -= 1
        elif may_run:
            rec = runner.spawn("run", workload, *size)
            runs.append(rec)
            setups.append(rec)
            longest = max(longest, rec["elapsed_s"])
        else:
            break
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "peak_rss_mib": max(r["maxrss_kib"] for r in runs) / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }
    samples = {"wall_s": [r["wall_s"] for r in runs], "raw_wall_s": [r["raw_wall_s"] for r in runs],
               "maxrss_kib": [r["maxrss_kib"] for r in runs], "setup_s": [r["setup_s"] for r in setups],
               "raw_setup_s": [r["raw_setup_s"] for r in setups]}
    return attempted, failed, values, samples


def per_call_metrics(calls) -> dict[str, float]:
    """Microseconds per call for PER_CALL over [layer, n, count, total_s] cells."""
    out = {}
    for metric in PER_CALL:
        layer = metric.rsplit(".", 1)[0]
        cells = [(c, t) for name, _, c, t in calls if name == layer or name.startswith(layer + ".")]
        out[metric] = 1e6 * sum(t for _, t in cells) / sum(c for c, _ in cells)
    return out


def traced(workload: str, sizes: dict[str, list[int]]) -> tuple[int, int, dict, dict]:
    """One untraced iteration of the workload as the overhead reference,
    then the traced replay of every workload, each in its own child."""
    runner = Runner()
    base = runner.spawn("run", workload, *sizes[workload])
    traces = {w: runner.spawn("trace", w, *sizes[w]) for w in WORKLOADS}
    values = {}
    for rec in traces.values():
        values.update(rec["metrics"])
    values.update(per_call_metrics([cell for rec in traces.values() for cell in rec["calls"]]))
    values["trace.overhead_s"] = traces[workload]["traced_wall_s"] - base["raw_wall_s"]
    attempted = base["attempted"] + sum(r["attempted"] for r in traces.values())
    failed = base["failed"] + sum(r["failed"] for r in traces.values())
    detail = {w: {"calls": r["calls"], "spans": r["spans"], "traced_wall_s": r["traced_wall_s"]}
              for w, r in traces.items()}
    detail["untraced_wall_s"] = base["raw_wall_s"]
    return attempted, failed, values, detail


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "loadavg_at_start": os.getloadavg(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: dict[str, list[int]] | None = None) -> tuple[dict, dict]:
    """The result object and the record that goes with it. sizes maps a
    workload to the SIZE arguments of its child steps (smoke tests only)."""
    sizes = sizes or {w: [] for w in WORKLOADS}
    info = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "env": environment()}
    if trace:
        attempted, failed, values, info["trace"] = traced(workload, sizes)
    else:
        attempted, failed, values, info["samples"] = untraced(workload, seed, seconds, sizes[workload])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics(trace)}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "partinv" / "__init__.py").is_file():
        print(f"bench: no partinv sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**info, "result": result}, indent=1))
    info.pop("trace", None)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
