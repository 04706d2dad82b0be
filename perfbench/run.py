"""The regmaps benchmark: one command that measures, checks and reports.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 30 --trace 0

Workloads (``workloads.py``): ``pipeline`` (analyze, quotient, tc and
verify-corpus over the corpus and a matrix-mode ladder), ``census`` (oriented
and flagged census of every corpus group under the census bound) and
``limits`` (inputs that must be refused).  Each runs as a closed loop from
one worker process with one job in flight.  Set-up time is the median of
set-up-only worker starts, spread over the run between its passes.  Every
end-to-end time is scaled to the reference machine's speed by a calibration
loop the worker times before each job (``worker.calibration_s``).  With
``--trace 0`` the last line of stdout holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, from
traced passes that follow untraced ones in the same worker.  Every job's
output is checked; a job whose outcome is wrong counts in ``failed``, and
any such job makes ``correct`` false, except a crash of a job marked as a
known defect (``workloads.Job.known_defect``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from worker import REFERENCE_CAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 16         # set-up-only worker starts; setup_s is their median
DEADLINE_S = 170    # a run must end within 180 s
TAIL_LEVELS = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)


class BenchError(Exception):
    pass


def machine() -> str:
    model = "unknown CPU"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"Python {platform.python_version()}, nproc {os.cpu_count()},"
            f" {model}")


def read_line(proc, want: bytes, deadline: float) -> None:
    """Wait for the worker to print `want`; kill it if it does not."""
    ready, _, _ = select.select([proc.stdout], [], [],
                                max(0.0, deadline - perf_counter()))
    line = proc.stdout.readline() if ready else b""
    if line.strip() != want:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not print {want.decode()}")


def start_worker(argv: list, deadline: float):
    """Start a worker; return it and the seconds until it reported ready."""
    t0 = perf_counter()
    # Unbuffered, so that reading the ready line takes nothing after it.
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + argv, cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    read_line(proc, b"ready", deadline)
    return proc, perf_counter() - t0


def probe(argv: list, deadline: float) -> float:
    """Set-up seconds of one worker that exits once it is ready."""
    proc, setup = start_worker(argv + ["--probe"], deadline)
    finish(proc, deadline)
    return setup


def finish(proc, deadline: float) -> str:
    """Wait for a worker to exit, killing it at the deadline; its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out.decode("utf-8")


def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def tail_level(n: int) -> float:
    """The highest level in TAIL_LEVELS with at least 10 samples beyond it."""
    fits = [q for q in TAIL_LEVELS if n - math.ceil(q * n) >= 10]
    return fits[-1] if fits else TAIL_LEVELS[0]


def latency_metrics(passes: list, key: str) -> tuple:
    """wall_s, job_p50_ms and job_tail_ms from the passes' `key` latencies;
    also the tail level and the sample count."""
    walls = [sum(p[key]) for p in passes]
    # Each sample stands in as its job's median over the passes, so one
    # stalled pass cannot move a percentile that falls between two jobs.
    lat = sorted(statistics.median(job) for job in zip(
        *(p[key] for p in passes)) for _ in passes)
    q = tail_level(len(lat))
    return {
        "wall_s": statistics.median(walls),
        "job_p50_ms": 1000 * nearest_rank(lat, 0.5),
        "job_tail_ms": 1000 * nearest_rank(lat, q),
    }, q, len(lat)


def end_to_end(result: dict, setups: list) -> tuple:
    """The end-to-end metrics, scaled to the reference speed, and notes."""
    passes = result["passes"]
    metrics, q, n = latency_metrics(passes, "latencies")
    raw = latency_metrics(passes, "raw")[0]
    raw["setup_s"] = statistics.median(setups)
    # The probes run in their own processes; the run's median calibration
    # scales their set-up time.
    cal = statistics.median(p["cal_s"] for p in passes)
    metrics["setup_s"] = raw["setup_s"] * REFERENCE_CAL_S / cal
    metrics["peak_rss_mb"] = result["maxrss_kb"] / 1024
    runs = sum(p["runs"] for p in passes)
    notes = {
        "setup_s": f"median of {len(setups)} worker starts",
        "wall_s": f"median of {len(passes)} passes",
        "job_p50_ms": f"n={n}, from {runs} runs",
        "job_tail_ms": f"p{100 * q:g}, n={n}, {n - math.ceil(q * n)} beyond",
        "peak_rss_mb": "ru_maxrss of the worker",
    }
    for name, value in raw.items():
        notes[name] += f"; {value:.6g} unscaled"
    print(f"host speed: calibration median {1000 * cal:.4f} ms, reference"
          f" {1000 * REFERENCE_CAL_S:g} ms; times are scaled to the reference"
          " speed round by round")
    return metrics, notes


def per_layer(result: dict) -> tuple:
    plain = [sum(p["latencies"]) for p in result["passes"]]
    traced = result["traced"]
    n = len(traced)
    counts = traced[0]["layers"]["counts"]
    calls = traced[0]["layers"]["calls"]
    steady = all(p["layers"]["counts"] == counts
                 and p["layers"]["calls"] == calls for p in traced)
    self_s: dict = {}
    for p in traced:
        for name, s in p["layers"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s / n
    traced_wall = statistics.median(sum(p["latencies"]) for p in traced)
    metrics = {f"{name}.self_s": s for name, s in self_s.items()}
    metrics["cli.other.self_s"] = self_s.get("cli", 0.0)
    metrics.update(counts)
    for name in ("group.closure", "group.hom_extend", "group.regenerated"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
    metrics["group.hom_extend.hit_ratio"] = (
        counts.get("group.hom_extend.bijective", 0)
        / max(1, calls.get("group.hom_extend", 0)))
    metrics["group.regenerated.cache_hit_ratio"] = (
        counts.get("group.regenerated.cache_hits", 0)
        / max(1, calls.get("group.regenerated", 0)))
    metrics["trace.overhead_frac"] = (
        traced_wall / statistics.median(plain) - 1)
    return metrics, steady, traced_wall


def layer_report(result: dict, traced_wall: float) -> list:
    """Top layers by self time, over the workload and for each job."""
    lines = []
    first = result["traced"][0]
    wall = sum(first["latencies"])
    top = sorted(first["layers"]["self_s"].items(), key=lambda kv: -kv[1])
    lines.append("layers by self time (first traced pass, "
                 f"{wall:.3f} s; median traced pass {traced_wall:.3f} s):")
    lines += [f"  {name:28} {s:9.4f} s {100 * s / wall:5.1f}%"
              for name, s in top[:10]]
    lines.append("per job, top layers by self time:")
    for job_id, job in zip(result["ids"], first["per_job"]):
        d = job["seconds"]
        best = sorted(job["self_s"].items(), key=lambda kv: -kv[1])[:3]
        share = ", ".join(f"{k} {100 * v / d:.0f}%" for k, v in best)
        lines.append(f"  {job_id:34} {d:8.4f} s  {share}")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "regmaps" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no regmaps source (src/regmaps)",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    passes = workloads.passes_for(args.workload, args.seconds)
    traced = 0
    if args.trace:
        # As many traced passes as untraced ones, at least two of each, so
        # that the counts can be compared between traced passes.
        passes = traced = max(2, passes // 2)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # Probes go before each pass and after the last, so that setup_s
    # samples the same stretch of time as the passes.
    gaps = passes + traced + 1
    n_probes = 0 if args.trace else PROBES
    per_gap = [n_probes * (i + 1) // gaps - n_probes * i // gaps
               for i in range(gaps)]
    proc = None
    try:
        # Its set-up writes one input set per round, so it is not a probe.
        proc, _ = start_worker(
            common + ["--passes", str(passes), "--traced", str(traced)],
            deadline)
        setups = []
        for i, n in enumerate(per_gap):
            setups += [probe(common, deadline) for _ in range(n)]
            if i < gaps - 1:
                proc.stdin.write(b"go\n")
                read_line(proc, b"done", deadline)
        out = finish(proc, deadline).strip()
        if not out:
            raise BenchError("worker printed no result")
        result = json.loads(out.splitlines()[-1])
    except BenchError as exc:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
        print(f"error: {exc}", file=sys.stderr)
        return 3

    runs = result["passes"] + result.get("traced", [])
    attempted = sum(p["runs"] for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    failed = len(failures)
    correct = all(f["excused"] for f in failures)

    print(f"workload {args.workload}, seed {args.seed}: closed loop, one"
          f" worker, one job in flight; {len(result['ids'])} jobs per pass")
    print(f"machine: {machine()}")
    if args.trace:
        values, steady, traced_wall = per_layer(result)
        notes: dict = {}
        correct = correct and steady
        if not steady:
            print("error: deterministic counts differ between traced passes")
        for line in layer_report(result, traced_wall):
            print(line)
    else:
        values, notes = end_to_end(result, setups)
    for i, job_id in enumerate(result["ids"]):
        med = statistics.median(p["latencies"][i] for p in result["passes"])
        print(f"  job {job_id:36} {1000 * med:10.2f} ms median"
              + ("" if args.trace else ", scaled"))
    print(f"failed_frac {failed / attempted:.4f} ratio"
          f" ({failed} of {attempted} jobs)")
    seen = set()
    for f in failures:
        key = (f["job"], f["why"])
        if key not in seen:
            seen.add(key)
            print(f"failed job {f['job']}: {f['why']}"
                  + (" (known defect)" if f["excused"] else ""))

    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = notes.get(m["name"])
        print(f"{m['name']:36} {value:14.6f} {m['unit']}"
              + (f"  ({note})" if note else ""))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
