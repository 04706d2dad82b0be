"""One benchmark worker process, started by run.py.

It sets up (imports regmaps from the checkout's src/, writes the seeded
inputs), prints ``ready``, and exits at once with --probe.  Otherwise it
runs the workload's job list as a closed loop, one job at a time, for a
fixed number of passes, and prints one JSON line of raw results.  An
untraced pass runs in rounds (``workloads`` module doc); a traced pass
runs every job once.  It starts each pass when run.py writes ``go`` on
its stdin and prints ``done`` after it; run.py times its set-up probes in
between, while this worker waits.
Each job calls ``regmaps.cli.main(argv + ["--json"])`` in this process with
stdout and stderr captured, so the measured path is the user's CLI path.  With
--traced N, N traced passes follow the untraced ones; the traced passes
therefore start with every lazily built module state already in place.
Without it, every job run is scaled to the reference machine's speed by a
calibration loop timed before it (:func:`calibration_s`).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Median seconds of calibration_s() on the reference machine (baseline.json).
REFERENCE_CAL_S = 0.0015


def import_cli():
    """regmaps.cli from the checkout's src/, or None when it is not there."""
    if not (SRC / "regmaps" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import regmaps.cli
    if Path(regmaps.cli.__file__).resolve().parent != SRC / "regmaps":
        return None
    return regmaps.cli


def run_job(main, argv, rec=None):
    """(rc, stdout, stderr, seconds, crash); rc is None after a crash."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            with rec.job() if rec is not None else nullcontext():
                rc = main(argv + ["--json"])
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a result to report, not stop on
            rc, crash = None, f"{type(exc).__name__}: {exc}"[:200]
        seconds = perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), seconds, crash


def calibration_s() -> float:
    """Seconds for a fixed integer loop: this interpreter's speed now.  The
    shared host's speed drifts by over 30% within minutes, and every job
    drifts with it.  The loop builds no containers, so nothing regmaps does
    to the heap or the garbage collector can move it."""
    t0 = perf_counter()
    x = 1
    for _ in range(10000):
        x = (x * 1103515245 + 12345) & 0x7fffffff
    return perf_counter() - t0


def run_pass(main, jobs, rounds, sched, seed, expected, rec=None,
             calibrate=False) -> dict:
    """Latencies and failures of one pass.  `rounds` holds one argv list per
    job for each round; a job runs in the rounds `sched` gives it, and its
    latency is the median of those runs.  With `calibrate`, calibration_s()
    runs before each job, and each run is scaled to the reference speed by
    the median calibration of its round; `raw` keeps the unscaled medians.
    A failure is `excused` only when a job marked as a known defect
    crashes."""
    runs = [[] for _ in jobs]
    raw = [[] for _ in jobs]
    cals, failures = [], []
    for r, argvs in enumerate(rounds):
        timed, round_cals = [], []
        for k, (job, argv) in enumerate(zip(jobs, argvs)):
            if r not in sched[k]:
                continue
            if calibrate:
                round_cals.append(calibration_s())
            rc, stdout, stderr, seconds, crash = run_job(main, argv, rec)
            timed.append((k, seconds))
            if crash is not None:
                failures.append({"job": job.id, "why": crash,
                                 "excused": job.known_defect})
                continue
            why = checks.check(job, seed, rc, stdout, stderr, expected)
            if why is not None:
                failures.append({"job": job.id, "why": why, "excused": False})
        scale = (REFERENCE_CAL_S / statistics.median(round_cals)
                 if calibrate else 1.0)
        for k, seconds in timed:
            raw[k].append(seconds)
            runs[k].append(seconds * scale)
        cals += round_cals
    return {"latencies": [statistics.median(t) for t in runs],
            "raw": [statistics.median(t) for t in raw],
            "cal_s": statistics.median(cals) if cals else None,
            "runs": sum(map(len, runs)), "failures": failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--traced", type=int, default=0,
                    help="traced passes after the untraced ones")
    ap.add_argument("--probe", action="store_true",
                    help="exit as soon as set-up is done")
    args = ap.parse_args()

    cli = import_cli()
    if cli is None:
        print(f"error: no regmaps package under {SRC}", file=sys.stderr)
        return 2
    import spans  # wraps regmaps, so only after regmaps is importable

    with workloads.scratch(str(os.getpid())) as work:
        jobs = workloads.WORKLOADS[args.workload]
        # A traced run keeps one relabeling and one round per pass, so that
        # its passes must repeat the same counts.  Otherwise round r of pass
        # i takes variant i * rounds + r.
        rounds = 1 if args.traced else workloads.rounds_for(args.workload)
        sched = ([{0}] * len(jobs) if args.traced
                 else workloads.schedule(args.workload))
        variants = 1 if args.traced else args.passes * rounds
        argvs = [workloads.generate(args.workload, args.seed, v, work / str(v))
                 for v in range(variants)]
        expected = checks.load_expected(args.workload)
        print("ready", flush=True)
        if args.probe:
            return 0

        # Only end-to-end passes are scaled; a traced run reports per-layer
        # times and their overhead, unscaled.
        def next_pass(pass_rounds, rec=None) -> dict:
            if sys.stdin.readline().strip() != "go":
                raise SystemExit("error: no go-ahead for the next pass")
            p = run_pass(cli.main, jobs, pass_rounds, sched, args.seed,
                         expected, rec, calibrate=not args.traced)
            print("done", flush=True)
            return p

        plain = [next_pass([argvs[(i * rounds + r) % variants]
                            for r in range(rounds)])
                 for i in range(args.passes)]
        result = {"ids": [j.id for j in jobs], "passes": plain}
        if args.traced:
            traced = []
            for _ in range(args.traced):
                rec = spans.Recorder()
                with spans.installed(rec):
                    p = next_pass(argvs[:1], rec)
                p["layers"] = rec.summary()
                p["per_job"] = [
                    {"seconds": d, "self_s": dict(s)}
                    for d, s in rec.per_root()]
                traced.append(p)
            result["traced"] = traced
        result["maxrss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result), flush=True)
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
