"""Record the expected output of every successful job at seed 0.

Run from the root of a checkout, only when a change of output is intended:

    python3 perfbench/record.py

It writes data/expected.json with, for each job that must exit 0, the
digests that checks.py compares against.  Jobs that must be refused have
nothing recorded; checks.py holds them to their exit code and to an
error message with nothing on stdout.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from worker import import_cli, run_job


def main() -> int:
    cli = import_cli()
    if cli is None:
        print("error: no regmaps source under src/", file=sys.stderr)
        return 2
    recorded = {}
    ok = True
    with workloads.scratch("record") as work:
        for name, jobs in workloads.WORKLOADS.items():
            argvs = workloads.generate(name, 0, 0, work / name)
            recorded[name] = {}
            for job, argv in zip(jobs, argvs):
                rc, stdout, _, _, crash = run_job(cli.main, argv)
                if crash or rc != job.rc:
                    print(f"{name} {job.id}: got {crash or rc},"
                          f" expected exit {job.rc}", file=sys.stderr)
                    ok = ok and job.known_defect
                elif job.rc == 0:
                    recorded[name][job.id] = checks.fingerprint(stdout)
    if not ok:
        print("error: a job that must succeed did not", file=sys.stderr)
        return 1
    checks.EXPECTED.write_text(
        json.dumps(recorded, sort_keys=True, indent=1) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
