"""Output checks for benchmark jobs.

A job passes when its exit code is the one the CLI contract requires and
its output matches what was recorded (``data/expected.json``, written by
``record.py``).  A ``--json`` document must be in canonical form (sorted
keys, indent 2).  At seed 0 its SHA-256, with ``tool_version`` removed, must
match.  At every seed its relabeling-invariant summary must match: the
document without tool version and input digest, and for a census, without
the representative tuples and with rows sorted, after checking that every
class has the same size (Aut(G) acts freely on generating tuples).  A
refusal must print nothing on stdout and an ``error:`` message on stderr.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

EXPECTED = Path(__file__).resolve().parent / "data" / "expected.json"


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _summary(doc: dict) -> dict:
    out = {k: v for k, v in doc.items()
           if k not in ("tool_version", "input_digest")}
    census = out.get("census")
    if census is not None:
        rows = [{k: v for k, v in row.items() if k != "tuple"}
                for row in census["entries"]]
        out["census"] = dict(census, entries=sorted(
            rows, key=lambda r: json.dumps(r, sort_keys=True)))
    return out


def _class_sizes_equal(doc: dict) -> bool:
    sizes = {row["class_size"] for row in doc.get("census", {}).get(
        "entries", ())}
    return len(sizes) <= 1


def fingerprint(stdout: str) -> dict:
    """The recorded digests of a --json document."""
    doc = json.loads(stdout)
    bare = {k: v for k, v in doc.items() if k != "tool_version"}
    return {"sha256": _digest(bare), "summary": _digest(_summary(doc))}


def check(job, seed: int, rc, stdout: str, stderr: str,
          expected: dict) -> Optional[str]:
    """None if the job's outcome is right, else why it is wrong."""
    if rc != job.rc:
        return f"exit code {rc}, expected {job.rc}"
    if job.rc != 0:
        if stdout or not stderr.startswith("error: "):
            return "a refusal must print only an error message"
        return None
    want = expected.get(job.id)
    if want is None:
        return "no recorded output"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON document"
    if stdout != json.dumps(doc, sort_keys=True, indent=2) + "\n":
        return "JSON document is not in canonical form"
    if not _class_sizes_equal(doc):
        return "census classes differ in size"
    got = fingerprint(stdout)
    if seed == 0 and got["sha256"] != want["sha256"]:
        return "document differs from the recorded one"
    if got["summary"] != want["summary"]:
        return "relabeling-invariant summary differs from the recorded one"
    return None


def load_expected(workload: str) -> dict:
    """Recorded digests of the workload's successful jobs, by job id."""
    return json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
