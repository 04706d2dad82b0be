"""The determinism contract: byte-identical --json output on fixed inputs.

The seed-0 `pipeline` and `census` jobs of the benchmark
(perfbench/workloads.py) run in-process through ``cli.main``, on inputs
written by ``workloads.generate``.  Each outcome goes through
``checks.check`` against perfbench/data/expected.json: the exit code, the
canonical JSON form, equal census class sizes and, at seed 0, the recorded
SHA-256 of the whole document.  One larger input is pinned beside them:
the oriented census of the order-2640 ladder group, 88 classes.  The
benchmark files are only read.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import regmaps.cli as cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 0
WORKLOADS = ("pipeline", "census")
JOBS = [(w, k) for w in WORKLOADS for k in range(len(workloads.WORKLOADS[w]))]


@pytest.fixture(scope="module")
def argvs(tmp_path_factory):
    """Each workload's argv lists, over inputs generated once per module."""
    return {w: workloads.generate(w, SEED, 0, tmp_path_factory.mktemp(w))
            for w in WORKLOADS}


@pytest.mark.parametrize("workload,k", JOBS, ids=[
    workloads.WORKLOADS[w][k].id for w, k in JOBS])
def test_job_output_matches_record(argvs, capsys, workload, k):
    job = workloads.WORKLOADS[workload][k]
    rc = cli.main(argvs[workload][k] + ["--json"])
    out, err = capsys.readouterr()
    why = checks.check(job, SEED, rc, out, err,
                       checks.load_expected(workload))
    assert why is None, why


def test_ladder_census_output_is_pinned(capsys):
    path = PERFBENCH / "data" / "ladder" / "ladder_p11.grp"
    rc = cli.main(["census", str(path), "--kind", "oriented",
                   "--max-order", "30000", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "a40dd8b2fe66aad3f213d8090df7c72743820ce896482a3ceb59757ace931248")
