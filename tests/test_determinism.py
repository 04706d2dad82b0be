"""The determinism contract: byte-identical --json output on fixed inputs.

The seed-0 `pipeline` and `census` jobs of the benchmark
(perfbench/workloads.py) run in-process through ``cli.main``, on inputs
written by ``workloads.generate``.  Each outcome goes through
``checks.check`` against perfbench/data/expected.json: the exit code, the
canonical JSON form, equal census class sizes and, at seed 0, the recorded
SHA-256 of the whole document.  The seed-0 `limits` jobs, each of which
must be refused, pin their exit code and whole stderr here.  Two larger
inputs are pinned beside them: the oriented censuses of the order-2640
ladder group, 88 classes, and of the order-2106 corpus group, 8 classes,
where the census skips half the tuples that generate G/G′ because l
commutes with r.  The benchmark files are only read.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import regmaps.cli as cli
from regmaps.verify import corpus_text

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 0
WORKLOADS = ("pipeline", "census", "limits")
JOBS = [(w, k) for w in ("pipeline", "census")
        for k in range(len(workloads.WORKLOADS[w]))]
REFUSALS = {
    "analyze/big_mod101/max-order=2000":
        (5, "matrix action on 10200 points exceeds max_order=2000"),
    "tc/modular":
        (5, "presentation of an infinite group: free factors <a> and <b>"
            " both have a nontrivial abelianization"),
    "census/g2106_chiral/oriented":
        (5, "group order 2106 exceeds max_order=2000"),
    "analyze/deep_parens":
        (2, "line 3, column 105: brackets nested deeper than 100"),
    "analyze/bad_char": (2, "line 5, column 7: unexpected character '+'"),
    "analyze/no_group_line":
        (2, "line 2, column 1: file must start with a 'group' line"),
    "analyze/s4_presentation": (3, "the file declares no maps"),
    "quotient/s4_3map/p=4": (3, "--p must be a prime, got 4"),
}


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


@pytest.mark.parametrize("k", range(len(workloads.WORKLOADS["limits"])),
                         ids=[job.id for job in workloads.WORKLOADS["limits"]])
def test_limits_refusal_is_pinned(argvs, capsys, k):
    rc = cli.main(argvs["limits"][k] + ["--json"])
    out, err = capsys.readouterr()
    code, message = REFUSALS[workloads.WORKLOADS["limits"][k].id]
    assert (rc, out, err) == (code, "", f"error: {message}\n")


def _pinned_census(capsys, path, digest):
    rc = cli.main(["census", str(path), "--kind", "oriented",
                   "--max-order", "30000", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_ladder_census_output_is_pinned(capsys):
    _pinned_census(
        capsys, PERFBENCH / "data" / "ladder" / "ladder_p11.grp",
        "a40dd8b2fe66aad3f213d8090df7c72743820ce896482a3ceb59757ace931248")


def test_g2106_census_output_is_pinned(capsys, tmp_path):
    path = tmp_path / "g2106_chiral.grp"
    path.write_text(corpus_text(path.name), encoding="utf-8")
    _pinned_census(
        capsys, path,
        "da72de930f9cf6744655aefb72722dd7142c4dafdbaec1f23bbf0078360e17c8")
