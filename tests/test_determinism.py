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
commutes with r.  `quotient --json` is pinned on each of the nine corpus
files that declare a map, at p = 2, 3 and 5: exit code, the SHA-256 of
stdout and the whole of stderr.  The benchmark files are only read.
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


# (corpus file, p) -> (exit code, SHA-256 of stdout or "" if it is empty,
# stderr)
_FLAG_COLLAPSE = (3, "", "error: a flag reflection collapses in the quotient\n")
QUOTIENTS = {
    ("g2106_chiral.grp", 2):
        "d52b50843ec924145c5e6444e32e2f9295e8127f5c1146abb506aeee04d82d66",
    ("g2106_chiral.grp", 3):
        "69ff98c15e3e33853d8c4a32299d6e3c5f8efe0a974f1493688b8b254922f06e",
    ("g2106_chiral.grp", 5):
        "dc7bd14458e6654a11df73e0bcb393adb471546f44c30cefd99a1f7053697068",
    ("g216_nonorientable.grp", 2):
        "5e0d93014bd007ddea9801ea0851d2958563a8c663b2b5d10f789a96c07bcba4",
    ("g216_nonorientable.grp", 3):
        "957fda03d0f68c9793330c50251ebf2c6c94b1b92e28e1c2ba3111058884dd3d",
    ("g216_nonorientable.grp", 5):
        "c07875e17382f2e3de88a26f0b835c8ea85e00b16833e1e0afc405e3946d2b8e",
    ("g216_orientable.grp", 2):
        "a9c18214fc322da6cd4bd5474a90fd154373ee382d1871f2318adf0d2af5974c",
    ("g216_orientable.grp", 3):
        "85f457c22524cc374edbc6fd8891dd2d9c6977d3b81a59d69b02d21f27108861",
    ("g216_orientable.grp", 5):
        "c01105d3cfb2df6e4fcb2a4636c00e65fb6a67fa91040b5fba5cb1804816f1a7",
    ("g384_chiral.grp", 2):
        "99c205742a4c92123e2a9711d317bd621b7af9bab1e71186da73b7b9c15a80cc",
    ("g384_chiral.grp", 3):
        "80955c04e53f231daf47c69a7ee36743845ee80f4081d2f7e82e9dce22c1735d",
    ("g384_chiral.grp", 5):
        "3a27c8809adf3c85d5972b666df1a37be411d875c9e14c61119cc86c58090d05",
    ("g72_3map.grp", 2): _FLAG_COLLAPSE,
    ("g72_3map.grp", 3):
        "9247b4abdaebf47409d517bd072bb8db852ee9b87bab02a2648fb23d3e264a4b",
    ("g72_3map.grp", 5):
        "185ba667bbb870f2934878ceb981a05eb80e204edac66f24cf1e961a944ed2c0",
    ("gl23_reflexible.grp", 2):
        "5d3476604c2bee33d74f665a89b68911bf183c1bfe92df0ca1d25ac434eb4410",
    ("gl23_reflexible.grp", 3):
        "451d2da85639aa9e743f5b9351a1fd302d7b0804fc6bdbe35f08d0b830867890",
    ("gl23_reflexible.grp", 5):
        "ad17066865c5035e7f48673d13a58783efa77990bcdb369e5315e14d44118106",
    ("s4_3map.grp", 2): _FLAG_COLLAPSE,
    ("s4_3map.grp", 3):
        "e4968b4b1df3107a606408a80aef759883f72cbd5ec79aadb1de2bef4eab29ed",
    ("s4_3map.grp", 5):
        "f1c7de24612b5b8354c7b213e29205c8f5a8cffe9c069915c00ba6c69add4b8a",
    ("s4_projective.grp", 2):
        "d6b790c215592c4dd7af8ce4d5e0eef718a4ad7a14b9faa2c66155d09e4d22e1",
    ("s4_projective.grp", 3):
        "1d306aa26a88ed990af6f374a582e64b3b9134d9e2002127f2267e8d07b788ea",
    ("s4_projective.grp", 5):
        "d397e4357794fe35303a1d20b3ca683e0a134cd2abaa06350613cb8ab82df2c1",
    ("s4_sphere.grp", 2):
        "fb326566275faf5d998511a6b3de43b6f65353ee2e31eff539aefa7a42f02a33",
    ("s4_sphere.grp", 3):
        "e47f64026b4ea6a6b4613ebaf2ecdd5dcba558152f8a4a8ba133907335694cee",
    ("s4_sphere.grp", 5):
        "71e83327effc37424f367f58d57379c09c29908c7e45b275ccbc3172ba0d7871",
}


@pytest.mark.parametrize("name,p", sorted(QUOTIENTS),
                         ids=[f"{n}-p{p}" for n, p in sorted(QUOTIENTS)])
def test_corpus_quotient_is_pinned(capsys, tmp_path, name, p):
    path = tmp_path / name
    path.write_text(corpus_text(name), encoding="utf-8")
    rc = cli.main(["quotient", str(path), "--p", str(p), "--json"])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest() if out else ""
    want = QUOTIENTS[name, p]
    if isinstance(want, str):
        want = (0, want, "")
    assert (rc, digest, err) == want
