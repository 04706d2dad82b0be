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
stdout and the whole of stderr.  The text output is pinned the same way:
analyze, quotient at p = 2 and 3, both censuses, tc and tc --export-perms
without --json on every corpus and `limits` file, and verify-corpus.
`analyze` and `quotient` at p = 2 and 3, with and without --json, are
pinned on both ladder files.  The benchmark files are only read.
"""

import hashlib
import sys
from pathlib import Path

import pytest

import regmaps.cli as cli
from regmaps.verify import corpus_names, corpus_text

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


def _refused(code, message):
    return (code, "", f"error: {message}\n")

_NOT_GENS = _refused(3, "tc needs a presentation-mode file")
_NO_MAPS = _refused(*REFUSALS["analyze/s4_presentation"])
_BAD_CHAR = _refused(*REFUSALS["analyze/bad_char"])
_NO_GROUP_LINE = _refused(*REFUSALS["analyze/no_group_line"])
_INFINITE = _refused(*REFUSALS["tc/modular"])
_CELLS = _refused(
    5, "closure exceeded max_cells=20000000: 1927 elements on 10200 points")
_MAT_ORDER = _refused(*REFUSALS["analyze/big_mod101/max-order=2000"])
_ORDER_2106 = _refused(*REFUSALS["census/g2106_chiral/oriented"])

# (file, command) -> the SHA-256 of stdout of a run that exits 0 with an
# empty stderr, else (exit code, "", stderr) of a run that prints nothing:
# every text command on every corpus and `limits` file
TEXT_COMMANDS = {
    "analyze": ["analyze"],
    "quotient-p2": ["quotient", "--p", "2"],
    "quotient-p3": ["quotient", "--p", "3"],
    "census-oriented": ["census", "--kind", "oriented"],
    "census-flagged": ["census", "--kind", "flagged"],
    "tc": ["tc"],
    "tc-export": ["tc", "--export-perms"],
}
TEXT_PINS = {
    ("g2106_chiral.grp", "analyze"):
        "ff21d23da1c13dee19b7237d5ec787b010969cc9d296c2428edd3f4a33d35cb8",
    ("g2106_chiral.grp", "quotient-p2"):
        "82c51754668720790ba22f180b94a67da382861dbcd04f46108cffb450d067f6",
    ("g2106_chiral.grp", "quotient-p3"):
        "5467eaa8fbda89a1a8efb8b95df69a8732e863b4a97c8e531b81cb19ce190b03",
    ("g2106_chiral.grp", "census-oriented"): _ORDER_2106,
    ("g2106_chiral.grp", "census-flagged"): _ORDER_2106,
    ("g2106_chiral.grp", "tc"):
        "883235dcd2032bb000e9cfddba5dcaaa46c7db91254d5f7e498d2e4529f266e3",
    ("g2106_chiral.grp", "tc-export"):
        "f6572a70cbfe6ab83fb319632d5c4c84cbd488981074f55bf46932614e713f1c",
    ("g216_nonorientable.grp", "analyze"):
        "f8e165677dd7ab8d820f257235adfeb2e9fc7a8e32d07acf461a25fac2f93777",
    ("g216_nonorientable.grp", "quotient-p2"):
        "d5a945cc560fab9a0d50da5489b9ffb3e878bbe4dc159c48a1f8cb5ec916f86d",
    ("g216_nonorientable.grp", "quotient-p3"):
        "e70e803257e6b5257715de490f886e8c57fc484a6901cfb855c3dfc5f143db5b",
    ("g216_nonorientable.grp", "census-oriented"):
        "45c9a0f86f0db89322677ad05239a25c87bcbdcd22134b2fd8d7a027e2afef8c",
    ("g216_nonorientable.grp", "census-flagged"):
        "b86e4dd98a15e98c1bd7e1d34949b6f108c762b3a67488b3c95cdff2d26ca19b",
    ("g216_nonorientable.grp", "tc"):
        "4c661a835c2572043e664ecddbed2f54b68d781fb85d43e90582cbad68eb4382",
    ("g216_nonorientable.grp", "tc-export"):
        "b4aa028ab8c57e722d6a75496af941b83e0044091e911aaaacd15e762af3ca8f",
    ("g216_orientable.grp", "analyze"):
        "b80d924b1848586c38641bc0688d381a49cef3ea29e0c46056646823492f0a4b",
    ("g216_orientable.grp", "quotient-p2"):
        "9dfc7e31cb9802ad613aba22032c186ec66857816ea00b18722f3171cc1cc549",
    ("g216_orientable.grp", "quotient-p3"):
        "571cd81c98f49d5d2b3a88af537c2810d807df2191bfa9d3792b90f8e5c038e8",
    ("g216_orientable.grp", "census-oriented"):
        "093d616aa6ba6af58a55cc741361190e348add8465b076d523780e3bf0e1a650",
    ("g216_orientable.grp", "census-flagged"):
        "71e6abb846bf92e6fb57ae1dba57c3d63482eea941ee7a96c64380617b1987cb",
    ("g216_orientable.grp", "tc"):
        "4c661a835c2572043e664ecddbed2f54b68d781fb85d43e90582cbad68eb4382",
    ("g216_orientable.grp", "tc-export"):
        "18816384f65563a80e556effabe2dbbe4328a39a064d645a0947089f1b363b9a",
    ("g384_chiral.grp", "analyze"):
        "f21ef251b9fc5476246250936c17820864b7875f197102539da8a1022d75a092",
    ("g384_chiral.grp", "quotient-p2"):
        "c3e60260c2f65b584614c599945a593f6f8b7aaf376b491ab5b33c4165ef8500",
    ("g384_chiral.grp", "quotient-p3"):
        "44add1c7d3a2c90866e61a3705287e26ef6ae45f78b1d37e9d20b29fa03d5c8e",
    ("g384_chiral.grp", "census-oriented"):
        "b2dabcf663cb6a344cb13d7479ceb181019997b8b1953668a3f1142f34f226a9",
    ("g384_chiral.grp", "census-flagged"):
        "ee7cc705323c0819668de8456f8c9f91f51cc9401b9925a1bf38bec215499dbd",
    ("g384_chiral.grp", "tc"):
        "6ae0252a47e9501e946d7f61b41d422790ee00ca36e5b01561b1759422efb881",
    ("g384_chiral.grp", "tc-export"):
        "15225048b519b43324bdb66d404ce6c85cca504f8c03d18babab91a094ab113a",
    ("g72_3map.grp", "analyze"):
        "025b341b45ade6c22bcf1402588100ed6606d3be328099dd8139359a36a49d7e",
    ("g72_3map.grp", "quotient-p2"): _FLAG_COLLAPSE,
    ("g72_3map.grp", "quotient-p3"):
        "6ad98870ffc30b55b405bbe51a4e6bd07ea4ac7f997621ebe78c681e730e005d",
    ("g72_3map.grp", "census-oriented"):
        "8b6df02d9fd19fdf290e5d1b4e45cc88bea6cc3bb6cc86726335a40892efe47b",
    ("g72_3map.grp", "census-flagged"):
        "c6d5538489bea317bdcba0c431a68860aeb8d9c345246bb45021d9f5dff071b7",
    ("g72_3map.grp", "tc"):
        "df1969883b3e34278ae644249895b74953a779efe22c22bad1372757ef868797",
    ("g72_3map.grp", "tc-export"):
        "370f53541b8bc0edb3e1768fac93f35cd540892fa3a5a5b9f77c20badc167e68",
    ("gl23_reflexible.grp", "analyze"):
        "7a21f393835edbd11d72f16ee00fc708d7743f23e50a2e8c317bc11efa3d24be",
    ("gl23_reflexible.grp", "quotient-p2"):
        "edd8e55a30fd16d555ac94f8945a03ef5275d9a8dc3c5c44a2cb7599ed41ebde",
    ("gl23_reflexible.grp", "quotient-p3"):
        "6d889ae5d674f52f7f44752c30e380d569e4141598ad8070c0fb7bd3985a04a2",
    ("gl23_reflexible.grp", "census-oriented"):
        "d2e2eb4083ea9acf345e57af181906480f3fe8961f8f6eb46d801718fc925974",
    ("gl23_reflexible.grp", "census-flagged"):
        "51ad9df6519502c421388744c0892b58bc38b80bc31af9691f7411396650ce1d",
    ("gl23_reflexible.grp", "tc"): _NOT_GENS,
    ("gl23_reflexible.grp", "tc-export"): _NOT_GENS,
    ("s4_3map.grp", "analyze"):
        "de2debc73462d18a1a36efe119487fcadd05e002d29cc9d4de9ad0ccf5d4126a",
    ("s4_3map.grp", "quotient-p2"): _FLAG_COLLAPSE,
    ("s4_3map.grp", "quotient-p3"):
        "3503974afd425da4f80e13746d0ef6bd12130a3dd407417de2e166b06808fb83",
    ("s4_3map.grp", "census-oriented"):
        "4f8129180b75a58231c182bc1bc5d3d9a134b006bfff15b0913032f00edfcf6b",
    ("s4_3map.grp", "census-flagged"):
        "833430a90096aeebec5bf1859816cc9792e043cc720a0e3d2455770583c44230",
    ("s4_3map.grp", "tc"): _NOT_GENS,
    ("s4_3map.grp", "tc-export"): _NOT_GENS,
    ("s4_presentation.grp", "analyze"): _NO_MAPS,
    ("s4_presentation.grp", "quotient-p2"): _NO_MAPS,
    ("s4_presentation.grp", "quotient-p3"): _NO_MAPS,
    ("s4_presentation.grp", "census-oriented"):
        "a79692e87601b23bf75679347f9e89c6ce05ea8ef9534a0490cf48897f5d1696",
    ("s4_presentation.grp", "census-flagged"):
        "6089f74cd8831610fa598d49f4bb1c640e639ad1f8b2e543b5a68cdbfda42cf5",
    ("s4_presentation.grp", "tc"):
        "7ce725b454c19d98c4691ad8b47de630ecdac50fb2db81bb92680e32ccee5bfe",
    ("s4_presentation.grp", "tc-export"):
        "7b4701bf2f5be97cbd11b6b3b73bb0a6a69b2546fe5340e7600218f285bbb74a",
    ("s4_projective.grp", "analyze"):
        "49e3d235240735af653dcb591ac224674359225e23e7932d534e943936ac95ae",
    ("s4_projective.grp", "quotient-p2"):
        "82deda477af2d2e90c2e8df3e3c76b58d7f2a68f93fca53e40ca218495ece75f",
    ("s4_projective.grp", "quotient-p3"):
        "3105521ba913ba1cd2f6c6b66b9298e3fbabe833fb1d15b38c71ea45c90360f6",
    ("s4_projective.grp", "census-oriented"):
        "942e516f8c090825bfc804eaadb3bd88838948b10203149f4948428496c1d451",
    ("s4_projective.grp", "census-flagged"):
        "8fc6b33943ee8a4f8aa65b8a642faf7734ef5e4af1cd46cfd0837c5ccc3cc589",
    ("s4_projective.grp", "tc"): _NOT_GENS,
    ("s4_projective.grp", "tc-export"): _NOT_GENS,
    ("s4_sphere.grp", "analyze"):
        "af765714ef2052729dc585cd25464de281bea10bf4a931f3b828423cc79cce52",
    ("s4_sphere.grp", "quotient-p2"):
        "0d230025f8354e17d2b24d3ce26c1f40f50e45d50bc2560b52f31ea97a0d7df4",
    ("s4_sphere.grp", "quotient-p3"):
        "d3f3298c1a802ea04cf442d2956b330b28c16e50709c7a0ca7adff5c24b1c4a6",
    ("s4_sphere.grp", "census-oriented"):
        "041c3b2e840ec6bb47d3eb9072c0e2cd90ad470749f87b8bf34b07d0fd645f99",
    ("s4_sphere.grp", "census-flagged"):
        "1952e1828f4581c7e3015a81c9a5cb6d95eed6f444b00c2fa23303aed85a410e",
    ("s4_sphere.grp", "tc"): _NOT_GENS,
    ("s4_sphere.grp", "tc-export"): _NOT_GENS,
    ("bad_char.grp", "analyze"): _BAD_CHAR,
    ("bad_char.grp", "quotient-p2"): _BAD_CHAR,
    ("bad_char.grp", "quotient-p3"): _BAD_CHAR,
    ("bad_char.grp", "census-oriented"): _BAD_CHAR,
    ("bad_char.grp", "census-flagged"): _BAD_CHAR,
    ("bad_char.grp", "tc"): _BAD_CHAR,
    ("bad_char.grp", "tc-export"): _BAD_CHAR,
    ("big_mod101.grp", "analyze"): _CELLS,
    ("big_mod101.grp", "quotient-p2"): _CELLS,
    ("big_mod101.grp", "quotient-p3"): _CELLS,
    ("big_mod101.grp", "census-oriented"): _MAT_ORDER,
    ("big_mod101.grp", "census-flagged"): _MAT_ORDER,
    ("big_mod101.grp", "tc"): _NOT_GENS,
    ("big_mod101.grp", "tc-export"): _NOT_GENS,
    ("modular.grp", "analyze"): _NO_MAPS,
    ("modular.grp", "quotient-p2"): _NO_MAPS,
    ("modular.grp", "quotient-p3"): _NO_MAPS,
    ("modular.grp", "census-oriented"): _INFINITE,
    ("modular.grp", "census-flagged"): _INFINITE,
    ("modular.grp", "tc"): _INFINITE,
    ("modular.grp", "tc-export"): _INFINITE,
    ("no_group_line.grp", "analyze"): _NO_GROUP_LINE,
    ("no_group_line.grp", "quotient-p2"): _NO_GROUP_LINE,
    ("no_group_line.grp", "quotient-p3"): _NO_GROUP_LINE,
    ("no_group_line.grp", "census-oriented"): _NO_GROUP_LINE,
    ("no_group_line.grp", "census-flagged"): _NO_GROUP_LINE,
    ("no_group_line.grp", "tc"): _NO_GROUP_LINE,
    ("no_group_line.grp", "tc-export"): _NO_GROUP_LINE,
}


def _text_path(tmp_path, name):
    if name in corpus_names():
        path = tmp_path / name
        path.write_text(corpus_text(name), encoding="utf-8")
        return path
    return PERFBENCH / "data" / "limits" / name


@pytest.mark.parametrize("name,command", list(TEXT_PINS),
                         ids=[f"{n}-{c}" for n, c in TEXT_PINS])
def test_text_output_is_pinned(capsys, tmp_path, name, command):
    argv = TEXT_COMMANDS[command]
    rc = cli.main(argv[:1] + [str(_text_path(tmp_path, name))] + argv[1:])
    out, err = capsys.readouterr()
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest() if out else ""
    want = TEXT_PINS[name, command]
    if isinstance(want, str):
        want = (0, want, "")
    assert (rc, digest, err) == want


def test_verify_corpus_text_is_pinned(capsys):
    rc = cli.main(["verify-corpus"])
    out, err = capsys.readouterr()
    assert (rc, hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (
        0, "d0221a24284cd056c1d74d65cd37539508ff4523c11b85d79466ab01ec4e810e",
        "")


# (ladder file, command, flags) -> the SHA-256 of stdout of a run that exits
# 0 with an empty stderr: the kernel paths that only these two matrix
# groups, of orders 2640 and 4368, take at that scale
LADDER_PINS = {
    ("ladder_p11.grp", "analyze", ()):
        "5b2cd1b6bd0e25689553e501a1f06f4ec6d1b35491e3081c34d262dbe9ffa871",
    ("ladder_p11.grp", "analyze", ("--json",)):
        "6eeb0ffeaeb3c0f9cf73242c2ad13434c79b0a59f6819347390d3d571e50b9dc",
    ("ladder_p11.grp", "quotient-p2", ()):
        "6a5e31e912a49b7677ec79f36571b424f49d292622efcc7d455f3e1762264508",
    ("ladder_p11.grp", "quotient-p2", ("--json",)):
        "40664bc3f4e20fae0a0e41fb4f2ecc7cfeac8247d672fe7033df08008042e482",
    ("ladder_p11.grp", "quotient-p3", ()):
        "a49e1ee1c20653f4145ef46a61d9d0e2e1620b987feebf2ca1dd4133cf2314ca",
    ("ladder_p11.grp", "quotient-p3", ("--json",)):
        "531eb71743f2f9f344b8277b585d76569a89d0522bafc06566b887b59dc78f5a",
    ("ladder_p13.grp", "analyze", ()):
        "d69da1feb5eab78be8b66aa35c1e9d5624f35bd0e7806506731bef2d60bf4218",
    ("ladder_p13.grp", "analyze", ("--json",)):
        "d85827781728aab83324c6d5a31243973bf953dbf91ca4fd590826035228878b",
    ("ladder_p13.grp", "quotient-p2", ()):
        "db5b78ae44f5e46a537b277c2389307c7892b54a3d1ecbc61a74e4445be262f2",
    ("ladder_p13.grp", "quotient-p2", ("--json",)):
        "06bfe836324a87fbae8d816939f56ae216b07dfec14abd4799cdd65bec8d8cda",
    ("ladder_p13.grp", "quotient-p3", ()):
        "26908a97828407d99e926054ee6b225f350ed1eec74ec1812ab7c61783fe08ae",
    ("ladder_p13.grp", "quotient-p3", ("--json",)):
        "206ac89de0cf6ddd9b77a7cb32b7c526c16e34c3177de11e19d676216d8db86f",
}


@pytest.mark.parametrize("name,command,flags", list(LADDER_PINS), ids=[
    "-".join((n, c, *f)) for n, c, f in LADDER_PINS])
def test_ladder_output_is_pinned(capsys, name, command, flags):
    argv = TEXT_COMMANDS[command]
    path = PERFBENCH / "data" / "ladder" / name
    rc = cli.main(argv[:1] + [str(path)] + argv[1:] + list(flags))
    out, err = capsys.readouterr()
    assert (rc, hashlib.sha256(out.encode("utf-8")).hexdigest(), err) == (
        0, LADDER_PINS[name, command, flags], "")
