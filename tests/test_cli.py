import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import regmaps.cli as cli
from regmaps.errors import TheoremViolation
from regmaps.grammar import parse_group_file, realize_group_file
from regmaps.perm import Perm
from regmaps.reporting import TOOL_VERSION
from regmaps.verify import REGISTRY, corpus_text

TWO_MAPS = """\
group v4
perm a = (1 2)
perm b = (3 4)
map one : flagged t=a r=b l=a*b
map two : flagged t=b r=a l=a*b
"""


@pytest.fixture()
def corpus_file(tmp_path):
    def write(name):
        p = tmp_path / name
        p.write_text(corpus_text(name), encoding="utf-8")
        return str(p)
    return write


def _run(capsys, argv):
    ret = cli.main(argv)
    captured = capsys.readouterr()
    return ret, captured.out, captured.err


def test_analyze_human_output(corpus_file, capsys):
    ret, out, err = _run(capsys, ["analyze", corpus_file("s4_3map.grp")])
    assert ret == 0
    assert err == ""
    assert "group: order 24" in out
    assert "map m (flagged): V/E/F = 3/6/4" in out
    assert "p-map (3,1): normal=False" in out
    assert "exceptional=C(3,2)" in out
    assert "vertex action primitive: True" in out


def test_analyze_json_is_deterministic(corpus_file, capsys):
    f = corpus_file("s4_3map.grp")
    ret1, out1, _ = _run(capsys, ["analyze", "--json", f])
    ret2, out2, _ = _run(capsys, ["analyze", "--json", f])
    assert ret1 == ret2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["tool_version"] == TOOL_VERSION
    assert doc["command"] == "analyze"
    assert doc["group"]["group_order"] == 24
    sec = doc["maps"][0]
    assert (sec["vertices"], sec["edges"], sec["faces"]) == (3, 6, 4)
    assert sec["exceptional_case"] == "C(3,2)"
    assert doc["diagnostics"] == []


def test_analyze_certifies_normal_primitive_maps(corpus_file, capsys):
    ret, out, _ = _run(capsys, ["analyze", corpus_file("g2106_chiral.grp")])
    assert ret == 0
    assert "group: order 2106" in out
    assert "normal=True" in out
    assert "sylow structure:" in out
    assert "direct_product_elementary" in out


def test_parse_error_exit_status(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("this is not a group file\n", encoding="utf-8")
    ret, out, err = _run(capsys, ["analyze", str(bad)])
    assert ret == 2
    assert err.startswith("error:")


def test_deep_nesting_exit_status(tmp_path, capsys):
    depth = 3000  # far past the parser's limit and Python's stack
    f = tmp_path / "deep.grp"
    f.write_text("group deep\ngens a\nrel " + "(" * depth + "a"
                 + ")" * depth + "\n", encoding="utf-8")
    ret, out, err = _run(capsys, ["analyze", str(f)])
    assert ret == 2
    assert out == ""
    assert err.startswith("error: ") and "nested deeper" in err


def test_nested_commutators_exit_status(tmp_path, capsys):
    # each level doubles the word: 20 levels would give 3,145,726 letters
    word = "a"
    for k in range(20):
        word = f"[{'ba'[k % 2]}, {word}]"
    f = tmp_path / "comm.grp"
    f.write_text(f"group comm\ngens a, b\nrel {word}\n", encoding="utf-8")
    start = time.perf_counter()
    ret, out, err = _run(capsys, ["analyze", str(f)])
    assert time.perf_counter() - start < 1.0
    assert ret == 2
    assert out == ""
    assert err.startswith("error: ") and "letters" in err


def test_huge_matrix_modulus_exit_status(tmp_path, capsys):
    f = tmp_path / "huge.grp"
    f.write_text("group huge\n"
                 "mat a = [[2,1],[1,0]] mod 1000000000039\n"
                 "mat b = [[0,1],[1,0]] mod 1000000000039\n"
                 "map m : oriented r=a l=b\n", encoding="utf-8")
    start = time.perf_counter()
    ret, out, err = _run(capsys, ["analyze", str(f)])
    assert time.perf_counter() - start < 1.0
    assert ret == 5
    assert out == ""
    assert err.startswith("error: ") and "max_order" in err


def test_huge_prime_modulus_exit_status(tmp_path, capsys):
    # 10**18 + 3 is prime: the parser decides so at once, and the action on
    # its p**2 - 1 points is refused before any vector is listed
    f = tmp_path / "huge.grp"
    f.write_text("group huge\n"
                 "mat a = [[2,1],[1,0]] mod 1000000000000000003\n",
                 encoding="utf-8")
    start = time.perf_counter()
    ret, out, err = _run(capsys, ["analyze", str(f)])
    assert time.perf_counter() - start < 1.0
    assert ret == 5
    assert out == ""
    assert err.startswith("error: ") and "max_order" in err


def test_quotient_by_huge_prime(corpus_file, capsys):
    # as for --p 5: a trivial p-core and no exceptional shape (exit 4)
    start = time.perf_counter()
    ret, out, _ = _run(capsys, ["quotient", "--p", "1000000000000000003",
                                "--json", corpus_file("s4_3map.grp")])
    assert time.perf_counter() - start < 1.0
    assert ret == 4
    assert json.loads(out)["group"]["p_core_order"] == 1


def test_missing_file_exit_status(tmp_path, capsys):
    ret, _, err = _run(capsys, ["analyze", str(tmp_path / "nope.grp")])
    assert ret == 3
    assert "cannot read" in err


def test_map_selection_errors(corpus_file, tmp_path, capsys):
    f = corpus_file("s4_3map.grp")
    ret, _, err = _run(capsys, ["analyze", "--map", "zzz", f])
    assert ret == 3
    assert "no map named" in err

    two = tmp_path / "two.grp"
    two.write_text(TWO_MAPS, encoding="utf-8")
    ret, _, err = _run(capsys, ["analyze", str(two)])
    assert ret == 3
    assert "several maps" in err

    ret, _, err = _run(capsys, ["analyze", corpus_file("s4_presentation.grp")])
    assert ret == 3
    assert "declares no maps" in err


def test_quotient_semistar(corpus_file, capsys):
    ret, out, _ = _run(capsys,
                       ["quotient", "--p", "2",
                        corpus_file("s4_projective.grp")])
    assert ret == 0
    assert "map m/core" in out
    assert "degenerate" in out
    assert "exceptional family: DM(6)" in out


def test_quotient_trivial_core_keeps_map(corpus_file, capsys):
    # O_3 of this group is trivial, so the quotient is the map itself and
    # the exceptional shape is recognized directly.
    ret, out, _ = _run(capsys,
                       ["quotient", "--p", "3", corpus_file("s4_3map.grp")])
    assert ret == 0
    assert "exceptional family: C(3,2)" in out


def test_quotient_trivial_core_of_a_large_group(tmp_path, capsys):
    # order 9792 on 288 points with a trivial 3-core: the quotient is the
    # group itself, not a closure on 9792 points past the cell bound
    f = tmp_path / "mod17.grp"
    f.write_text("group mod17\n"
                 "mat a = [[2,1],[1,0]] mod 17\n"
                 "mat b = [[0,1],[1,0]] mod 17\n"
                 "map m : oriented r=a l=b\n", encoding="utf-8")
    ret, out, err = _run(capsys, ["quotient", "--p", "3", "--json", str(f)])
    assert ret == 0, err
    doc = json.loads(out)
    assert doc["group"]["p_core_order"] == 1
    assert [(m["name"], m["group_order"]) for m in doc["maps"]] == [
        ("m/core", 9792)]


def test_quotient_normal_map_has_no_exceptional_shape(corpus_file, capsys):
    ret, out, _ = _run(capsys,
                       ["quotient", "--p", "3",
                        corpus_file("g216_orientable.grp")])
    assert ret == 0
    assert "diagnostic: no exceptional identification:" in out


def test_quotient_rejects_composite_p(corpus_file, capsys):
    ret, _, err = _run(capsys,
                       ["quotient", "--p", "4", corpus_file("s4_3map.grp")])
    assert ret == 3
    assert "must be a prime" in err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["analyze", "s4_3map.grp", "--max-order"],
    ["analyze", "s4_3map.grp", "--max-cosets"],
    ["quotient", "s4_3map.grp", "--p", "2", "--max-order"],
    ["census", "s4_3map.grp", "--kind", "oriented", "--max-order"],
    ["census", "s4_3map.grp", "--kind", "flagged", "--max-cosets"],
    ["tc", "s4_presentation.grp", "--max-cosets"],
    ["verify-corpus", "--max-cosets"],
], ids=lambda a: "-".join(w for w in a if not w.endswith(".grp")))
def test_bounds_below_one_are_refused(corpus_file, capsys, argv, value):
    # a bound below 1 is neither the default nor a limit: exit 3 before any
    # work, with one error line and nothing on stdout
    argv = [corpus_file(a) if a.endswith(".grp") else a for a in argv]
    for extra in ([], ["--json"]):
        ret, out, err = _run(capsys, argv + [value] + extra)
        assert (ret, out) == (3, "")
        assert err == f"error: {argv[-1]} must be at least 1, got {value}\n"


def test_analyze_reports_structure_breach(corpus_file, capsys, monkeypatch):
    def boom(m):
        raise TheoremViolation("forced structure breach")
    monkeypatch.setattr(cli, "classify", boom)
    ret, out, _ = _run(capsys, ["analyze", corpus_file("s4_3map.grp")])
    assert ret == 4
    assert "diagnostic: forced structure breach" in out


def test_main_maps_theorem_violation_to_exit_4(corpus_file, capsys,
                                               monkeypatch):
    def boom(m):
        raise TheoremViolation("forced outside the diagnostic path")
    monkeypatch.setattr(cli, "detect_p_map", boom)
    ret, _, err = _run(capsys, ["analyze", corpus_file("s4_3map.grp")])
    assert ret == 4
    assert "error: forced outside the diagnostic path" in err


def test_resource_limit_exit_status(corpus_file, capsys):
    ret, _, err = _run(capsys, ["analyze", "--max-cosets", "50",
                                corpus_file("g72_3map.grp")])
    assert ret == 5
    assert "error:" in err

    ret, _, err = _run(capsys, ["census", "--kind", "oriented",
                                "--max-order", "10",
                                corpus_file("s4_3map.grp")])
    assert ret == 5
    assert "error:" in err


def test_coset_refusal_says_how_many_cosets_live(corpus_file, capsys):
    for extra in ([], ["--json"]):
        ret, out, err = _run(capsys, ["analyze", "--max-cosets", "100",
                                      corpus_file("g72_3map.grp")] + extra)
        assert (ret, out) == (5, "")
        assert err == "error: coset table exceeded max_cosets=100 (94 live)\n"


def test_census_refuses_on_the_order_before_listing_elements(corpus_file,
                                                             capsys):
    # the group is realized under the census bound, so the presentation is
    # refused on the order its regular coset enumeration gives
    ret, out, err = _run(capsys, ["census", "--kind", "oriented",
                                  corpus_file("g2106_chiral.grp")])
    assert ret == 5
    assert out == ""
    assert err == "error: group order 2106 exceeds max_order=2000\n"


def test_large_matrix_group_hits_the_cell_bound(tmp_path, capsys):
    # 10200 points: under the default order bound, closure stops at
    # MAX_CLOSURE_CELLS // 10200 elements instead of exhausting memory
    f = tmp_path / "big_mod101.grp"
    f.write_text("group big_mod101\n"
                 "mat a = [[2,1],[1,0]] mod 101\n"
                 "mat b = [[0,1],[1,0]] mod 101\n"
                 "map m : oriented r=a l=b\n", encoding="utf-8")
    start = time.perf_counter()
    ret, out, err = _run(capsys, ["analyze", str(f)])
    assert time.perf_counter() - start < 10.0
    assert ret == 5
    assert out == ""
    assert err.startswith("error: ") and "max_cells" in err


def test_huge_perm_degree_hits_the_cell_bound(tmp_path, capsys):
    # a point number of 10^9 is refused before any per-point list exists
    f = tmp_path / "huge_perm.grp"
    f.write_text("group huge_perm\nperm a = (1 1000000000)\n",
                 encoding="utf-8")
    tracemalloc.start()
    try:
        ret, out, err = _run(capsys, ["analyze", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ret == 5
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "max_cells" in err
    assert peak < 10**7


def test_census_human_output(corpus_file, capsys):
    ret, out, _ = _run(capsys, ["census", "--kind", "flagged",
                                corpus_file("s4_3map.grp")])
    assert ret == 0
    assert "flagged census: 3 classes, 72 tuples" in out
    assert "(1, 2, 3): x24" in out
    assert "exceptional=C(3,2)" in out


def test_census_json(corpus_file, capsys):
    ret, out, _ = _run(capsys, ["census", "--kind", "flagged", "--json",
                                corpus_file("s4_3map.grp")])
    assert ret == 0
    doc = json.loads(out)
    assert doc["census"]["class_count"] == 3
    assert doc["census"]["total_tuples"] == 72
    assert doc["census"]["entries"][0]["tuple"] == [1, 2, 3]


def test_degenerate_printed_once(corpus_file, tmp_path, capsys):
    # s4_3map has no degenerate flagged class: no line mentions it
    ret, out, _ = _run(capsys, ["census", "--kind", "flagged",
                                corpus_file("s4_3map.grp")])
    assert ret == 0
    assert "degenerate" not in out
    # on V4, (1, 2, 1) has l = t; its line names the tag once, no genus
    f = tmp_path / "two_maps.grp"
    f.write_text(TWO_MAPS, encoding="utf-8")
    ret, out, _ = _run(capsys, ["census", "--kind", "flagged", str(f)])
    assert ret == 0
    line = next(x for x in out.splitlines() if x.startswith("  (1, 2, 1)"))
    assert line.count("degenerate") == 1
    assert "degenerate ['l_equals_t']" in line
    ret, out, _ = _run(capsys, ["quotient", "--p", "2",
                                corpus_file("s4_projective.grp")])
    assert ret == 0
    line = next(x for x in out.splitlines() if x.startswith("map m/core"))
    assert line.count("degenerate") == 1
    assert "=None" not in line


def test_verify_corpus_cli(capsys):
    ret, out, _ = _run(capsys, ["verify-corpus"])
    assert ret == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == f"{len(lines) - 1}/{len(lines) - 1} checks passed"

    ret, out, _ = _run(capsys, ["verify-corpus", "--json"])
    assert ret == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(row["ok"] for row in doc["checks"])


def test_verify_corpus_detects_perturbation(tmp_path, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    for name in REGISTRY:
        (d / name).write_text(corpus_text(name), encoding="utf-8")
    text = corpus_text("s4_3map.grp").replace("l=l", "l=r")
    (d / "s4_3map.grp").write_text(text, encoding="utf-8")
    ret, out, _ = _run(capsys,
                       ["verify-corpus", "--corpus-dir", str(d)])
    assert ret == 1
    assert "FAIL" in out


def test_tc_command(corpus_file, capsys):
    ret, out, _ = _run(capsys, ["tc", corpus_file("s4_presentation.grp")])
    assert ret == 0
    assert out.splitlines()[0] == "cosets: 24"

    ret, _, err = _run(capsys, ["tc", corpus_file("s4_3map.grp")])
    assert ret == 3
    assert "presentation-mode" in err


def test_tc_export_perms_round_trip(corpus_file, capsys):
    ret, out, _ = _run(capsys, ["tc", "--export-perms",
                                corpus_file("s4_presentation.grp")])
    assert ret == 0
    head, exported = out.split("\n", 1)
    assert head == "cosets: 24"
    gf = parse_group_file(exported)
    assert gf.mode == "perm"
    assert realize_group_file(gf).group.order == 24

    ret, out, _ = _run(capsys, ["tc", "--json",
                                corpus_file("s4_presentation.grp")])
    assert ret == 0
    assert json.loads(out)["cosets"] == 24


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert TOOL_VERSION in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["analyze", "s4_3map.grp", "--json"],
    ["census", "s4_3map.grp", "--kind", "oriented"],
    # over 8 KiB of JSON: the write fails inside print, not in the flush
    ["tc", "g384_chiral.grp", "--export-perms", "--json"],
], ids=["analyze-json", "census-text", "tc-json"])
def test_closed_stdout_exits_3_without_a_traceback(corpus_file, argv):
    argv = [corpus_file(a) if a.endswith(".grp") else a for a in argv]
    # Block-buffered stdout, as for any pipe: small reports then fail only
    # in the final flush.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from regmaps.cli import main; sys.exit(main())",
             *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: cannot write to stdout")


# -- every input ends in a documented exit code -----------------------------

GEN_NAMES = ("a", "b", "c")
# mostly words over the two generators every file declares; c and z are
# unknown in some files and in all
WORDS = st.sampled_from(["a", "b", "a*b", "b^-1", "a^2", "[a, b]", "b^a",
                         "(a*b)^3", "a*b*a", "c", "z"])


def _perm_line(name, images):
    cycles = [c for c in Perm(tuple(images)).cycles() if len(c) > 1]
    text = "".join("(" + " ".join(str(x + 1) for x in c) + ")"
                   for c in cycles)
    return f"perm {name} = {text or '()'}"


def _cycle(order, length):
    """The cycle through the first `length` points of `order`."""
    images = list(range(len(order)))
    for i in range(length):
        images[order[i]] = order[(i + 1) % length]
    return images


def _involution(order, pairs):
    """The product of transpositions of consecutive points of `order`."""
    images = list(range(len(order)))
    for i in range(0, 2 * min(pairs, len(order) // 2), 2):
        images[order[i]], images[order[i + 1]] = order[i + 1], order[i]
    return images


# a is a cycle and b, c are involutions, so that many declared maps are
# valid
PERM_LINES = st.integers(2, 6).flatmap(
    lambda d: st.tuples(
        st.tuples(st.permutations(range(d)), st.integers(2, d)),
        st.lists(st.tuples(st.permutations(range(d)), st.integers(1, 3)),
                 min_size=1, max_size=2))
).map(lambda ab: [_perm_line("a", _cycle(*ab[0]))] + [
    _perm_line(n, _involution(*inv)) for n, inv in zip("bc", ab[1])])

MAT_LINES = st.tuples(
    st.sampled_from([2, 3, 4, 5, 7]),
    st.lists(st.lists(st.integers(-1, 4), min_size=4, max_size=4),
             min_size=2, max_size=3),
).map(lambda pm: [f"mat {n} = [[{w},{x}],[{y},{z}]] mod {pm[0]}"
                  for n, (w, x, y, z) in zip(GEN_NAMES, pm[1])])

MAP_LINES = st.lists(
    st.one_of(st.tuples(st.just("oriented"), WORDS, WORDS),
              st.tuples(st.just("flagged"), WORDS, WORDS, WORDS)),
    min_size=1, max_size=2,
).map(lambda ms: [
    f"map m{i} : {m[0]} " + " ".join(
        f"{f}={w}" for f, w in zip(("r", "l") if m[0] == "oriented"
                                   else ("t", "r", "l"), m[1:]))
    for i, m in enumerate(ms)])

GROUP_FILES = st.tuples(st.one_of(PERM_LINES, MAT_LINES), MAP_LINES).map(
    lambda gm: "\n".join(["group g"] + gm[0] + gm[1]) + "\n")

# bounds from 120 down to -2; hypothesis favours the first of the range,
# so most runs get a usable bound and some get one below 1
BOUND = st.integers(0, 122).map(lambda k: 120 - k)
COMMANDS = st.one_of(
    st.tuples(st.just(["analyze"]), BOUND, BOUND),
    st.tuples(st.sampled_from([["quotient", "--p", "2"],
                               ["quotient", "--p", "3"],
                               ["quotient", "--p", "4"]]), BOUND, BOUND),
    st.tuples(st.sampled_from([["census", "--kind", "oriented"],
                               ["census", "--kind", "flagged"]]),
              BOUND, BOUND),
    st.tuples(st.just(["tc"]), st.none(), BOUND),
)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("generated") / "g.grp"


@given(text=GROUP_FILES, command=COMMANDS, as_json=st.booleans())
@settings(max_examples=200, deadline=None)
def test_generated_inputs_end_in_a_documented_exit_code(scratch_file, text,
                                                        command, as_json):
    # Small perm and mat files under tight bounds, some below 1: every run
    # ends in exit 0, 2, 3, 4 or 5, raises nothing out of main, and a run
    # that prints an error prints nothing else.
    scratch_file.write_text(text, encoding="utf-8")
    words, max_order, max_cosets = command
    argv = words + [str(scratch_file), "--max-cosets", str(max_cosets)]
    if max_order is not None:
        argv += ["--max-order", str(max_order)]
    if as_json:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        ret = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    event(f"{words[0]} exit {ret}")
    assert ret in (0, 2, 3, 4, 5), (argv, text, err)
    if ret in (2, 3, 5):
        assert err.startswith("error: "), (argv, text)
    if err:
        assert out == "", (argv, text, err)
        assert err.count("\n") == 1 and err.startswith("error: "), err
