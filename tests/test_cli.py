import argparse
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import regmaps.cli as cli
import regmaps.group
from regmaps.census import (census_classify, enumerate_flagged,
                            enumerate_oriented)
from regmaps.errors import TheoremViolation
from regmaps.grammar import (GroupFile, MapDecl, format_group_file,
                             parse_group_file, realize_group_file)
from regmaps.group import (ELEMENT_CELLS, MAX_CLOSURE_CELLS, POINT_CELLS,
                           cell_limit)
from regmaps.maps import MAP_TYPES
from regmaps.perm import Perm
from regmaps.reporting import TOOL_VERSION
from regmaps.verify import REGISTRY, corpus_text
from regmaps.words import Word
from standard_groups import (census_zoo, dihedral_group, elementary_abelian,
                             quaternion_group)
from test_families import agl1_file

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


def test_analyze_tests_primitivity_once(corpus_file, capsys, monkeypatch):
    # every binding of the two functions in the package is counted
    calls = Counter()
    for name in ("is_primitive", "coset_action"):
        original = getattr(regmaps.group, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for module in [m for n, m in sys.modules.items()
                       if n.startswith("regmaps")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    ret, out, _ = _run(capsys, ["analyze", corpus_file("g2106_chiral.grp")])
    assert ret == 0
    assert "vertex action primitive: True" in out
    assert "direct_product_elementary" in out
    # the vertices are labelled as left cosets, with no coset_action
    assert (calls["is_primitive"], calls["coset_action"]) == (1, 0)


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


def test_a_line_of_a_million_parentheses_is_refused_at_once(tmp_path,
                                                           capsys):
    # the line is read only up to the bracket past the nesting bound
    f = tmp_path / "parens.grp"
    f.write_text("group deep\ngens a\nrel " + "(" * 10**6 + ")" * 10**6
                 + "\n", encoding="utf-8")
    cli.build_parser()  # built once a process, outside the measured run
    start = time.perf_counter()
    tracemalloc.start()
    try:
        ret, out, err = _run(capsys, ["analyze", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert (ret, out) == (2, "")
    assert "nested deeper" in err
    assert peak < 10**7


def test_a_product_past_the_letter_bound_exit_status(tmp_path, capsys):
    # 10^6 + 1 factors, refused at the last after one linear pass
    f = tmp_path / "long.grp"
    f.write_text("group long\ngens a\nrel " + "*".join("a" * (10**6 + 1))
                 + "\n", encoding="utf-8")
    start = time.perf_counter()
    ret, out, err = _run(capsys, ["analyze", str(f)])
    assert time.perf_counter() - start < 10.0
    assert (ret, out) == (2, "")
    assert err.startswith("error: ") and "letters" in err


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
                 "mat a = [[2,1],[1,0]] mod 1000000000000000003\n"
                 "map m : oriented r=a l=a\n",
                 encoding="utf-8")
    start = time.perf_counter()
    ret, out, err = _run(capsys, ["analyze", str(f)])
    assert time.perf_counter() - start < 1.0
    assert ret == 5
    assert out == ""
    assert err.startswith("error: ") and "max_order" in err


def test_quotient_by_huge_prime(corpus_file, capsys):
    # as for --p 5: a trivial p-core and no exceptional shape, which is no
    # theorem violation, since the map is a 3-map (exit 0)
    start = time.perf_counter()
    ret, out, _ = _run(capsys, ["quotient", "--p", "1000000000000000003",
                                "--json", corpus_file("s4_3map.grp")])
    assert time.perf_counter() - start < 1.0
    assert ret == 0
    doc = json.loads(out)
    assert doc["group"]["p_core_order"] == 1
    assert doc["diagnostics"] == [
        "no exceptional identification: nonnormal p-map with"
        " p = 1000000000000000003"]


@pytest.mark.parametrize("name,why", [
    ("g384_chiral.grp", "a nonnormal oriented 3-map cannot exist"),
    ("gl23_reflexible.grp", "a nonnormal oriented 3-map cannot exist"),
    ("s4_projective.grp",
     "quotient does not match the nonorientable 3-vertex map"),
    ("s4_sphere.grp",
     "quotient does not match the nonorientable 3-vertex map"),
])
def test_a_2_map_has_no_3_quotient_to_breach(corpus_file, capsys, name, why):
    # these nonnormal maps are 2-maps: the paper's theorem says nothing of
    # their quotient by O_3, so a failed identification is a diagnostic
    ret, out, err = _run(capsys, ["quotient", "--p", "3", corpus_file(name)])
    assert (ret, err) == (0, "")
    assert out.endswith(f"diagnostic: no exceptional identification: {why}\n")


def test_a_nonnormal_3_map_has_its_exceptional_3_quotient(corpus_file,
                                                           capsys):
    ret, out, err = _run(capsys, ["quotient", "--p", "3",
                                  corpus_file("g72_3map.grp")])
    assert (ret, err) == (0, "")
    assert out.endswith("  exceptional family: C(3,2)\n")


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


# S4 as in s4_3map.grp, with an invalid declaration: the identity as the
# rotation of an oriented map
S4_WITH_BAD = ("group s4_3map\nperm t = (1 2)(3 4)\nperm r = (1 3)\n"
               "perm l = (1 2)\n")
BAD_MAP = "map bad : oriented r=t^0 l=l\n"
BAD_REFUSAL = "error: map 'bad': rotation must not be the identity\n"


def test_census_builds_no_declared_map(corpus_file, tmp_path, capsys):
    f = tmp_path / "bad.grp"
    f.write_text(S4_WITH_BAD + BAD_MAP, encoding="utf-8")
    for kind in ("oriented", "flagged"):
        want = _run(capsys, ["census", corpus_file("s4_3map.grp"),
                             "--kind", kind])
        assert want[0] == 0
        assert _run(capsys, ["census", str(f), "--kind", kind]) == want
    ret, out, err = _run(capsys, ["analyze", str(f)])
    assert (ret, out, err) == (3, "", BAD_REFUSAL)


def test_a_command_builds_only_the_map_it_reads(tmp_path, capsys):
    f = tmp_path / "good_and_bad.grp"
    f.write_text(S4_WITH_BAD + "map good : flagged t=t r=r l=l\n" + BAD_MAP,
                 encoding="utf-8")
    for argv in (["analyze"], ["quotient", "--p", "3"]):
        ret, out, err = _run(capsys, [argv[0], str(f), "--map", "good",
                                      *argv[1:]])
        assert (ret, err) == (0, "")
        assert "map good" in out
    ret, out, err = _run(capsys, ["quotient", str(f), "--map", "good",
                                  "--p", "2"])
    assert (ret, out, err) == (
        3, "", "error: a flag reflection collapses in the quotient\n")
    ret, out, err = _run(capsys, ["analyze", str(f), "--map", "bad"])
    assert (ret, out, err) == (3, "", BAD_REFUSAL)


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


def test_quotient_degenerate_map_is_not_the_exceptional_3_map(tmp_path,
                                                              capsys):
    # the quotient by O_3(S3) = C3 is a degenerate flagged map on C2
    f = tmp_path / "s3.grp"
    f.write_text("group s3\ngens a, b\nrel a^3\nrel b^2\nrel (a*b)^2\n"
                 "map m : flagged t=b r=a*b l=b\n", encoding="utf-8")
    ret, out, _ = _run(capsys, ["quotient", "--p", "3", str(f)])
    assert ret == 0
    assert ("diagnostic: no exceptional identification: a degenerate map"
            " is not the exceptional 3-map") in out


@pytest.mark.parametrize("n,p,what", [
    (3, "3", "rotation"),  # O_3(S3) = C3 holds the rotation a alone
    (4, "2", "edge reversal"),  # O_2(D4) is the whole group
])
def test_quotient_names_a_collapsing_generator(tmp_path, capsys, n, p, what):
    f = tmp_path / "dihedral.grp"
    f.write_text(f"group d\ngens a, b\nrel a^{n}\nrel b^2\nrel (a*b)^2\n"
                 "map m : oriented r=a l=b\n", encoding="utf-8")
    assert _run(capsys, ["quotient", "--p", p, str(f)]) == (
        3, "", f"error: {what} collapses in the quotient\n")


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


def test_analyze_labels_a_sylow_of_neither_shape(corpus_file, capsys,
                                                 monkeypatch):
    # g216_orientable's P/P0 is C3^2: without the direct split it takes the
    # third label, and only a P/P0 that is not elementary abelian is refused
    classify_module = import_module("regmaps.classify")
    monkeypatch.setattr(classify_module, "_splits_elementary",
                        lambda *args: False)
    path = corpus_file("g216_orientable.grp")
    ret, out, _ = _run(capsys, ["analyze", path])
    assert ret == 0
    assert ("  sylow structure: {'case_tag': 'elementary_quotient',"
            " 'p0_order': 3, 'complement_rank': None,"
            " 'extraspecial_order': None}\n") in out
    monkeypatch.setattr(classify_module, "_elementary_quotient",
                        lambda *args: False)
    ret, out, _ = _run(capsys, ["analyze", path])
    assert ret == 4
    assert ("diagnostic: Sylow 3-subgroup of order 27 has a quotient by P0,"
            " of order 3, that is not elementary abelian") in out


# Small valid maps whose Sylow subgroup P splits neither as P0 x (C_p)^k
# nor as P0 = Z(P) times an extraspecial group: P/P0 is elementary abelian
# of order p^k, as the vertex action proves, so P takes the third label
ELEMENTARY_QUOTIENT = {
    "d4_oriented": "group d4\nperm a = (1 2 3 4)\nperm b = (2 4)\n"
                   "map m : oriented r=a l=b\n",
    "d4_flagged": "group d4\nperm a = (1 3)(2 4)\nperm b = (2 4)\n"
                  "perm c = (1 4)(2 3)\nmap m : flagged t=a r=b l=c\n",
}


@pytest.mark.parametrize("name", list(ELEMENTARY_QUOTIENT))
def test_analyze_certifies_small_maps_without_exit_4(name, tmp_path, capsys):
    path = tmp_path / f"{name}.grp"
    path.write_text(ELEMENTARY_QUOTIENT[name])
    ret, out, _ = _run(capsys, ["analyze", str(path)])
    assert ret == 0
    assert "'case_tag': 'elementary_quotient'" in out


# Small flagged p-maps of vertex exponent k = 1: P/P0 = C_p, and P splits
# as P0 x C_p; name -> (file, p, order of P0)
CERTIFIED_ODD_EXPONENT = {
    "c2_cubed": ("group e8\nperm a = (1 2)\nperm b = (3 4)\n"
                 "perm c = (5 6)\nmap m : flagged t=a r=b l=c\n", 2, 4),
    "v4_t_is_r": ("group v4\nperm a = (1 2)\nperm b = (3 4)\n"
                  "map m : flagged t=a r=a l=b\n", 2, 2),
    "d10_projective": ("group d10\nperm t = (1 6)(2 7)(3 8)(4 9)(5 10)\n"
                       "perm r = (2 10)(3 9)(4 8)(5 7)\n"
                       "perm l = (1 10)(2 9)(3 8)(4 7)(5 6)\n"
                       "map m : flagged t=t r=r l=l\n", 5, 1),
}


@pytest.mark.parametrize("name", list(CERTIFIED_ODD_EXPONENT))
def test_analyze_certifies_flagged_maps_of_odd_exponent(name, tmp_path,
                                                        capsys):
    text, p, p0_order = CERTIFIED_ODD_EXPONENT[name]
    path = tmp_path / f"{name}.grp"
    path.write_text(text)
    ret, out, err = _run(capsys, ["analyze", str(path), "--json"])
    assert (ret, err) == (0, "")
    sec = json.loads(out)["maps"][0]
    assert (sec["p"], sec["k"]) == (p, 1)
    assert sec["sylow_structure"] == {
        "case_tag": "direct_product_elementary", "p0_order": p0_order,
        "complement_rank": 1, "extraspecial_order": None}


# The fields of an analyze section that must equal those of the census row
# of the same class, and those it must share when the row has them
ROW_FIELDS = ("vertices", "edges", "faces", "euler", "genus_kind", "genus",
              "orientable", "reflexible", "valency", "simple_graph")
P_MAP_FIELDS = ("p", "k", "normal", "orientation_status",
                "exceptional_case", "quotient_order")
# (n, kind) of each census of D_n with a 2-vertex dipole class whose Sylow
# subgroup splits neither way
DIPOLES = {(4, "oriented"), (8, "oriented"), (16, "oriented"),
           (4, "flagged")}


def _class_file(G, kind, tuple_) -> str:
    """A census class as a perm-mode file on G's points, whose generators
    are the entries of its tuple, named as the map's fields."""
    fields = MAP_TYPES[kind].fields
    return format_group_file(GroupFile(
        name="zoo", mode="perm", gen_names=fields, presentation=None,
        perm_cycles=tuple(tuple(Perm(tuple(G.elements[x])).cycles())
                          for x in tuple_),
        matrices=(), modulus=None,
        maps=(MapDecl("m", kind, tuple((f, Word.gen(i))
                                       for i, f in enumerate(fields))),)))


def _round_trip(tmp_path, capsys, G, kind) -> int:
    """Analyze every class of G's `kind` census from its own file and check
    the section against the census row.  Returns the number of classes."""
    entries = (enumerate_oriented if kind == "oriented"
               else enumerate_flagged)(G)
    census_classify(entries)
    path = tmp_path / "class.grp"
    for entry in entries:
        row = entry.report.to_dict()
        if entry.classification is not None:
            row.update(entry.classification.to_dict())
        path.write_text(_class_file(G, kind, entry.tuple_), encoding="utf-8")
        ret, out, err = _run(capsys, ["analyze", str(path), "--json"])
        assert (ret, err) == (0, ""), (G.order, kind, entry.tuple_)
        sec = json.loads(out)["maps"][0]
        want = {f: row[f] for f in ROW_FIELDS + P_MAP_FIELDS if f in row}
        got = {f: sec[f] for f in ROW_FIELDS + P_MAP_FIELDS if f in sec}
        assert got == want, (G.order, kind, entry.tuple_)
    return len(entries)


def test_census_classes_round_trip_through_analyze(corpus, tmp_path, capsys):
    """Every class of both censuses of a zoo, written as its own file,
    analyzes to its census row, and analyze refuses none.  AGL(1,q)
    joins for the prime powers q from 5 to 16; q = 2, 3 and 4 give C2, S3
    and A4, which the zoo has already."""
    zoo = census_zoo(corpus) + [elementary_abelian(2, 4),
                                elementary_abelian(3, 2),
                                elementary_abelian(5, 2), quaternion_group()]
    zoo += [realize_group_file(parse_group_file(agl1_file(q))).group
            for q in (5, 7, 8, 9, 11, 13, 16)]
    classes = sum(_round_trip(tmp_path, capsys, G, kind)
                  for G in zoo for kind in ("oriented", "flagged"))
    assert classes == 194


@pytest.mark.parametrize("n,kind", sorted(DIPOLES))
def test_dipole_census_round_trips_through_analyze(tmp_path, capsys, n,
                                                    kind):
    assert _round_trip(tmp_path, capsys, dihedral_group(n), kind) >= 1


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
    # g72 is realized on the cosets of <d> (refused: 8 cosets, on which d
    # has order 3, not 9) and then of <b>; 55 is the least bound under
    # which both complete
    for extra in ([], ["--json"]):
        ret, out, err = _run(capsys, ["analyze", "--max-cosets", "54",
                                      corpus_file("g72_3map.grp")] + extra)
        assert (ret, out) == (5, "")
        assert err == "error: coset table exceeded max_cosets=54 (40 live)\n"


def test_a_certified_presentation_needs_no_regular_table(corpus_file, capsys):
    # g2106 is realized from the 81 cosets of <e>, a run that fits in 2000
    # cosets; its regular table defines 10,280
    path = corpus_file("g2106_chiral.grp")
    want = _run(capsys, ["analyze", path])
    assert want[0] == 0
    assert _run(capsys, ["analyze", path, "--max-cosets", "2000"]) == want


def _no_enumeration(monkeypatch):
    """Make every call of todd_coxeter, from the CLI or the realization,
    fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("todd_coxeter called")
    monkeypatch.setattr(import_module("regmaps.coset_enum"), "todd_coxeter",
                        fail)
    monkeypatch.setattr(cli, "todd_coxeter", fail)


def test_tc_counts_a_one_generator_group_without_a_table(tmp_path, capsys,
                                                         monkeypatch):
    # a group on one generator is cyclic, of order |G/G'|: no enumeration,
    # so --max-cosets does not bound it and a^100000 takes no time
    _no_enumeration(monkeypatch)
    f = tmp_path / "c.grp"
    f.write_text("group c\ngens a\nrel a^100000\n", encoding="utf-8")
    start = time.perf_counter()
    assert _run(capsys, ["tc", str(f)]) == (0, "cosets: 100000\n", "")
    assert time.perf_counter() - start < 1.0
    assert _run(capsys, ["tc", str(f), "--max-cosets", "10"])[:2] == (
        0, "cosets: 100000\n")
    f.write_text("group c\ngens a\nrel a^6\nrel a^4\n", encoding="utf-8")
    assert _run(capsys, ["tc", str(f)]) == (0, "cosets: 2\n", "")


def test_tc_exports_a_one_generator_group_as_the_n_cycle(tmp_path, capsys,
                                                         monkeypatch):
    # the regular table of a cyclic group is the n-cycle, printed with no
    # enumeration, so --max-cosets does not bound it either
    _no_enumeration(monkeypatch)
    f = tmp_path / "c.grp"
    f.write_text("group c\ngens a\nrel a^20000\n", encoding="utf-8")
    cycle = "(" + " ".join(map(str, range(1, 20001))) + ")"
    start = time.perf_counter()
    assert _run(capsys, ["tc", "--export-perms", str(f)]) == (
        0, f"cosets: 20000\ngroup c\nperm a = {cycle}\n", "")
    assert time.perf_counter() - start < 1.0
    ret, out, _ = _run(capsys, ["tc", "--export-perms", "--json", str(f),
                                "--max-cosets", "10"])
    assert (ret, json.loads(out)["perm_file"]) == (
        0, f"group c\nperm a = {cycle}\n")
    f.write_text("group c\ngens a\nrel a^6\nrel a^-4\nmap m : oriented"
                 " r=a l=a^0\n", encoding="utf-8")
    assert _run(capsys, ["tc", "--export-perms", str(f)]) == (
        0, "cosets: 2\ngroup c\nperm a = (1 2)\nmap m : oriented r=a"
           " l=a^0\n", "")
    f.write_text("group c\ngens a\nrel a\n", encoding="utf-8")
    assert _run(capsys, ["tc", "--export-perms", str(f)]) == (
        0, "cosets: 1\ngroup c\nperm a = ()\n", "")


def test_census_refuses_on_the_order_before_listing_elements(
        corpus_file, capsys, monkeypatch):
    # the group is realized under the census bound, so the presentation is
    # refused on the order 26 * 81 that the cosets of <e> certify: one
    # enumeration of 81 cosets and no regular one (10,280 cosets defined,
    # a 2.2 MB peak), and no element is listed
    import regmaps.coset_enum as ce
    todd_coxeter = ce.todd_coxeter
    runs = []

    def recorded(pres, subgroup_words=(), **kwargs):
        ct = todd_coxeter(pres, subgroup_words, **kwargs)
        runs.append((tuple(subgroup_words), ct.n))
        return ct

    argv = ["census", "--kind", "oriented", corpus_file("g2106_chiral.grp")]
    cli.build_parser()  # built once a process, outside the traced run
    monkeypatch.setattr(ce, "todd_coxeter", recorded)
    tracemalloc.start()
    try:
        ret, out, err = _run(capsys, argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ret == 5
    assert out == ""
    assert err == "error: group order 2106 exceeds max_order=2000\n"
    assert runs == [((Word.gen(4),), 81)]
    assert peak < 200_000


def test_an_infinite_presentation_is_refused_by_the_census(tmp_path,
                                                           capsys):
    # C2 * C3 is a free product of two nontrivial groups: refused before
    # any enumeration, on the certificate
    f = tmp_path / "modular.grp"
    f.write_text("group modular\ngens a, b\nrel a^2\nrel b^3\n"
                 "map m : oriented r=a l=b\n", encoding="utf-8")
    ret, out, err = _run(capsys, ["census", "--kind", "oriented", str(f),
                                  "--max-cosets", "1000"])
    assert (ret, out) == (5, "")
    assert err == ("error: presentation of an infinite group: free factors"
                   " <a> and <b> both have a nontrivial abelianization\n")


SPLIT = ("error: presentation of an infinite group: free factors <{}> and"
         " <{}> both have a nontrivial abelianization\n")
# Presentations the certificates refuse, each with its refusal, under the
# commands that realize or count a presentation.
REFUSED = [
    ("gens a, b\nrel a^2\nrel b^3\nmap m : oriented r=a l=b\n",
     ["tc"], SPLIT.format("a", "b")),
    ("gens a, b\nrel a^2\nrel b^3\nmap m : oriented r=a l=b\n",
     ["tc", "--export-perms"], SPLIT.format("a", "b")),
    ("gens a, b\nrel a^2\nrel b^3\nmap m : oriented r=a l=b\n",
     ["analyze"], SPLIT.format("a", "b")),
    ("gens a, b\nrel a^2\nrel b^3\nmap m : oriented r=a l=b\n",
     ["census", "--kind", "oriented"], SPLIT.format("a", "b")),
    # C5 * C2: a map file that forgot its (rl)^q
    ("gens r, l\nrel r^5\nrel l^2\nmap m : oriented r=r l=l\n",
     ["analyze"], SPLIT.format("r", "l")),
    ("gens r, l\nrel r^5\nrel l^2\nmap m : oriented r=r l=l\n",
     ["census", "--kind", "flagged"], SPLIT.format("r", "l")),
    # b is free
    ("gens a, b\nrel a^2\nmap m : oriented r=a l=b\n",
     ["tc"], SPLIT.format("a", "b")),
    ("gens a, b\nrel a^2\nmap m : oriented r=a l=b\n",
     ["quotient", "--p", "2"], SPLIT.format("a", "b")),
]


@pytest.mark.parametrize("text,words,err", REFUSED)
def test_a_provably_infinite_or_large_presentation_is_refused_at_once(
        tmp_path, capsys, text, words, err):
    # no coset is defined: the refusal takes milliseconds and a small peak
    f = tmp_path / "g.grp"
    f.write_text("group g\n" + text, encoding="utf-8")
    argv = words + [str(f)]
    cli.build_parser()  # built once a process, outside the measured run
    for as_json in ([], ["--json"]):
        start = time.perf_counter()
        assert _run(capsys, argv + as_json) == (5, "", err)
        assert time.perf_counter() - start < 0.05
    tracemalloc.start()
    try:
        assert _run(capsys, argv)[0] == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000


def test_a_large_abelianization_is_refused_before_enumeration(tmp_path,
                                                              capsys):
    # refused on |G/G'| = 50000 > 2000, where the enumeration took 40 s;
    # parsing the 50,000-letter relator is the run's peak, and the refusal
    # adds under 200 KB to it
    text = "group g\ngens a\nrel a^50000\nmap m : oriented r=a l=a\n"
    f = tmp_path / "c50000.grp"
    f.write_text(text, encoding="utf-8")
    argv = ["census", "--kind", "oriented", str(f)]
    cli.build_parser()
    start = time.perf_counter()
    assert _run(capsys, argv) == (
        5, "", "error: group order is a multiple of 50000, the order of its"
               " abelianization, and exceeds max_order=2000\n")
    assert time.perf_counter() - start < 0.05
    tracemalloc.start()
    try:
        parse_group_file(text)
        parsed = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert _run(capsys, argv)[0] == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < parsed + 200_000


@pytest.mark.parametrize("words", [["tc"], ["tc", "--export-perms"],
                                   ["analyze"],
                                   ["census", "--kind", "oriented"]])
def test_the_perfect_triangle_group_still_meets_the_coset_bound(
        tmp_path, capsys, words):
    # <a, b | a^2, b^3, (ab)^7> is infinite, but perfect and connected, so
    # neither certificate refuses it: the enumeration runs to the bound
    f = tmp_path / "t237.grp"
    f.write_text("group t237\ngens a, b\nrel a^2\nrel b^3\nrel (a*b)^7\n"
                 "map m : oriented r=b l=a\n", encoding="utf-8")
    assert _run(capsys, words + [str(f), "--max-cosets", "20000"]) == (
        5, "", "error: coset table exceeded max_cosets=20000 (20000 live)\n")


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
    f.write_text("group huge_perm\nperm a = (1 1000000000)\n"
                 "map m : oriented r=a l=a\n", encoding="utf-8")
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


def test_a_perm_at_half_the_cells_is_refused_before_it_is_built(tmp_path,
                                                                capsys):
    # 5,000,000 points hold 10^7 cells as two elements, but the generator
    # and the identity cost 6 cells a point each on top
    f = tmp_path / "big_perm.grp"
    f.write_text("group big_perm\nperm a = (1 5000000)\n"
                 "map m : oriented r=a l=a\n", encoding="utf-8")
    tracemalloc.start()
    try:
        ret, out, err = _run(capsys, ["analyze", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ret == 5
    assert out == ""
    assert err == ("error: a group on 5000000 points exceeds"
                   f" max_cells={MAX_CLOSURE_CELLS}\n")
    assert peak < 10**7


@pytest.mark.parametrize("order,cycles", [
    (2, ["(1 {d})"]),
    (4, ["(1 {d})", "(2 {e})"]),
], ids=["one_generator", "two_generators"])
def test_the_largest_perm_groups_the_cells_admit_stay_under_160_mb(
        monkeypatch, order, cycles):
    # d is the most points on which the cell bound admits the group.  Every
    # cost grows with d, so the run uses a tenth of the bound, which keeps
    # tracemalloc's own bookkeeping small, and the peak must stay under the
    # same 8 bytes a cell as 160 MB under the full bound.
    cells = MAX_CLOSURE_CELLS // 10
    monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", cells)
    gens = len(cycles)
    d = (cells - order * ELEMENT_CELLS) // (order + POINT_CELLS * (gens + 1))
    assert cell_limit(d, gens) >= order > cell_limit(d + 1, gens)
    text = "group big\n" + "".join(
        f"perm g{i} = {c.format(d=d, e=d - 1)}\n"
        for i, c in enumerate(cycles))
    text += f"map m : oriented r=g0 l=g{gens - 1}\n"
    gf = parse_group_file(text)
    tracemalloc.start()
    try:
        rz = realize_group_file(gf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rz.group.order, rz.group.degree) == (order, d)
    assert peak < 8 * cells


def test_a_perm_of_too_high_an_order_is_refused_before_it_is_built(
        tmp_path, capsys):
    # one generator of order lcm(4, 9, 5, 7, 11, 13) = 180180 on 49 points:
    # the cells admit 155034 elements and the census bound 2000, and the
    # generator's order alone exceeds both
    points = iter(range(1, 50))
    cycles = "".join(
        "(" + " ".join(str(next(points)) for _ in range(n)) + ")"
        for n in (4, 9, 5, 7, 11, 13))
    f = tmp_path / "c180180.grp"
    f.write_text(f"group c180180\nperm a = {cycles}\n"
                 "map m : oriented r=a l=a\n", encoding="utf-8")
    tracemalloc.start()
    try:
        ret, out, err = _run(capsys, ["analyze", str(f)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ret, out) == (5, "")
    assert err == (f"error: closure exceeded max_cells={MAX_CLOSURE_CELLS}:"
                   " 155034 elements on 49 points\n")
    assert peak < 10**6
    ret, out, err = _run(capsys, ["census", "--kind", "oriented", str(f)])
    assert (ret, out) == (5, "")
    assert err == "error: closure exceeded max_order=2000\n"


def test_a_map_less_file_is_refused_before_its_group_is_built(tmp_path,
                                                             capsys):
    # 5,000,000 points would take about 480 MB to close; the map is chosen
    # from the declarations first
    f = tmp_path / "no_map.grp"
    f.write_text("group big\nperm a = (1 5000000)\n", encoding="utf-8")
    for argv in (["analyze", str(f)], ["quotient", "--p", "2", str(f)]):
        tracemalloc.start()
        try:
            ret, out, err = _run(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ret == 3
        assert out == ""
        assert err == "error: the file declares no maps\n"
        assert peak < 10**7


def test_ladder_quotient_closes_on_the_core_orbits(tmp_path, capsys):
    # order 13680 on 360 points with O_2 of order 2: G/O_2 acts faithfully
    # on the 180 orbits of O_2, while its regular action on 6840 cosets
    # passes the cell bound
    f = tmp_path / "ladder19.grp"
    f.write_text("group ladder19\n"
                 "mat a = [[2,1],[1,0]] mod 19\n"
                 "mat b = [[0,1],[1,0]] mod 19\n"
                 "map m : oriented r=a l=b\n", encoding="utf-8")
    ret, out, err = _run(capsys, ["quotient", "--p", "2", "--json", str(f)])
    assert ret == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["group"]["p_core_order"] == 2
    assert doc["maps"][0]["group_order"] == 6840


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


def test_tc_export_perms_prints_a_trivial_map_word(tmp_path, capsys):
    f = tmp_path / "v4.grp"
    f.write_text("group v4\ngens a, b\nrel a^2\nrel b^2\nrel (a*b)^2\n"
                 "map m : flagged t=a r=b l=a^0\n", encoding="utf-8")
    ret, out, err = _run(capsys, ["tc", "--export-perms", str(f)])
    assert (ret, err) == (0, "")
    assert out.endswith("map m : flagged t=a r=b l=a^0\n")
    exported = realize_group_file(parse_group_file(out.split("\n", 1)[1]))
    assert exported.maps["m"].degenerate == frozenset(("l_trivial",))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert TOOL_VERSION in capsys.readouterr().out


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    proc = subprocess.run([sys.executable, "-m", "regmaps", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{TOOL_VERSION}\n"


# -- one parser per process -------------------------------------------------

def test_the_parser_is_built_once_and_shared():
    assert cli.build_parser() is cli.build_parser()


def test_three_calls_build_one_parser_tree(corpus_file, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    f = corpus_file("s4_3map.grp")
    for argv in (["analyze", f], ["census", f, "--kind", "oriented"],
                 ["quotient", f, "--p", "3"]):
        assert _run(capsys, argv)[0] == 0
    # the top-level parser and one for each of the five subcommands
    assert len(built) == 6
    assert built[0] == "regmaps"


def test_a_refused_call_leaves_nothing_for_the_next(corpus_file, capsys):
    f = corpus_file("s4_3map.grp")
    cli.build_parser.cache_clear()
    first = _run(capsys, ["census", f, "--kind", "oriented", "--json"])
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", f])
    assert exc.value.code == 2
    assert "--kind" in capsys.readouterr().err
    assert _run(capsys, ["census", f, "--kind", "oriented", "--json"]) == first
    assert first[0] == 0


def test_an_option_of_one_call_does_not_carry_to_the_next(corpus_file,
                                                          capsys):
    f = corpus_file("s4_3map.grp")
    named = _run(capsys, ["analyze", f, "--map", "m"])
    assert named[0] == 0
    assert _run(capsys, ["analyze", f]) == named


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
