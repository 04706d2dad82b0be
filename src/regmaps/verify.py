"""Golden regression suite over the bundled corpus.

Every corpus file has a checker holding its pinned values (orders, V/E/F,
genus, classification, Sylow structure).  ``verify_corpus`` runs them all
and reports one row per check; the CLI turns a failing row into exit 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .classify import certify_sylow_structure, classify
from .coset_enum import DEFAULT_MAX_COSETS
from .errors import RegmapsError
from .grammar import parse_group_file, realize_group_file
from .group import isomorphism_search, o_p, regenerated
from .maps import quotient_map
from .standard import alternating_group, quaternion_group, symmetric_group


@dataclass(frozen=True)
class CheckRow:
    example: str
    check: str
    ok: bool
    detail: str


class _Recorder:
    def __init__(self, example: str):
        self.example = example
        self.rows: list = []

    def eq(self, check: str, got, want):
        self.rows.append(CheckRow(self.example, check, got == want,
                                  f"got {got!r}, want {want!r}"))

    def true(self, check: str, got):
        self.eq(check, bool(got), True)


def corpus_names() -> list:
    return sorted(p.name for p in resources.files("regmaps.corpus").iterdir()
                  if p.name.endswith(".grp"))


def corpus_text(name: str, directory: Optional[str] = None) -> str:
    if directory is not None:
        return (Path(directory) / name).read_text(encoding="utf-8")
    return (resources.files("regmaps.corpus") / name).read_text(
        encoding="utf-8")


def _exceptional_label(cl) -> Optional[str]:
    return cl.exceptional_case.label() if cl.exceptional_case else None


def _chk_s4_3map(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 24)
    m = rz.maps["m"]
    rec.eq("vef", m.vef_counts(), (3, 6, 4))
    rep = m.report()
    rec.eq("orientable", rep.orientable, False)
    rec.eq("crosscap", (rep.genus_kind, rep.genus), ("crosscap_number", 1))
    cl = classify(m)
    rec.eq("p_k", (cl.p, cl.k), (3, 1))
    rec.true("solvable", cl.solvable)
    rec.eq("normal", cl.normal, False)
    rec.eq("exceptional", _exceptional_label(cl), "C(3,2)")
    rec.eq("quotient_order", cl.quotient_order, 24)
    rec.eq("status", cl.orientation_status, "nonorientable")


def _chk_g72_3map(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 72)
    m = rz.maps["m"]
    rec.eq("vef", m.vef_counts(), (9, 18, 4))
    rep = m.report()
    rec.eq("orientable", rep.orientable, False)
    rec.eq("crosscap", (rep.genus_kind, rep.genus), ("crosscap_number", 7))
    core = o_p(G, 3)
    rec.eq("o3_order", core.order, 3)
    qm = quotient_map(m, core)
    rec.eq("quotient_vertices", qm.vef_counts()[0], 3)
    cl = classify(m)
    rec.eq("normal", cl.normal, False)
    rec.eq("exceptional", _exceptional_label(cl), "C(3,2)")
    rec.eq("quotient_order", cl.quotient_order, 24)
    rec.true("quotient_is_s4",
             isomorphism_search(qm.group, symmetric_group(4)))


def _chk_g384_chiral(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 384)
    m = rz.maps["m"]
    rec.eq("r_order", G.order_of(m.r), 6)
    rec.eq("rl_order", G.order_of(G.mul(m.r, m.l)), 4)
    rec.eq("vef", m.vef_counts(), (64, 192, 96))
    rep = m.report()
    rec.eq("genus", (rep.genus_kind, rep.genus), ("orientable_genus", 17))
    rec.eq("chiral", rep.reflexible, False)
    cl = classify(m)
    rec.eq("p_k", (cl.p, cl.k), (2, 6))
    rec.eq("normal", cl.normal, False)
    rec.eq("exceptional", _exceptional_label(cl), "D(3,2)")
    rec.eq("quotient_order", cl.quotient_order, 6)
    rec.eq("status", cl.orientation_status, "chiral")


def _chk_gl23_reflexible(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 48)
    m = rz.maps["m"]
    rec.eq("r_order", G.order_of(m.r), 6)
    rec.eq("rl_order", G.order_of(G.mul(m.r, m.l)), 8)
    rec.eq("vef", m.vef_counts(), (8, 24, 6))
    rep = m.report()
    rec.eq("euler", rep.euler, -10)
    rec.eq("reflexible", rep.reflexible, True)
    core = o_p(G, 2)
    rec.true("o2_is_quaternion",
             isomorphism_search(regenerated(G, core.gens), quaternion_group()))
    cl = classify(m)
    rec.eq("normal", cl.normal, False)
    rec.eq("exceptional", _exceptional_label(cl), "D(3,2)")
    rec.eq("quotient_order", cl.quotient_order, 6)


def _chk_s4_projective(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 24)
    m = rz.maps["m"]
    rec.eq("vef", m.vef_counts(), (4, 6, 3))
    rep = m.report()
    rec.eq("orientable", rep.orientable, False)
    rec.eq("crosscap", (rep.genus_kind, rep.genus), ("crosscap_number", 1))
    core = o_p(G, 2)
    rec.eq("o2_order", core.order, 4)
    qm = quotient_map(m, core)
    rec.eq("quotient_degenerate", qm.degenerate, frozenset(("l_trivial",)))
    cl = classify(m)
    rec.eq("normal", cl.normal, False)
    rec.eq("exceptional", _exceptional_label(cl), "DM(6)")
    rec.eq("quotient_order", cl.quotient_order, 6)
    rec.eq("status", cl.orientation_status, "nonorientable")


def _chk_s4_sphere(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 24)
    m = rz.maps["m"]
    rec.eq("vef", m.vef_counts(), (4, 6, 4))
    rep = m.report()
    rec.eq("orientable", rep.orientable, True)
    rec.eq("genus", (rep.genus_kind, rep.genus), ("orientable_genus", 0))
    even = m.even_subgroup
    rec.eq("even_index", G.order // even.order, 2)
    rec.true("even_is_a4",
             isomorphism_search(regenerated(G, even.gens),
                                alternating_group(4)))
    cl = classify(m)
    rec.eq("normal", cl.normal, False)
    rec.eq("exceptional", _exceptional_label(cl), "EM(6)")
    rec.eq("quotient_order", cl.quotient_order, 6)
    rec.eq("status", cl.orientation_status, "orientable_normal")


def _chk_g2106_chiral(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 2106)
    m = rz.maps["m"]
    rec.eq("r_order", G.order_of(m.r), 78)
    rec.eq("vertices", m.vef_counts()[0], 27)
    rec.eq("chiral", m.reflexible, False)
    cl = classify(m)
    rec.eq("p_k", (cl.p, cl.k), (3, 3))
    rec.eq("normal", cl.normal, True)
    rec.eq("status", cl.orientation_status, "chiral")
    rec.true("primitive", m.vertex_primitive)
    st = certify_sylow_structure(m)
    rec.eq("sylow_case", st.case_tag, "direct_product_elementary")
    rec.eq("complement_rank", st.complement_rank, 3)


def _chk_g216_orientable(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 216)
    m = rz.maps["m"]
    rec.eq("vertices", m.vef_counts()[0], 9)
    rec.eq("even_index", G.order // m.even_subgroup.order, 2)
    cl = classify(m)
    rec.eq("p_k", (cl.p, cl.k), (3, 2))
    rec.eq("normal", cl.normal, True)
    rec.eq("status", cl.orientation_status, "orientable_normal")
    rec.true("primitive", m.vertex_primitive)
    st = certify_sylow_structure(m)
    rec.eq("sylow_case", st.case_tag, "direct_product_elementary")
    rec.eq("complement_rank", st.complement_rank, 2)


def _chk_g216_nonorientable(rec: _Recorder, rz) -> None:
    G = rz.group
    rec.eq("group_order", G.order, 216)
    m = rz.maps["m"]
    rec.eq("vertices", m.vef_counts()[0], 9)
    rec.eq("orientable", m.is_orientable(), False)
    cl = classify(m)
    rec.eq("p_k", (cl.p, cl.k), (3, 2))
    rec.eq("normal", cl.normal, True)
    rec.eq("status", cl.orientation_status, "nonorientable")
    rec.true("primitive", m.vertex_primitive)
    st = certify_sylow_structure(m)
    rec.eq("sylow_case", st.case_tag, "central_product_extraspecial")
    rec.eq("extraspecial_order", st.extraspecial_order, 27)


def _chk_s4_presentation(rec: _Recorder, rz) -> None:
    rec.eq("group_order", rz.group.order, 24)


REGISTRY = {
    "s4_3map.grp": _chk_s4_3map,
    "g72_3map.grp": _chk_g72_3map,
    "g384_chiral.grp": _chk_g384_chiral,
    "gl23_reflexible.grp": _chk_gl23_reflexible,
    "s4_projective.grp": _chk_s4_projective,
    "s4_sphere.grp": _chk_s4_sphere,
    "g2106_chiral.grp": _chk_g2106_chiral,
    "g216_orientable.grp": _chk_g216_orientable,
    "g216_nonorientable.grp": _chk_g216_nonorientable,
    "s4_presentation.grp": _chk_s4_presentation,
}


def verify_corpus(directory: Optional[str] = None,
                  max_cosets: int = DEFAULT_MAX_COSETS) -> list:
    """Run every registered checker; returns all check rows."""
    rows: list = []
    for name, checker in REGISTRY.items():
        rec = _Recorder(name)
        try:
            gf = parse_group_file(corpus_text(name, directory))
            rz = realize_group_file(gf, max_cosets=max_cosets)
            checker(rec, rz)
        except RegmapsError as exc:
            rec.rows.append(CheckRow(name, "realization", False, str(exc)))
        rows.extend(rec.rows)
    return rows


def all_passed(rows: list) -> bool:
    return all(r.ok for r in rows)
