"""Golden regression suite over the bundled corpus.

``REGISTRY`` holds, per corpus file, its ordered pinned values: pairs of a
check name and the value it must take (orders, V/E/F, genus,
classification, Sylow structure).  ``PROPERTIES`` computes each check name
in one place, on a :class:`_Subject` that computes the file's report,
classification and Sylow certificate once each.  ``verify_corpus`` reports
one row per pair; the CLI turns a failing row into exit 1.  Pinning a new
corpus file is one ``REGISTRY`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Optional

from .classify import certify_sylow_structure, classify
from .coset_enum import DEFAULT_MAX_COSETS
from .errors import ContractViolation, RegmapsError
from .grammar import parse_group_file, read_group_text, realize_group_file
from .group import isomorphism_search, o_p, regenerated
from .maps import quotient_map
from .standard import alternating_group, quaternion_group, symmetric_group


@dataclass(frozen=True)
class CheckRow:
    example: str
    check: str
    ok: bool
    detail: str


def corpus_names() -> list:
    return sorted(p.name for p in resources.files("regmaps.corpus").iterdir()
                  if p.name.endswith(".grp"))


def corpus_text(name: str, directory: Optional[str] = None) -> str:
    if directory is not None:
        return read_group_text(Path(directory) / name)
    return (resources.files("regmaps.corpus") / name).read_text(
        encoding="utf-8")


class _Subject:
    """A realized corpus file and its map ``m``; each costly result is
    computed on first use and kept."""

    def __init__(self, rz):
        self.group, self.maps = rz.group, rz.maps

    @cached_property
    def map(self):
        if "m" not in self.maps:
            raise ContractViolation("the file declares no map named 'm'")
        return self.maps["m"]

    @cached_property
    def report(self):
        return self.map.report()

    @cached_property
    def cl(self):
        return classify(self.map)

    @cached_property
    def sylow(self):
        return certify_sylow_structure(self.map)

    @cached_property
    def quotient(self):
        """The map's quotient by the p-core of its own prime p."""
        return quotient_map(self.map, o_p(self.group, self.cl.p))


def _iso(G, sub, reference) -> bool:
    return isomorphism_search(regenerated(G, sub.gens), reference)


PROPERTIES = {
    "group_order": lambda s: s.group.order,
    "r_order": lambda s: s.group.order_of(s.map.r),
    "rl_order": lambda s: s.group.order_of(s.group.mul(s.map.r, s.map.l)),
    "vef": lambda s: (s.report.vertices, s.report.edges, s.report.faces),
    "vertices": lambda s: s.report.vertices,
    "euler": lambda s: s.report.euler,
    "orientable": lambda s: s.report.orientable,
    "genus": lambda s: (s.report.genus_kind, s.report.genus),
    "reflexible": lambda s: s.report.reflexible,
    "even_index": lambda s: s.group.order // s.map.even_subgroup.order,
    "even_is_a4": lambda s: _iso(s.group, s.map.even_subgroup,
                                 alternating_group(4)),
    "o2_order": lambda s: o_p(s.group, 2).order,
    "o3_order": lambda s: o_p(s.group, 3).order,
    "o2_is_quaternion": lambda s: _iso(s.group, o_p(s.group, 2),
                                       quaternion_group()),
    "p_k": lambda s: (s.cl.p, s.cl.k),
    "solvable": lambda s: s.cl.solvable,
    "normal": lambda s: s.cl.normal,
    "status": lambda s: s.cl.orientation_status,
    "exceptional": lambda s: (s.cl.exceptional_case.label()
                              if s.cl.exceptional_case else None),
    "quotient_order": lambda s: s.cl.quotient_order,
    "quotient_vertices": lambda s: s.quotient.vef_counts()[0],
    "quotient_degenerate": lambda s: s.quotient.degenerate,
    "quotient_is_s4": lambda s: isomorphism_search(s.quotient.group,
                                                   symmetric_group(4)),
    "primitive": lambda s: s.map.vertex_primitive,
    "sylow_case": lambda s: s.sylow.case_tag,
    "complement_rank": lambda s: s.sylow.complement_rank,
    "extraspecial_order": lambda s: s.sylow.extraspecial_order,
}
# names under which a file pins the same property
PROPERTIES["crosscap"] = PROPERTIES["genus"]
PROPERTIES["chiral"] = PROPERTIES["reflexible"]


REGISTRY = {
    "s4_3map.grp": (("group_order", 24), ("vef", (3, 6, 4)),
        ("orientable", False), ("crosscap", ("crosscap_number", 1)),
        ("p_k", (3, 1)), ("solvable", True), ("normal", False),
        ("exceptional", "C(3,2)"), ("quotient_order", 24),
        ("status", "nonorientable")),
    "g72_3map.grp": (("group_order", 72), ("vef", (9, 18, 4)),
        ("orientable", False), ("crosscap", ("crosscap_number", 7)),
        ("o3_order", 3), ("quotient_vertices", 3), ("normal", False),
        ("exceptional", "C(3,2)"), ("quotient_order", 24),
        ("quotient_is_s4", True)),
    "g384_chiral.grp": (("group_order", 384), ("r_order", 6), ("rl_order", 4),
        ("vef", (64, 192, 96)), ("genus", ("orientable_genus", 17)),
        ("chiral", False), ("p_k", (2, 6)), ("normal", False),
        ("exceptional", "D(3,2)"), ("quotient_order", 6),
        ("status", "chiral")),
    "gl23_reflexible.grp": (("group_order", 48), ("r_order", 6),
        ("rl_order", 8), ("vef", (8, 24, 6)), ("euler", -10),
        ("reflexible", True), ("o2_is_quaternion", True), ("normal", False),
        ("exceptional", "D(3,2)"), ("quotient_order", 6)),
    "s4_projective.grp": (("group_order", 24), ("vef", (4, 6, 3)),
        ("orientable", False), ("crosscap", ("crosscap_number", 1)),
        ("o2_order", 4), ("quotient_degenerate", frozenset(("l_trivial",))),
        ("normal", False), ("exceptional", "DM(6)"), ("quotient_order", 6),
        ("status", "nonorientable")),
    "s4_sphere.grp": (("group_order", 24), ("vef", (4, 6, 4)),
        ("orientable", True), ("genus", ("orientable_genus", 0)),
        ("even_index", 2), ("even_is_a4", True), ("normal", False),
        ("exceptional", "EM(6)"), ("quotient_order", 6),
        ("status", "orientable_normal")),
    "g2106_chiral.grp": (("group_order", 2106), ("r_order", 78),
        ("vertices", 27), ("chiral", False), ("p_k", (3, 3)), ("normal", True),
        ("status", "chiral"), ("primitive", True),
        ("sylow_case", "direct_product_elementary"), ("complement_rank", 3)),
    "g216_orientable.grp": (("group_order", 216), ("vertices", 9),
        ("even_index", 2), ("p_k", (3, 2)), ("normal", True),
        ("status", "orientable_normal"), ("primitive", True),
        ("sylow_case", "direct_product_elementary"), ("complement_rank", 2)),
    "g216_nonorientable.grp": (("group_order", 216), ("vertices", 9),
        ("orientable", False), ("p_k", (3, 2)), ("normal", True),
        ("status", "nonorientable"), ("primitive", True),
        ("sylow_case", "central_product_extraspecial"),
        ("extraspecial_order", 27)),
    "s4_presentation.grp": (("group_order", 24),),
}


def verify_corpus(directory: Optional[str] = None,
                  max_cosets: int = DEFAULT_MAX_COSETS) -> list:
    """Evaluate every pinned value; returns one check row per pair, and a
    failing ``realization`` row where a file stops with a package error."""
    rows: list = []
    for name, pins in REGISTRY.items():
        try:
            s = _Subject(realize_group_file(
                parse_group_file(corpus_text(name, directory)),
                max_cosets=max_cosets))
            for check, want in pins:
                got = PROPERTIES[check](s)
                rows.append(CheckRow(name, check, got == want,
                                     f"got {got!r}, want {want!r}"))
        except RegmapsError as exc:
            rows.append(CheckRow(name, "realization", False, str(exc)))
    return rows


def all_passed(rows: list) -> bool:
    return all(r.ok for r in rows)
