"""Maps on surfaces presented algebraically.

An oriented map is a pair (r, l) of elements of a finite group G with l an
involution and <r, l> = G: darts are the group elements, r rotates the darts
around a vertex, l swaps the two darts of an edge.  Vertices, edges and
faces are the right cosets of <r>, <l> and <r*l>.

A flagged map is a triple (t, r, l) of involutions with t*l = l*t and
<t, r, l> = G: flags are the group elements and the three reflections glue
them into vertices <t, r>, edges <t, l> and faces <r, l>.  Quotients of
flagged maps may collapse l to the identity or onto t; such maps are kept
but tagged as degenerate, since they no longer describe a closed surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ContractViolation, TheoremViolation
from .group import (FiniteGroup, Subgroup, automorphism_exists, coset_action,
                    is_primitive, quotient_group, regenerated, standardize)

DEGENERATE_L_TRIVIAL = "l_trivial"
DEGENERATE_L_EQUALS_T = "l_equals_t"


@dataclass(frozen=True)
class MapReport:
    """Topological summary of a map, ready for serialization."""

    group_order: int
    vertices: int
    edges: int
    faces: int
    euler: int
    orientable: Optional[bool]
    genus_kind: str  # "orientable_genus" | "crosscap_number" | "degenerate"
    genus: Optional[int]
    simple_graph: bool
    reflexible: bool
    valency: int
    degenerate: tuple

    def to_dict(self) -> dict:
        return {
            "group_order": self.group_order,
            "vertices": self.vertices,
            "edges": self.edges,
            "faces": self.faces,
            "euler": self.euler,
            "orientable": self.orientable,
            "genus_kind": self.genus_kind,
            "genus": self.genus,
            "simple_graph": self.simple_graph,
            "reflexible": self.reflexible,
            "valency": self.valency,
            "degenerate": list(self.degenerate),
        }


class OrientedMap:
    """M(G; r, l) with G acting regularly on darts by right multiplication."""

    kind = "oriented"

    def __init__(self, group: FiniteGroup, r: int, l: int):
        if r == 0:
            raise ContractViolation("rotation must not be the identity")
        if l == 0 or group.mul(l, l) != 0:
            raise ContractViolation("edge reversal must be an involution")
        if not group.subgroup((r, l)).is_improper():
            raise ContractViolation(
                "rotation and reversal do not generate the group")
        self.group = group
        self.r = r
        self.l = l
        self.generator_tuple = (r, l)
        self._cache: dict = {}
        self.degenerate: frozenset = frozenset()

    def __repr__(self) -> str:
        return f"OrientedMap(|G|={self.group.order}, r={self.r}, l={self.l})"

    def _sub(self, key: str, gens: tuple) -> Subgroup:
        if key not in self._cache:
            self._cache[key] = self.group.subgroup(gens)
        return self._cache[key]

    @property
    def vertex_subgroup(self) -> Subgroup:
        return self._sub("v", (self.r,))

    @property
    def edge_subgroup(self) -> Subgroup:
        return self._sub("e", (self.l,))

    @property
    def face_subgroup(self) -> Subgroup:
        return self._sub("f", (self.group.mul(self.r, self.l),))

    def vef_counts(self) -> tuple:
        n = self.group.order
        return (n // self.vertex_subgroup.order,
                n // self.edge_subgroup.order,
                n // self.face_subgroup.order)

    def euler_characteristic(self) -> int:
        v, e, f = self.vef_counts()
        return v - e + f

    def valency(self) -> int:
        return self.group.order_of(self.r)

    def is_simple(self) -> bool:
        """No loops or parallel edges: l lies outside <r> and distinct
        vertices share at most one edge."""
        V = self.vertex_subgroup.members
        if self.l in V:
            return False
        G = self.group
        conj = frozenset(G.conj(m, self.l) for m in V)
        return V & conj == frozenset((0,))

    def is_reflexible(self) -> bool:
        """True when some automorphism inverts r while fixing l, i.e. the
        map is isomorphic to its mirror image."""
        return automorphism_exists(self.group, (self.r, self.l),
                                   (self.group.inv(self.r), self.l))

    def mirror(self) -> "OrientedMap":
        return OrientedMap(self.group, self.group.inv(self.r), self.l)

    def report(self) -> MapReport:
        v, e, f = self.vef_counts()
        chi = v - e + f
        if chi % 2 != 0 or chi > 2:
            raise TheoremViolation(
                f"Euler characteristic {chi} is impossible for an oriented map")
        return MapReport(
            group_order=self.group.order, vertices=v, edges=e, faces=f,
            euler=chi, orientable=True, genus_kind="orientable_genus",
            genus=(2 - chi) // 2, simple_graph=self.is_simple(),
            reflexible=self.is_reflexible(), valency=self.valency(),
            degenerate=())


class FlaggedMap:
    """M(G; t, r, l) with G acting regularly on flags."""

    kind = "flagged"

    def __init__(self, group: FiniteGroup, t: int, r: int, l: int):
        if t == 0 or group.mul(t, t) != 0:
            raise ContractViolation("t must be an involution")
        if r == 0 or group.mul(r, r) != 0:
            raise ContractViolation("r must be an involution")
        if group.mul(l, l) != 0:
            raise ContractViolation("l must square to the identity")
        if group.mul(t, l) != group.mul(l, t):
            raise ContractViolation("t and l must commute")
        if not group.subgroup((t, r, l)).is_improper():
            raise ContractViolation("t, r, l do not generate the group")
        self.group = group
        self.t = t
        self.r = r
        self.l = l
        self.generator_tuple = (t, r, l)
        tags = []
        if l == 0:
            tags.append(DEGENERATE_L_TRIVIAL)
        elif l == t:
            tags.append(DEGENERATE_L_EQUALS_T)
        self.degenerate = frozenset(tags)
        self._cache: dict = {}

    def __repr__(self) -> str:
        return (f"FlaggedMap(|G|={self.group.order}, t={self.t}, r={self.r},"
                f" l={self.l})")

    def _sub(self, key: str, gens: tuple) -> Subgroup:
        if key not in self._cache:
            self._cache[key] = self.group.subgroup(gens)
        return self._cache[key]

    @property
    def vertex_subgroup(self) -> Subgroup:
        return self._sub("v", (self.t, self.r))

    @property
    def edge_subgroup(self) -> Subgroup:
        return self._sub("e", (self.t, self.l))

    @property
    def face_subgroup(self) -> Subgroup:
        return self._sub("f", (self.r, self.l))

    @property
    def even_subgroup(self) -> Subgroup:
        """Words of even length in the reflections; index 1 or 2."""
        G = self.group
        return self._sub("even", (G.mul(self.t, self.r),
                                  G.mul(self.r, self.l)))

    def vef_counts(self) -> tuple:
        n = self.group.order
        return (n // self.vertex_subgroup.order,
                n // self.edge_subgroup.order,
                n // self.face_subgroup.order)

    def euler_characteristic(self) -> int:
        v, e, f = self.vef_counts()
        return v - e + f

    def valency(self) -> int:
        return self.vertex_subgroup.order // 2

    def is_orientable(self) -> bool:
        index = self.group.order // self.even_subgroup.order
        if index not in (1, 2):
            raise TheoremViolation(
                f"even-word subgroup has index {index}, expected 1 or 2")
        return index == 2

    def is_simple(self) -> bool:
        V = self.vertex_subgroup.members
        G = self.group
        conj = frozenset(G.conj(m, self.l) for m in V)
        return V & conj == frozenset((0, self.t))

    def report(self) -> MapReport:
        v, e, f = self.vef_counts()
        chi = v - e + f
        if self.degenerate:
            orientable: Optional[bool] = None
            genus_kind, genus = "degenerate", None
        elif self.is_orientable():
            if chi % 2 != 0 or chi > 2:
                raise TheoremViolation(
                    f"Euler characteristic {chi} is impossible for an"
                    " orientable map")
            orientable, genus_kind, genus = True, "orientable_genus", (2 - chi) // 2
        else:
            if chi > 1:
                raise TheoremViolation(
                    f"Euler characteristic {chi} is impossible for a"
                    " nonorientable map")
            orientable, genus_kind, genus = False, "crosscap_number", 2 - chi
        return MapReport(
            group_order=self.group.order, vertices=v, edges=e, faces=f,
            euler=chi, orientable=orientable, genus_kind=genus_kind,
            genus=genus, simple_graph=self.is_simple(), reflexible=True,
            valency=self.valency(), degenerate=tuple(sorted(self.degenerate)))


def maps_isomorphic(m1, m2) -> bool:
    """Isomorphism of maps = group isomorphism carrying one defining tuple
    to the other.  Because the tuples generate, such an isomorphism exists
    iff their standardized tables agree, so no search is needed."""
    if m1.kind != m2.kind or m1.degenerate != m2.degenerate:
        return False
    if m1.group.order != m2.group.order:
        return False
    return (standardize(m1.group, m1.generator_tuple)
            == standardize(m2.group, m2.generator_tuple))


def vertex_primitive(m) -> bool:
    """True iff G acts primitively on the vertices (cosets of the vertex
    subgroup)."""
    perms, _ = coset_action(m.group, m.vertex_subgroup)
    return is_primitive(perms, m.group.order // m.vertex_subgroup.order)


def quotient_map(m, normal_sub: Subgroup):
    """The induced map on G/N.

    Oriented maps require the reversal to survive; flagged maps require t
    and r to survive, while a collapsing l only marks the result degenerate.
    """
    Q, proj = quotient_group(m.group, normal_sub)
    if m.kind == "oriented":
        rq, lq = proj[m.r], proj[m.l]
        if lq == 0:
            raise ContractViolation("edge reversal collapses in the quotient")
        return OrientedMap(Q, rq, lq)
    tq, rq, lq = proj[m.t], proj[m.r], proj[m.l]
    if tq == 0 or rq == 0:
        raise ContractViolation("a flag reflection collapses in the quotient")
    return FlaggedMap(Q, tq, rq, lq)


def oriented_of_flagged(m: FlaggedMap) -> OrientedMap:
    """The oriented map carried by the even-word subgroup of an orientable
    flagged map: rotation t*r, reversal t*l."""
    if m.degenerate:
        raise ContractViolation("degenerate maps have no oriented form")
    if not m.is_orientable():
        raise ContractViolation("map is not orientable")
    G = m.group
    plus = regenerated(G, (G.mul(m.t, m.r), G.mul(m.t, m.l)))
    if plus.order * 2 != G.order:
        raise TheoremViolation("even-word subgroup has the wrong order")
    r_idx, l_idx = plus.gen_indices
    return OrientedMap(plus, r_idx, l_idx)
