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
from functools import cached_property
from typing import Optional

from .errors import ContractViolation, TheoremViolation
from .group import (FiniteGroup, Subgroup, coset_action, is_primitive,
                    matches_table, quotient_group, regenerated, standardize)
from .perm import Perm

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
        return dict(vars(self), degenerate=list(self.degenerate))


class _Map:
    """What every map is: a group G and a defining tuple of element indices,
    named by `fields`, that generates G.

    The tuple's standardized table (:func:`regmaps.group.standard_table`) is
    kept as `key`.  Computing it shows that the tuple generates G, and two
    maps are isomorphic iff their keys are equal.  A caller that has just
    computed the table passes it as `key`, and it is not computed again.
    """

    kind: str
    fields: tuple
    spanning: str  # how a contract error names the tuple
    degenerate: frozenset = frozenset()

    def __init__(self, group: FiniteGroup, *gens: int,
                 key: Optional[tuple] = None):
        # every index is checked before _check, the kind's own contract,
        # forms the first product
        n = group.order
        for name, x in zip(self.fields, gens):
            if not 0 <= x < n:
                raise ContractViolation(
                    f"{name}={x} is not an element of a group of order {n}")
            setattr(self, name, x)
        self._check(group, *gens)
        key = key or standardize(group, gens)
        if key is None:
            raise ContractViolation(f"{self.spanning} do not generate the group")
        self.group = group
        self.generator_tuple = gens
        self.key = key

    def __repr__(self) -> str:
        entries = "".join(f", {name}={x}"
                          for name, x in zip(self.fields, self.generator_tuple))
        return f"{type(self).__name__}(|G|={self.group.order}{entries})"

    def vef_counts(self) -> tuple:
        n = self.group.order
        return (n // self.vertex_subgroup.order,
                n // self.edge_subgroup.order,
                n // self.face_subgroup.order)

    def euler_characteristic(self) -> int:
        v, e, f = self.vef_counts()
        return v - e + f

    @cached_property
    def vertex_primitive(self) -> bool:
        """True iff G acts primitively on the vertices (cosets of the vertex
        subgroup).  V fixes the coset V, point 0, and its action on the
        cosets is passed as that point's stabilizer."""
        G, V = self.group, self.vertex_subgroup
        perms, coset_of = coset_action(G, V)
        reps = dict(zip(coset_of, range(G.order))).values()  # one per coset
        stabilizer = [Perm._raw(tuple(coset_of[G.mul(r, v)] for r in reps))
                      for v in V.gens]
        return is_primitive(perms, G.order // V.order, stabilizer)

    def _report(self, orientable: Optional[bool],
                reflexible: bool) -> MapReport:
        """The report of a map that is orientable, nonorientable or, for
        `orientable` None, degenerate."""
        v, e, f = self.vef_counts()
        chi = v - e + f
        if orientable is None:
            genus_kind, genus = "degenerate", None
        elif orientable:
            if chi % 2 != 0 or chi > 2:
                raise TheoremViolation(
                    f"Euler characteristic {chi} is impossible for an"
                    " orientable map")
            genus_kind, genus = "orientable_genus", (2 - chi) // 2
        else:
            if chi > 1:
                raise TheoremViolation(
                    f"Euler characteristic {chi} is impossible for a"
                    " nonorientable map")
            genus_kind, genus = "crosscap_number", 2 - chi
        return MapReport(
            group_order=self.group.order, vertices=v, edges=e, faces=f,
            euler=chi, orientable=orientable, genus_kind=genus_kind,
            genus=genus, simple_graph=self.is_simple(), reflexible=reflexible,
            valency=self.valency(), degenerate=tuple(sorted(self.degenerate)))


class OrientedMap(_Map):
    """M(G; r, l) with G acting regularly on darts by right multiplication."""

    kind = "oriented"
    fields = ("r", "l")
    spanning = "rotation and reversal"

    @staticmethod
    def _check(G: FiniteGroup, r: int, l: int) -> None:
        if r == 0:
            raise ContractViolation("rotation must not be the identity")
        if l == 0 or G.mul(l, l) != 0:
            raise ContractViolation("edge reversal must be an involution")

    @cached_property
    def vertex_subgroup(self) -> Subgroup:
        return self.group.subgroup((self.r,))

    @cached_property
    def edge_subgroup(self) -> Subgroup:
        return self.group.subgroup((self.l,))

    @cached_property
    def face_subgroup(self) -> Subgroup:
        return self.group.subgroup((self.group.mul(self.r, self.l),))

    def valency(self) -> int:
        return self.group.order_of(self.r)

    def is_simple(self) -> bool:
        """No loops or parallel edges: <r> meets its conjugate by l in 1
        alone.  A loop, l in <r>, fails this too: then the two are equal,
        and r != 1."""
        V = self.vertex_subgroup.members
        G = self.group
        conj = frozenset(G.conj(m, self.l) for m in V)
        return V & conj == frozenset((0,))

    @cached_property
    def reflexible(self) -> bool:
        """True when the map is isomorphic to its mirror image (r^-1, l),
        i.e. when some automorphism inverts r while fixing l.

        The key lists, for each element in its standardized order, the
        labels of its products with r and with l.  Inverting r's column
        gives the products with r^-1, so one walk over that column and l's
        column yields the mirror's key without touching G.
        """
        key = self.key
        r_col, l_col = key[0::2], key[1::2]
        r_inv = [0] * len(r_col)
        for x, y in enumerate(r_col):
            r_inv[y] = x
        return matches_table((r_inv, l_col), len(r_col), key)

    def mirror(self) -> "OrientedMap":
        return OrientedMap(self.group, self.group.inv(self.r), self.l)

    def report(self) -> MapReport:
        return self._report(True, self.reflexible)


class FlaggedMap(_Map):
    """M(G; t, r, l) with G acting regularly on flags."""

    kind = "flagged"
    fields = ("t", "r", "l")
    spanning = "t, r, l"

    @staticmethod
    def _check(G: FiniteGroup, t: int, r: int, l: int) -> None:
        if t == 0 or G.mul(t, t) != 0:
            raise ContractViolation("t must be an involution")
        if r == 0 or G.mul(r, r) != 0:
            raise ContractViolation("r must be an involution")
        if G.mul(l, l) != 0:
            raise ContractViolation("l must square to the identity")
        if G.mul(t, l) != G.mul(l, t):
            raise ContractViolation("t and l must commute")

    @property
    def degenerate(self) -> frozenset:
        if self.l == 0:
            return frozenset((DEGENERATE_L_TRIVIAL,))
        if self.l == self.t:
            return frozenset((DEGENERATE_L_EQUALS_T,))
        return frozenset()

    @cached_property
    def vertex_subgroup(self) -> Subgroup:
        return self.group.subgroup((self.t, self.r))

    @cached_property
    def edge_subgroup(self) -> Subgroup:
        return self.group.subgroup((self.t, self.l))

    @cached_property
    def face_subgroup(self) -> Subgroup:
        return self.group.subgroup((self.r, self.l))

    @cached_property
    def even_subgroup(self) -> Subgroup:
        """Words of even length in the reflections; index 1 or 2."""
        G = self.group
        return G.subgroup((G.mul(self.t, self.r), G.mul(self.r, self.l)))

    def valency(self) -> int:
        return self.vertex_subgroup.order // 2

    def is_orientable(self) -> bool:
        # E = <tr, rl> holds every even word, as tl = tr*rl, so G = E u tE
        return self.even_subgroup.order < self.group.order

    def is_simple(self) -> bool:
        V = self.vertex_subgroup.members
        G = self.group
        conj = frozenset(G.conj(m, self.l) for m in V)
        return V & conj == frozenset((0, self.t))

    def report(self) -> MapReport:
        return self._report(
            None if self.degenerate else self.is_orientable(), True)


MAP_TYPES = {cls.kind: cls for cls in (OrientedMap, FlaggedMap)}


def maps_isomorphic(m1, m2) -> bool:
    """Isomorphism of maps = group isomorphism carrying one defining tuple
    to the other.  Because the tuples generate, such an isomorphism exists
    iff their standardized tables agree, so this compares the maps' keys."""
    return m1.kind == m2.kind and m1.key == m2.key


def quotient_map(m, normal_sub: Subgroup):
    """The induced map on G/N.

    Oriented maps require r and l to survive; flagged maps require t
    and r to survive, while a collapsing l only marks the result degenerate.
    """
    Q, proj = quotient_group(m.group, normal_sub)
    images = [proj[x] for x in m.generator_tuple]
    if m.kind == "oriented" and 0 in images:
        what = "edge reversal" if images[1] == 0 else "rotation"
        raise ContractViolation(f"{what} collapses in the quotient")
    if m.kind == "flagged" and 0 in images[:2]:
        raise ContractViolation("a flag reflection collapses in the quotient")
    return type(m)(Q, *images)


def oriented_of_flagged(m: FlaggedMap) -> OrientedMap:
    """The oriented map carried by the even-word subgroup of an orientable
    flagged map: rotation t*r, reversal t*l."""
    if m.degenerate:
        raise ContractViolation("degenerate maps have no oriented form")
    if not m.is_orientable():
        raise ContractViolation("map is not orientable")
    G = m.group
    # <tr, tl> = <tr, rl>, whose index is_orientable has just found to be 2
    plus = regenerated(G, (G.mul(m.t, m.r), G.mul(m.t, m.l)))
    r_idx, l_idx = plus.gen_indices
    return OrientedMap(plus, r_idx, l_idx)
