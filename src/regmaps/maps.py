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

The subgroups a report or a classification reads are walked, not grown:
their members are the elements reached from 1 by right multiplication by
the generators, read off the rows of the map's entries, which computing
the key has built (:func:`_walk`).  The face generator r*l of an oriented
map is one step through both rows.  The members and gens are those
``G.subgroup`` gives, with no product formed per member.

A flagged map's even-word subgroup E = <tr, rl> holds every word of even
length in t, r and l, as tl = tr*rl, so G = E u tE and E has index 1 or
2.  It has index 2 iff 1 is no word of odd length, that is, iff the
Cayley graph on t, r and l is bipartite; then E is the side of 1.  One
walk that 2-colours the graph, stopping at the first edge inside a side,
decides orientability and lists E (:func:`_even_words`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import ContractViolation, TheoremViolation
from .group import (FiniteGroup, Subgroup, _orbits, is_primitive,
                    matches_table, quotient_group, regenerated, standardize)
from .perm import Perm

DEGENERATE_L_TRIVIAL = "l_trivial"
DEGENERATE_L_EQUALS_T = "l_equals_t"


def _walk(x: int, *words: Sequence[list]) -> frozenset:
    """The coset x<w, ...>: the elements reached from x by multiplying on
    the right by the words, each given as the rows of its letters in turn.
    For x = 1 it is the subgroup the words generate, as G is finite."""
    met, todo = {x}, [x]
    for y in todo:
        for word in words:
            z = y
            for row in word:
                z = row[z]
            if z not in met:
                met.add(z)
                todo.append(z)
    return frozenset(met)


def _even_words(rows: Sequence[list], n: int) -> Optional[list]:
    """The side of 1 in a 2-colouring of the graph with edges x -- x*g, for
    the involutions g whose rows are given and which generate the group of
    order n, or None if an edge joins two elements of one side.  Every
    edge is met from both ends, so a walk that meets no such edge has
    coloured the graph."""
    side = [-1] * n
    side[0] = 0
    todo = [0]
    for x in todo:
        s = 1 - side[x]
        for row in rows:
            y = row[x]
            if side[y] < 0:
                side[y] = s
                todo.append(y)
            elif side[y] != s:
                return None
    return [x for x in todo if not side[x]]


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

    def _subgroup(self, *words: tuple) -> Subgroup:
        """``G.subgroup`` of the products of `words`, tuples of one or two
        entries, walked over the entries' rows (see the module docstring)."""
        G = self.group
        members = _walk(0, *([G.row(x) for x in w] for w in words))
        gens = tuple(w[0] if len(w) == 1 else G.mul(*w) for w in words)
        return Subgroup(G, members, gens)

    def _vertex_meets_conjugate(self) -> frozenset:
        """V meet V^l, V the vertex subgroup.  l is an involution, so V^l
        is l*V*l: the coset lV, walked from l over the rows of V's
        generators, times l."""
        G, V = self.group, self.vertex_subgroup
        coset = _walk(self.l, *((G.row(g),) for g in V.gens))
        return V.members.intersection(map(G.row(self.l).__getitem__, coset))

    def vef_counts(self) -> tuple:
        n = self.group.order
        return (n // self.vertex_subgroup.order,
                n // self.edge_subgroup.order,
                n // self.face_subgroup.order)

    @cached_property
    def vertex_primitive(self) -> bool:
        """True iff G acts primitively on the vertices (right cosets Vx of
        the vertex subgroup V).  x -> x^-1 sends Vx to the left coset
        x^-1 V and Vxg to g^-1 x^-1 V, so it carries G's action on right
        cosets to its action on left cosets by left multiplication, and
        either is primitive iff the other is.  The left cosets are the
        orbits of right multiplication by V's generators, whose rows the
        key has built; G's generators, and V's as the stabilizer of the
        coset V, point 0, act on one member of each by left
        multiplication."""
        G, V = self.group, self.vertex_subgroup
        coset_of = _orbits(G.order, [G.row(v) for v in V.gens])
        reps = dict(zip(coset_of, range(G.order))).values()  # one per coset

        def left(gens):
            return [Perm._raw(tuple(coset_of[G.mul(g, r)] for r in reps))
                    for g in gens]
        return is_primitive(left(G.gen_indices), len(reps), left(V.gens))

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
        return self._subgroup((self.r,))

    @cached_property
    def edge_subgroup(self) -> Subgroup:
        return self._subgroup((self.l,))

    @cached_property
    def face_subgroup(self) -> Subgroup:
        return self._subgroup((self.r, self.l))

    def valency(self) -> int:
        return self.group.order_of(self.r)

    def is_simple(self) -> bool:
        """No loops or parallel edges: <r> meets its conjugate by l in 1
        alone.  A loop, l in <r>, fails this too: then the two are equal,
        and r != 1."""
        return self._vertex_meets_conjugate() == {0}

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
        return self._subgroup((self.t,), (self.r,))

    @cached_property
    def edge_subgroup(self) -> Subgroup:
        return self._subgroup((self.t,), (self.l,))

    @cached_property
    def face_subgroup(self) -> Subgroup:
        return self._subgroup((self.r,), (self.l,))

    @cached_property
    def even_subgroup(self) -> Subgroup:
        """Words of even length in the reflections, <tr, rl>; index 1 or 2,
        found by one walk (see the module docstring)."""
        G, t, r, l = self.group, self.t, self.r, self.l
        even = _even_words([G.row(t), G.row(r), G.row(l)], G.order)
        members = frozenset(range(G.order) if even is None else even)
        return Subgroup(G, members, (G.mul(t, r), G.mul(r, l)))

    def valency(self) -> int:
        return self.vertex_subgroup.order // 2

    def is_orientable(self) -> bool:
        return self.even_subgroup.order < self.group.order

    def is_simple(self) -> bool:
        return self._vertex_meets_conjugate() == {0, self.t}

    def report(self) -> MapReport:
        return self._report(
            None if self.degenerate else self.is_orientable(), True)


MAP_TYPES = {cls.kind: cls for cls in (OrientedMap, FlaggedMap)}


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
