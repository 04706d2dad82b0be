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

A map given no key proves that its tuple generates G by one walk from 1
over its entries' rows (:func:`regmaps.group._lift`), which labels x*g,
first met from x, with g's move applied to x's label: no other edge
disagrees iff the labels are a homomorphism sending each entry to its
move.  An oriented map is reflexible iff some automorphism sends r to r^-1
and fixes l (Jones & Singerman 1978): the moves are the rows of r^-1 and
l, which generate G, so such a homomorphism is onto.  A flagged map's
even-word subgroup E = <tr, rl> has index 2 in G = E u tE (tl = tr*rl)
iff t, r and l each move 0 to 1 in a homomorphism onto C2 = {0, 1}, and
is then its kernel.  No standardized table is built: `key` is computed on
first read.  A report's or a classification's subgroups are walked over
the rows the map's walk (or the census's) has built, from 1 by right
multiplication by the generators (:func:`_walk`), the face generator r*l
one step through both rows; members and gens are ``G.subgroup``'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .errors import ContractViolation, TheoremViolation
from .group import (FiniteGroup, Subgroup, _lift, _orbits, is_primitive,
                    quotient_group, regenerated, standardize)
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
    """A group G and a defining tuple of element indices, named by `fields`,
    that generates G: proved by the walk that reads the property `walked`,
    or, given the key, by the census's walk, and then walked on first read."""

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
        self.group, self.generator_tuple = group, gens
        self._spans = key is not None  # the census's walk has proved it
        if key is not None:
            self.key = key
            return
        getattr(self, self.walked)  # the walk, which sets _spans
        if not self._spans:
            raise ContractViolation(f"{self.spanning} do not generate the group")

    @cached_property
    def key(self) -> tuple:
        """The standardized table (:func:`regmaps.group.standard_table`):
        two maps are isomorphic iff their kinds and keys are equal."""
        return standardize(self.group, self.generator_tuple)

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
        """True iff G acts primitively on the vertices, the right cosets of
        the vertex subgroup V.  x -> x^-1 carries that action to the one on
        left cosets by left multiplication.  The left cosets are the orbits
        of the rows of V's generators; G's generators, and V's as the
        stabilizer of the coset V, act on one member of each."""
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

    walked = "reflexible"

    @cached_property
    def reflexible(self) -> bool:
        """True when the map is isomorphic to its mirror image (r^-1, l),
        i.e. when some automorphism inverts r while fixing l."""
        G = self.group
        r, l = G.row(self.r), G.row(self.l)
        r_inv = [0] * G.order
        for x in r:  # r's own entries, so that r_inv holds no new ints
            r_inv[r[x]] = x
        self._spans, mirrored, _ = _lift((r, l), (r_inv, l), G.order,
                                         self._spans)
        return mirrored

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

    walked = "even_subgroup"

    @cached_property
    def even_subgroup(self) -> Subgroup:
        """Words of even length in the reflections, <tr, rl>; index 1 or 2."""
        G, t, r, l = self.group, self.t, self.r, self.l
        rows = [G.row(t), G.row(r), G.row(l)]
        self._spans, bipartite, side = _lift(rows, [[1, 0]] * 3, G.order,
                                             self._spans)
        every = rows[0]  # t's row: each element once, as the index's ints
        members = [x for x in every if not side[x]] if bipartite else every
        return Subgroup(G, frozenset(members), (G.mul(t, r), G.mul(r, l)))

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
