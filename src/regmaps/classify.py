"""Structure theory of p-maps.

A map is a *p-map* when it is not degenerate and has p^k vertices for a
prime p and k >= 1.  The group of a p-map is always solvable, and the map
is *normal* exactly when its Sylow p-subgroup is normal.  A nonnormal p-map
forces p to be 2 or 3, and collapsing the p-core produces one of four
exceptional quotients, which `identify_exceptional` tells apart:

* ``D(m, e)``  -- the oriented dipole: two vertices joined by m edges
  (m odd, >= 3), reversal conjugating the rotation to its e-th power with
  e^2 = 1, e != 1 (mod m);
* ``DM(n)``    -- the disc semistar: a degenerate flagged map whose edge
  reversal collapsed to the identity, on a dihedral group of order n;
* ``EM(n)``    -- the sphere semistar: the reversal collapsed onto t;
* ``C(3,2)``   -- the unique nonorientable 3-map with 3 vertices, 6 edges
  and 4 faces on the symmetric group of degree 4.  A group of order 24
  whose action on the 4 faces has trivial kernel, the core of a face
  subgroup, embeds in Sym(4) and so is S4; in S4 a face subgroup of
  order 6 is a point stabilizer, whose core is trivial.  So one normal
  core proves the quotient is S4, with no isomorphism search.

For normal maps whose vertex action is primitive, P/P0 is elementary
abelian of order p^k, where P is the Sylow subgroup and P0 its
vertex-kernel part, and a P/P0 of any other shape breaches the theory.  Two
split shapes are told apart: either P = P0 x T with T elementary abelian
of rank k, or (p odd) P is a central product of P0 = Z(P) with the
extraspecial group omega_1(P) of order p^(k+1).  Both are tested exactly,
and a P of neither shape is labelled by its quotient alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ClassificationError, ContractViolation, TheoremViolation
from .group import (FiniteGroup, center, is_extraspecial, is_normal,
                    is_solvable, normal_core, o_p, omega1, p_part,
                    prime_factors, sylow_p)
from .maps import DEGENERATE_L_TRIVIAL, quotient_map


@dataclass(frozen=True)
class ExceptionalCase:
    kind: str  # "dipole" | "disc_semistar" | "sphere_semistar" | "c32"
    m: Optional[int] = None
    e: Optional[int] = None
    n: Optional[int] = None

    def label(self) -> str:
        if self.kind == "dipole":
            return f"D({self.m},{self.e})"
        if self.kind == "disc_semistar":
            return f"DM({self.n})"
        if self.kind == "sphere_semistar":
            return f"EM({self.n})"
        if self.kind == "c32":
            return "C(3,2)"
        raise ContractViolation(f"unknown exceptional kind {self.kind!r}")


@dataclass(frozen=True)
class PMapClassification:
    p: int
    k: int
    solvable: bool
    normal: bool
    orientation_status: str
    exceptional_case: Optional[ExceptionalCase]
    quotient_order: Optional[int]

    def to_dict(self) -> dict:
        case = self.exceptional_case
        return dict(vars(self), exceptional_case=case and case.label())


@dataclass(frozen=True)
class SylowStructure:
    # "direct_product_elementary" | "central_product_extraspecial"
    # | "elementary_quotient"
    case_tag: str
    p0_order: int
    complement_rank: Optional[int]
    extraspecial_order: Optional[int]

    def to_dict(self) -> dict:
        return dict(vars(self))


def detect_p_map(m) -> Optional[tuple]:
    """(p, k) with vertex count p^k and k >= 1, else None.  A degenerate
    map is never a p-map: t and r generate G, so it has one vertex."""
    v = m.vef_counts()[0]
    if v < 2:
        return None
    ps = prime_factors(v)
    if len(ps) != 1:
        return None
    p = ps[0]
    k = 0
    while v > 1:
        v //= p
        k += 1
    return p, k


def _p_map(m, done: str) -> tuple:
    """(p, k) of a nondegenerate p-map; otherwise ContractViolation, whose
    message says degenerate maps are not `done`."""
    if m.degenerate:
        raise ContractViolation(f"degenerate maps are not {done}")
    pk = detect_p_map(m)
    if pk is None:
        raise ContractViolation("vertex count is not a prime power")
    return pk


def _orientation_status(m, p: int) -> str:
    if m.kind == "oriented":
        return "reflexible" if m.reflexible else "chiral"
    if not m.is_orientable():
        return "nonorientable"
    # Is the Sylow p-subgroup of the even-word subgroup normal in it?  It is
    # iff it holds every p-element, i.e. iff there are exactly as many
    # p-elements as its order.  Element orders are the same in G.
    G = m.group
    plus = m.even_subgroup
    p_elements = sum(1 for x in plus.members
                     if p_part(G.order_of(x), p) == G.order_of(x))
    if p_elements == p_part(plus.order, p):
        return "orientable_normal"
    return "reflexible"


def classify(m) -> PMapClassification:
    """Full classification of a p-map; degenerate maps are refused."""
    p, k = _p_map(m, "classified")
    G = m.group
    if not is_solvable(G):
        raise TheoremViolation(f"group of a {p}-map must be solvable")
    P = sylow_p(G, p)
    status = _orientation_status(m, p)
    if is_normal(G, P):
        return PMapClassification(p, k, True, True, status, None, None)
    try:
        qmap = quotient_map(m, o_p(G, p))
    except ContractViolation as exc:
        raise TheoremViolation(f"exceptional quotient collapsed: {exc}") from exc
    case = identify_exceptional(qmap, p)
    return PMapClassification(p, k, True, False, status, case,
                              qmap.group.order)


def identify_exceptional(qm, p: int) -> ExceptionalCase:
    """Match the p-free quotient of a nonnormal p-map against the four
    exceptional shapes: C(3,2) at p = 3; at p = 2 a semistar if the quotient
    is a degenerate flagged map, else a dipole.

    C(3,2) is certified by a normal core.  G permutes the cosets of the
    face subgroup F, the faces, with kernel core_G(F).  With |G| = 24 and
    4 faces, a trivial kernel embeds G in Sym(4), of order 24 = 4!, so
    G is S4.  Conversely, in S4 a face subgroup of order 24/4 = 6 is a
    point stabilizer S3, whose core is trivial.  So the core is trivial
    exactly when G is S4.

    A flagged dipole is read inside G: its oriented form has darts G+, the
    even words, rotation t*r and reversal t*l, whose orders and exponents
    are the same in G."""
    G = qm.group
    if p == 3:
        if qm.kind != "flagged":
            raise TheoremViolation("a nonnormal oriented 3-map cannot exist")
        if qm.degenerate:
            raise ClassificationError(
                "a degenerate map is not the exceptional 3-map")
        if G.order != 24 or qm.vef_counts() != (3, 6, 4) or qm.is_orientable():
            raise ClassificationError(
                "quotient does not match the nonorientable 3-vertex map")
        if normal_core(G, qm.face_subgroup).order != 1:
            raise ClassificationError(
                "quotient group is not the symmetric group of degree 4")
        return ExceptionalCase("c32")
    if p != 2:
        raise TheoremViolation(f"nonnormal p-map with p = {p}")
    if qm.kind == "flagged" and qm.degenerate:
        half = G.order_of(G.mul(qm.t, qm.r))
        if G.order != 2 * half or half % 2 == 0 or half < 3:
            raise ClassificationError(
                f"semistar group must be dihedral of twice-odd order >= 6,"
                f" found order {G.order}")
        if DEGENERATE_L_TRIVIAL in qm.degenerate:
            return ExceptionalCase("disc_semistar", n=G.order)
        return ExceptionalCase("sphere_semistar", n=G.order)
    if qm.kind == "flagged":
        if not qm.is_orientable():
            raise ClassificationError("dipole check: map is not orientable")
        r, l, darts = G.mul(qm.t, qm.r), G.mul(qm.t, qm.l), G.order // 2
        if r == 0:
            raise ClassificationError(
                "dipole check: rotation must not be the identity")
    else:
        r, l, darts = qm.r, qm.l, G.order
    mm = G.order_of(r)
    v = darts // mm
    if v != 2:
        raise ClassificationError(f"a dipole has 2 vertices, found {v}")
    if mm % 2 == 0 or mm < 3:
        raise ClassificationError(
            f"dipole edge count must be odd and >= 3, found {mm}")
    conj = G.conj(r, l)  # <r> has index 2 in the darts, so l normalizes it
    e, x = 1, r  # the least e with r^e = conj, walking r's powers once
    while x != conj:
        e, x = e + 1, G.mul(x, r)
    if (e * e) % mm != 1 or e % mm == 1:
        raise ClassificationError(f"dipole exponent {e} mod {mm} is invalid")
    return ExceptionalCase("dipole", m=mm, e=e)


def _splits_elementary(G: FiniteGroup, P, P0, p: int) -> bool:
    """Whether P = P0 x T for some elementary abelian T, where P0 is normal
    in the p-group P.  With C = C_P(P0) and Z0 = C meet P0 = Z(P0), this
    holds iff C is abelian, |P0||C| = |P||Z0| and the p-th powers of C are
    exactly those of Z0.

    (=>) C = Z0 x T, so C is abelian, |C| = |Z0||T| = |Z0||P|/|P0|, and
    (zt)^p = z^p.  (<=) Write C additively.  pC = pZ0 gives p^iC = p^iZ0
    for every i, so Z0 meets p^iC in p^iZ0: Z0 is pure in C, and a bounded
    pure subgroup of an abelian group is a direct summand (Pruefer-Baer).
    So C = Z0 x T with T isomorphic to C/Z0, which pC = pZ0 makes of
    exponent p.  T centralizes P0 and meets it in T meet Z0 = 1, and
    |P0 T| = |P0||C|/|Z0| = |P|, so P = P0 x T.
    """
    C = G.subgroup_from_members(
        x for x in P.members
        if all(G.mul(x, g) == G.mul(g, x) for g in P0.gens))
    Z0 = C.members & P0.members
    return (center(C).order == C.order
            and P0.order * C.order == P.order * len(Z0)
            and {G.power(c, p) for c in C.members}
            == {G.power(z, p) for z in Z0})


def _elementary_quotient(G: FiniteGroup, P, P0, p: int, k: int) -> bool:
    """Whether P/P0 is elementary abelian of order p^k, where P0 is normal
    in P: |P| = |P0| p^k, and the p-th power of each of P's gens and the
    commutator of each pair of them lie in P0.  The gens' images generate
    P/P0, so it is abelian iff they commute there, and then of exponent p
    iff each has order dividing p."""
    gens, members = P.gens, P0.members
    return (P0.order * p ** k == P.order
            and all(G.power(g, p) in members for g in gens)
            and all(G.comm(g, h) in members
                    for i, g in enumerate(gens) for h in gens[:i]))


def certify_sylow_structure(m) -> SylowStructure:
    """Split the Sylow subgroup P of a normal, vertex-primitive map.

    Preconditions (normal Sylow subgroup, primitive vertex action, a
    genuine p-map) are the caller's obligation and raise ContractViolation;
    shape conclusions that the theory forbids raise TheoremViolation.

    What is proved: let K be the vertex kernel, the core of the vertex
    stabilizer, and P0 = P meet K.  G/K is solvable and primitive of
    degree p^k, so it has exactly one minimal normal subgroup N, which is
    elementary abelian, regular and self-centralizing.  PK/K is a normal
    p-subgroup of G/K, and not trivial, since P <= K would make |G:K|
    prime to p; so PK/K = O_p(G/K) = N, and P/P0, isomorphic to PK/K, is
    (C_p)^k.  A P/P0 of any other order or shape raises TheoremViolation.
    A P that splits neither as P0 x (C_p)^k nor as a central product with
    an extraspecial group is labelled ``elementary_quotient``.
    """
    p, k = _p_map(m, "certified")
    G = m.group
    P = sylow_p(G, p)
    if not is_normal(G, P):
        raise ContractViolation("certification requires a normal map")
    if not m.vertex_primitive:
        raise ContractViolation(
            "certification requires a primitive vertex action")
    core = normal_core(G, m.vertex_subgroup)
    P0 = G.subgroup_from_members(P.members & core.members)
    if P0.order * p ** k != P.order:
        raise TheoremViolation("vertex kernel has the wrong p-part")

    if _splits_elementary(G, P, P0, p):
        return SylowStructure("direct_product_elementary", P0.order, k, None)
    if p > 2:
        E = omega1(P, p)
        if (center(P).members == P0.members and E.order == p ** (k + 1)
                and is_extraspecial(E, p)
                and G.subgroup(E.gens + P0.gens).members == P.members):
            return SylowStructure("central_product_extraspecial",
                                  P0.order, None, E.order)
    if not _elementary_quotient(G, P, P0, p, k):
        raise TheoremViolation(
            f"Sylow {p}-subgroup of order {P.order} has a quotient by P0,"
            f" of order {P0.order}, that is not elementary abelian")
    return SylowStructure("elementary_quotient", P0.order, None, None)
