"""Census of all maps carried by one finite group, up to map isomorphism.

Candidates are generating tuples: pairs (r, l) with l an involution for
oriented maps, triples (t, r, l) of involutions with t*l = l*t for flagged
maps (l = t is kept but tagged degenerate; the identity is never accepted
for r or l, matching the fixed-point-freeness of the actions).  Two
generating tuples give isomorphic maps iff an automorphism of G carries one
to the other, i.e. iff their standardized tables are equal (see
:func:`regmaps.group.standard_table`), so each class is one dict entry keyed
by that table.  One standardizing walk per candidate both tests that it
generates G and yields its key.  A class opens with its map, built from
the first tuple met and given that key, so each class's table is walked
and held once.

Inner automorphisms are automorphisms, so the scan walks one tuple per
orbit of conjugation, level by level (:func:`_orbit_minima`).  The first
entry x (r, or t) runs over the least member of each conjugacy class, read
off the kept classes of G (:func:`_class_minima`); the second entry y over
the least member of each orbit of C_G(x); the third entry l of a flagged
tuple over the least member of each orbit of the stabilizer of r in C_G(t),
C_G(t) ∩ C_G(r), on the involutions commuting with t.  A tuple found
counts |class(x)| * |orbit of y| tuples, times |orbit of l| if flagged.
The least tuple (x*, y*, ...) of a class is still scanned and met first:
its conjugates lie in the class, so x* is least in its conjugacy class,
y* in its C_G(x*)-orbit, since conjugating by C_G(x*) fixes x*, and l* in
its orbit of C_G(t*) ∩ C_G(r*), which fixes t* and r*.  The weights add
up to the class size: conjugation by G maps the tuples of a class with
first entry x one-to-one onto those with first entry any conjugate of x,
and a c in C_G(x) with y^c = y' maps those with second entry y onto those
with y', inside the class (for a flagged tuple c centralizes t, so l
commutes with t iff l^c does); so too for third entries.

Two tests drop scanned tuples that cannot generate G.  Each drops whole
orbits, so the orbits that stay keep their weights, and the least tuple
of a class generates G, so it is never dropped.  The first rests on one
fact: an entry of a generating tuple that commutes with every entry is
central in G, since it commutes with a set of generators.  So a second
entry y in C_G(x) is dropped unless C_G(x) = G, as x would commute with
every entry (r with l; t with r and with l, which commutes with t), and a
flagged third entry l in C_G(t) ∩ C_G(r) unless l is central, as l would
commute with t, r and l.  Each drops the members in the acting group
(for l, the noncentral ones), a set that conjugation by that group keeps.

The second keeps a tuple only if its image generates the abelian quotient
G/G′, G′ the derived subgroup, by two closed-form rules on the labels of
the elements by their cosets of G′ (:class:`_Abelianization`): the order of
an oriented pair's image, and the rank over GF(2) of the images of the
involutions of a flagged tuple.  Conjugation fixes every coset of G′, since
x^c = x[x, c] with [x, c] in G′, so the member lists are cut before the
orbit walk.  A first entry that no involutions complete is skipped before
its centralizer is built, a second entry of a flagged tuple is kept if some
involution completes it, and the last entry runs only over the involutions
that complete the tuple.  A perfect G has G/G′ = 1: nothing is dropped and
no labels are built.

Aut(G) acts freely on generating tuples, so every class has |Aut G|
members; a census whose classes differ in size raises TheoremViolation.
Class sizes are sums of the weights, so that check covers the orbit
weights too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classify import PMapClassification, classify, detect_p_map
from .errors import ResourceLimitExceeded, TheoremViolation
from .group import (FiniteGroup, coset_action, derived_subgroup,
                    prime_factors, standard_table)
from .maps import FlaggedMap, MapReport, OrientedMap

DEFAULT_CENSUS_MAX_ORDER = 2000


@dataclass
class CensusEntry:
    kind: str            # "oriented" | "flagged"
    tuple_: tuple        # lexicographic least generating tuple of the class
    degenerate: tuple
    class_size: int
    map: object
    report: Optional[MapReport] = None
    classification: Optional[PMapClassification] = None
    violations: tuple = ()


def _generates(rows, n: int) -> Optional[tuple]:
    """:func:`standard_table` of one scanned candidate, called once per
    candidate.  It is kept as its own function so that the benchmark can
    count the candidates the census scans by its calls."""
    return standard_table(rows, n)


def _add(classes: dict, key: tuple, weight: int, cls, G: FiniteGroup,
         cand: tuple) -> None:
    """Count `weight` generating tuples into the class keyed `key`, opening
    its entry with the map cls(G, *cand) if new, which keeps `key`."""
    entry = classes.get(key)
    if entry is None:
        m = cls(G, *cand, key=key)
        classes[key] = CensusEntry(kind=m.kind, tuple_=m.generator_tuple,
                                   degenerate=tuple(sorted(m.degenerate)),
                                   class_size=weight, map=m)
    else:
        entry.class_size += weight


class _Abelianization:
    """The test that a tuple's image generates G/G′, on the labels of its
    entries by their cosets of G′.  A perfect G has G/G′ = 1: every tuple
    passes, and no labels are built.

    The images of the involutions span an elementary abelian 2-subgroup W
    of G/G′; ``vec`` gives each label in W as a bit mask over a basis of W.
    """

    def __init__(self, G: FiniteGroup, invs: list):
        derived = derived_subgroup(G)
        self.G = G
        self.label = None
        if derived.order < G.order:
            _, label = coset_action(G, derived)
            self.label = label
            self.order = G.order // derived.order
            # W doubles with each new label, so len(vec) is the next bit
            self.vec, elems = {0: 0}, [0]
            for l in invs:
                if label[l] not in self.vec:
                    bit, new = len(self.vec), [G.mul(e, l) for e in elems]
                    for e, z in zip(elems, new):
                        self.vec[label[z]] = self.vec[label[e]] | bit
                    elems += new

    def oriented(self, r: int, invs: list) -> list:
        """The involutions l for which the image of (r, l) generates G/G′,
        in order.  If r's image has order k, and h is the label of its one
        image of order 2 (k even), that image has order k, times 2 unless
        l's label is 0 or h."""
        G, label = self.G, self.label
        if label is None:
            return invs
        # k is the least divisor of the order of r with r^k in G′
        k = G.order_of(r)
        for p in prime_factors(k):
            while k % p == 0 and label[G.power(r, k // p)] == 0:
                k //= p
        h = label[G.power(r, k // 2)] if k % 2 == 0 else None
        return [l for l in invs
                if k * (1 if label[l] in (0, h) else 2) == self.order]

    def flagged(self, prefix: tuple, members: list, more: int = 0) -> list:
        """The involutions y for which some `more` involutions complete
        prefix + (y,), a prefix of involutions, to a tuple whose image
        generates G/G′, in order.  That image lies in W, so none does
        unless W = G/G′; then it does iff the span of prefix + (y,) has
        rank at least dim W - `more`, since while the rank is below dim W
        some involution raises it by one."""
        label = self.label
        if label is None:
            return members
        vec = self.vec
        if len(vec) < self.order:
            return []
        span = {0}
        for x in prefix:
            span |= {s ^ vec[label[x]] for s in span}
        least = self.order >> more   # the least order of the span reached
        return [y for y in members
                if len(span) * (1 if vec[label[y]] in span else 2) >= least]


def _prepare(G: FiniteGroup, max_order: int) -> tuple:
    """Enforce the order bound; return the involutions of G and its
    :class:`_Abelianization`."""
    if G.order > max_order:
        raise ResourceLimitExceeded(
            f"census group order {G.order} exceeds the bound {max_order}",
            "max_order", max_order)
    invs = [x for x in range(1, G.order) if G.mul(x, x) == 0]
    return invs, _Abelianization(G, invs)


def _entries(classes: dict) -> list:
    """The entries, one per class; classes of unequal size breach the law
    that Aut(G) acts freely on generating tuples."""
    sizes = sorted({e.class_size for e in classes.values()})
    if len(sizes) > 1:
        raise TheoremViolation(f"census classes differ in size: {sizes}")
    return list(classes.values())


def _class_minima(G: FiniteGroup, members) -> list:
    """(x, |class of x|) for the least member x of each conjugacy class of
    G in `members`, in increasing order of x, read off the kept classes.
    `members` is increasing and closed under conjugation."""
    class_id, size = G.conjugacy_classes()
    seen: set = set()
    minima = []
    for x in members:
        if class_id[x] not in seen:
            seen.add(class_id[x])
            minima.append((x, size[x]))
    return minima


def _orbit_minima(G: FiniteGroup, sub: list, members) -> list:
    """(y, orbit size, [c in sub with y^c = y]) for the least member y of
    each orbit of conjugation by `sub`, a subgroup's members, on `members`,
    in increasing order of y.  The stabilizer is a subgroup's members, `sub`
    itself where nothing moves, so it can act on a next entry.  `members`
    is increasing and closed under that action.  y^c = G.row(y)[c^-1] * c."""
    if len(sub) == 1 or len(members) == 1:
        return [(y, 1, sub) for y in members]
    mul, inv = G.mul, G.inv
    pairs = [(inv(c), c) for c in sub]
    seen: set = set()
    minima = []
    for y in members:
        if y not in seen:
            row = G.row(y)
            conj = [mul(row[ci], c) for ci, c in pairs]
            seen.update(conj)
            minima.append((y, len(set(conj)),
                           [c for c, z in zip(sub, conj) if z == y]))
    return minima


def enumerate_oriented(G: FiniteGroup,
                       max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> list:
    """All oriented maps on G up to isomorphism (r != 1, l an involution)."""
    invs, quo = _prepare(G, max_order)
    n = G.order
    classes: dict = {}
    for r, size in _class_minima(G, range(1, n)):
        seconds = quo.oriented(r, invs)
        if not seconds:
            continue
        cent = G.centralizer(r)
        # an l commuting with r would make r central
        drop = set(cent) if len(cent) < n else ()
        for l, orbit, _ in _orbit_minima(
                G, cent, [l for l in seconds if l not in drop]):
            key = _generates((G.row(r), G.row(l)), n)
            if key is not None:
                _add(classes, key, size * orbit, OrientedMap, G, (r, l))
    return _entries(classes)


def enumerate_flagged(G: FiniteGroup,
                      max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> list:
    """All flagged maps on G up to isomorphism (t, r, l involutions with
    t*l = l*t; l = t allowed but tagged degenerate)."""
    invs, quo = _prepare(G, max_order)
    n = G.order
    inv_set = set(invs)
    _, class_size = G.conjugacy_classes()
    classes: dict = {}
    for t, size in _class_minima(G, invs):
        if not quo.flagged((), [t], 2):
            continue
        cent = G.centralizer(t)
        commuting = [l for l in cent if l in inv_set]
        # an r commuting with t would make t central
        drop = set(commuting) if len(cent) < n else ()
        seconds = [r for r in quo.flagged((t,), invs, 1) if r not in drop]
        for r, orbit, stab in _orbit_minima(G, cent, seconds):
            # an l commuting with t and r would be central
            thirds = [l for l in quo.flagged((t, r), commuting)
                      if class_size[l] == 1 or l not in stab]
            for l, orbit_l, _ in _orbit_minima(G, stab, thirds):
                # the key keeps l's row even when l is t or r, so that
                # the position of a repeated entry is part of the class
                key = _generates((G.row(t), G.row(r), G.row(l)), n)
                if key is not None:
                    _add(classes, key, size * orbit * orbit_l, FlaggedMap,
                         G, (t, r, l))
    return _entries(classes)


def census_classify(entries: list) -> list:
    """Attach reports and, for nondegenerate p-map entries, classifications.
    Structure-law breaches are recorded on the entry, not raised."""
    for entry in entries:
        entry.report = entry.map.report()
        if detect_p_map(entry.map) is None:
            continue
        try:
            entry.classification = classify(entry.map)
        except TheoremViolation as exc:
            entry.violations = entry.violations + (str(exc),)
    return entries
