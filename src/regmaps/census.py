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
the first tuple met, and is keyed by that map's own `key`, so each class's
table is held once.

Inner automorphisms are automorphisms, so the scan is cut down on two
levels.  The first entry x (r, or t) runs only over the least member of
each conjugacy class, in increasing order.  For each such x the second
entry y runs only over the least member of each orbit of the centralizer
C_G(x) acting by conjugation, in increasing order; the third entry of a
flagged tuple (l) still runs over every involution commuting with t.  Each
generating tuple found counts |class(x)| * |orbit of y| tuples.

The first tuple met in each class is still its lexicographic least member
(x*, y*, ...), so representatives and the order of the classes do not
change.  Every conjugate of that tuple lies in the class, so x* is least
in its conjugacy class.  Conjugating by c in C_G(x*) fixes x* and keeps
the tuple in its class, so y* <= y*^c: y* is least in its C_G(x*)-orbit.
So the tuple is scanned, and the scan runs in lexicographic order.

The weighted count of a class is its full size.  Conjugation by G maps the
tuples of a class with first entry x one-to-one onto those with first
entry any conjugate of x.  Among those with first entry x, conjugation by
a c in C_G(x) with y^c = y' maps the tuples with second entry y one-to-one
onto those with second entry y', inside the class; for a flagged tuple c
centralizes t, so l commutes with t iff l^c does.  Any subgroup of C_G(x)
would give the same output; the full centralizer prunes the most.

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
from .group import FiniteGroup, standard_table
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
    it with the map cls(G, *cand) if new, whose walk reuses the scan's rows."""
    rec = classes.get(key)
    if rec is None:
        m = cls(G, *cand)
        classes[m.key] = [m, weight]
    else:
        rec[1] += weight


def _prepare(G: FiniteGroup, max_order: int) -> list:
    """Enforce the order bound; return the involutions of G."""
    if G.order > max_order:
        raise ResourceLimitExceeded(
            f"census group order {G.order} exceeds the bound {max_order}",
            "max_order", max_order)
    return [x for x in range(1, G.order) if G.mul(x, x) == 0]


def _class_minima(G: FiniteGroup, members) -> tuple[list, list]:
    """The least of `members` in each conjugacy class they meet, in
    increasing order, and the conjugacy class size of every element.
    `members` is increasing and closed under conjugation."""
    class_id, sizes = G.conjugacy_classes()
    least: dict = {}
    for x in members:
        least.setdefault(class_id[x], x)
    return list(least.values()), sizes


def _entries(classes: dict) -> list:
    """One entry per class; classes of unequal size breach the law that
    Aut(G) acts freely on generating tuples."""
    sizes = sorted({count for _, count in classes.values()})
    if len(sizes) > 1:
        raise TheoremViolation(f"census classes differ in size: {sizes}")
    return [CensusEntry(kind=m.kind, tuple_=m.generator_tuple,
                        degenerate=tuple(sorted(m.degenerate)),
                        class_size=count, map=m)
            for m, count in classes.values()]


def _orbit_minima(G: FiniteGroup, sub: list, members) -> list:
    """(y, orbit size) for the least member y of each orbit of the subgroup
    with member list `sub` acting on `members` by conjugation, in increasing
    order of y.  `members` is increasing and closed under that action.
    Conjugates are read off y's row: y^c = G.row(y)[c^-1] * c."""
    mul, inv = G.mul, G.inv
    pairs = [(inv(c), c) for c in sub]
    seen: set = set()
    minima = []
    for y in members:
        if y not in seen:
            row = G.row(y)
            orbit = {mul(row[ci], c) for ci, c in pairs}
            seen |= orbit
            minima.append((y, len(orbit)))
    return minima


def enumerate_oriented(G: FiniteGroup,
                       max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> list:
    """All oriented maps on G up to isomorphism (r != 1, l an involution)."""
    invs = _prepare(G, max_order)
    n = G.order
    firsts, sizes = _class_minima(G, range(1, n))
    classes: dict = {}
    for r in firsts:
        row_r = G.row(r)
        for l, orbit in _orbit_minima(G, G.centralizer(r), invs):
            key = _generates((row_r, G.row(l)), n)
            if key is not None:
                _add(classes, key, sizes[r] * orbit, OrientedMap, G, (r, l))
    return _entries(classes)


def enumerate_flagged(G: FiniteGroup,
                      max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> list:
    """All flagged maps on G up to isomorphism (t, r, l involutions with
    t*l = l*t; l = t allowed but tagged degenerate)."""
    invs = _prepare(G, max_order)
    n = G.order
    firsts, sizes = _class_minima(G, invs)
    inv_set = set(invs)
    classes: dict = {}
    for t in firsts:
        cent = G.centralizer(t)
        commuting = [l for l in cent if l in inv_set]
        for r, orbit in _orbit_minima(G, cent, invs):
            pair = (G.row(t), G.row(r))
            weight = sizes[t] * orbit
            for l in commuting:
                # the key keeps l's row even when l is t or r, so that
                # the position of a repeated entry is part of the class
                key = _generates(pair + (G.row(l),), n)
                if key is not None:
                    _add(classes, key, weight, FlaggedMap, G, (t, r, l))
    return _entries(classes)


def census_classify(entries: list) -> list:
    """Attach reports and, for nondegenerate p-map entries, classifications.
    Structure-law breaches are recorded on the entry, not raised."""
    for entry in entries:
        entry.report = entry.map.report()
        if entry.degenerate or detect_p_map(entry.map) is None:
            continue
        try:
            entry.classification = classify(entry.map)
        except TheoremViolation as exc:
            entry.violations = entry.violations + (str(exc),)
    return entries
