"""Census of all maps carried by one finite group, up to map isomorphism.

Candidates are generating tuples: pairs (r, l) with l an involution for
oriented maps, triples (t, r, l) of involutions with t*l = l*t for flagged
maps (l = t is kept but tagged degenerate; the identity is never accepted
for r or l, matching the fixed-point-freeness of the actions).  Two
generating tuples give isomorphic maps iff an automorphism of G carries one
to the other, i.e. iff their standardized tables are equal (see
:func:`regmaps.group.standard_table`), so each class is one dict entry keyed
by that table.  One standardizing walk per candidate both tests that it
generates G and yields its key.

Inner automorphisms are automorphisms, so the first entry (r, or t) is
scanned only over the least member of each conjugacy class, in increasing
order, and the other entries in full; each generating tuple found counts
the size of its first entry's conjugacy class.  Every conjugate of a
class's lexicographic least tuple lies in the class, so that tuple's first
entry is least in its conjugacy class: the first tuple met in each class
is still its lexicographic least representative, and the classes come out
in the order of those representatives.  Conjugation by G
maps the tuples of a class with first entry x one-to-one onto those with
first entry any conjugate of x, so the weighted count of a class is its
full size.  Aut(G) acts freely on generating tuples, so every class has
|Aut G| members; a census whose classes differ in size raises
TheoremViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classify import PMapClassification, classify, detect_p_map
from .errors import ResourceLimitExceeded, TheoremViolation
from .group import FiniteGroup, mult_table, standard_table
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


def _generates(tables, n: int) -> Optional[tuple]:
    """The standardized table of the candidate whose right-multiplication
    tables are given, or None when it does not generate G.  Called once per
    scanned candidate."""
    std = standard_table(tables, n)
    return None if std is None else std[0]


def _add(classes: dict, key: tuple, cand: tuple, weight: int) -> None:
    """Count `weight` generating tuples into a class, opening the class with
    `cand` as its representative if new."""
    rec = classes.get(key)
    if rec is None:
        classes[key] = [cand, weight]
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


def _entries(G: FiniteGroup, classes: dict, kind: str) -> list:
    """One entry per class; classes of unequal size breach the law that
    Aut(G) acts freely on generating tuples."""
    sizes = sorted({count for _, count in classes.values()})
    if len(sizes) > 1:
        raise TheoremViolation(f"census classes differ in size: {sizes}")
    entries = []
    for cand, count in classes.values():
        if kind == "oriented":
            m = OrientedMap(G, cand[0], cand[1])
        else:
            m = FlaggedMap(G, cand[0], cand[1], cand[2])
        entries.append(CensusEntry(kind=kind, tuple_=cand,
                                   degenerate=tuple(sorted(m.degenerate)),
                                   class_size=count, map=m))
    return entries


def enumerate_oriented(G: FiniteGroup,
                       max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> list:
    """All oriented maps on G up to isomorphism (r != 1, l an involution)."""
    invs = _prepare(G, max_order)
    n = G.order
    firsts, sizes = _class_minima(G, range(1, n))
    inv_tables = {l: mult_table(G, l) for l in invs}
    classes: dict = {}
    for r in firsts:
        table_r = mult_table(G, r)
        for l in invs:
            key = _generates((table_r, inv_tables[l]), n)
            if key is not None:
                _add(classes, key, (r, l), sizes[r])
    return _entries(G, classes, "oriented")


def enumerate_flagged(G: FiniteGroup,
                      max_order: int = DEFAULT_CENSUS_MAX_ORDER) -> list:
    """All flagged maps on G up to isomorphism (t, r, l involutions with
    t*l = l*t; l = t allowed but tagged degenerate)."""
    invs = _prepare(G, max_order)
    n = G.order
    firsts, sizes = _class_minima(G, invs)
    inv_tables = {l: mult_table(G, l) for l in invs}
    commuting = {t: [l for l in invs
                     if G.mul(t, l) == G.mul(l, t)] for t in firsts}
    classes: dict = {}
    for t in firsts:
        table_t = inv_tables[t]
        for r in invs:
            pair = (table_t, inv_tables[r])
            for l in commuting[t]:
                # the key keeps l's table even when l is t or r, so that
                # the position of a repeated entry is part of the class
                key = _generates(pair + (inv_tables[l],), n)
                if key is not None:
                    _add(classes, key, (t, r, l), sizes[t])
    return _entries(G, classes, "flagged")


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
