import json
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (CONJUGATION_SCANS, brute_aut_count, brute_automorphism,
                     brute_derived, conjugation_census, full_census_flagged,
                     full_census_oriented, involutions, isomorphic, mirror,
                     scan_flagged_triples, scan_oriented_pairs)
from test_families import agl1_file
import regmaps.census
import regmaps.cli as cli
import regmaps.group
import regmaps.maps
from regmaps.census import (DEFAULT_CENSUS_MAX_ORDER, _Abelianization,
                            _entries, census_classify, enumerate_flagged,
                            enumerate_oriented)
from regmaps.errors import ResourceLimitExceeded, TheoremViolation
from regmaps.grammar import parse_group_file, realize_group_file
from regmaps.group import closure, derived_series, standard_table
from regmaps.maps import FlaggedMap, OrientedMap
from regmaps.perm import Perm
from regmaps.standard import (alternating_group, quaternion_group,
                              symmetric_group)
from standard_groups import (cyclic_group, dihedral_group, elementary_abelian,
                             klein_four_group)
from regmaps.verify import corpus_text

# (file, oriented classes, oriented tuples, flagged classes, flagged tuples)
CORPUS_COUNTS = [
    ("s4_3map.grp", 2, 48, 3, 72),
    ("g72_3map.grp", 2, 432, 3, 648),
    ("g384_chiral.grp", 4, 1536, 0, 0),
    ("gl23_reflexible.grp", 4, 192, 0, 0),
    ("g216_orientable.grp", 2, 1728, 3, 2592),
    ("g216_nonorientable.grp", 6, 2592, 9, 3888),
]


def _rows(entries):
    return [(e.tuple_, e.class_size, e.degenerate) for e in entries]


@pytest.fixture(scope="module")
def g384_oriented(corpus):
    return census_classify(
        enumerate_oriented(corpus["g384_chiral.grp"].group))


@pytest.mark.parametrize("fname,oc,ot,fc,ft", CORPUS_COUNTS,
                         ids=[row[0] for row in CORPUS_COUNTS])
def test_corpus_class_counts(corpus, fname, oc, ot, fc, ft):
    G = corpus[fname].group
    oriented = enumerate_oriented(G)
    flagged = enumerate_flagged(G)
    assert (len(oriented), sum(e.class_size for e in oriented)) == (oc, ot)
    assert (len(flagged), sum(e.class_size for e in flagged)) == (fc, ft)


@pytest.mark.parametrize("fname", ["s4_3map.grp", "g72_3map.grp",
                                   "g384_chiral.grp"])
def test_census_walks_each_class_once(corpus, fname, monkeypatch):
    # each class's map keeps the key its scan computed, so the census
    # runs no second standardizing walk
    G = corpus[fname].group

    def censuses():
        return [[(e.kind, e.tuple_, e.degenerate, e.class_size, e.map.key)
                 for e in census(G)]
                for census in (enumerate_oriented, enumerate_flagged)]

    want = censuses()

    def walk(*args):
        raise AssertionError("the census ran a second walk")
    monkeypatch.setattr(regmaps.maps, "standardize", walk)
    assert censuses() == want


def test_smallest_censuses():
    C2 = cyclic_group(2)
    assert _rows(enumerate_oriented(C2)) == [((1, 1), 1, ())]
    assert _rows(enumerate_flagged(C2)) == [((1, 1, 1), 1, ("l_equals_t",))]


@pytest.mark.parametrize("n", [3, 5, 9])
def test_no_involutions_no_maps(n):
    G = cyclic_group(n)
    assert enumerate_oriented(G) == []
    assert enumerate_flagged(G) == []


def test_klein_censuses():
    V4 = elementary_abelian(2, 2)
    assert _rows(enumerate_oriented(V4)) == [((1, 2), 6, ())]
    assert _rows(enumerate_flagged(V4)) == [
        ((1, 1, 2), 6, ()),
        ((1, 2, 1), 6, ("l_equals_t",)),
        ((1, 2, 2), 6, ()),
        ((1, 2, 3), 6, ()),
    ]


def test_elementary_abelian_rank3_single_class():
    # Aut(C2^3) = GL(3,2) is transitive on ordered bases, so the 7*6*4
    # generating triples collapse to one class.
    E8 = elementary_abelian(2, 3)
    assert enumerate_oriented(E8) == []
    assert _rows(enumerate_flagged(E8)) == [((1, 2, 3), 168, ())]


SCAN_SEEDS = [
    ("c2", lambda: cyclic_group(2)),
    ("c12", lambda: cyclic_group(12)),
    ("v4", klein_four_group),
    ("d3", lambda: dihedral_group(3)),
    ("d4", lambda: dihedral_group(4)),
    ("d6", lambda: dihedral_group(6)),
    ("a4", lambda: alternating_group(4)),
    ("s4", lambda: symmetric_group(4)),
    ("q8", quaternion_group),
    ("e8", lambda: elementary_abelian(2, 3)),
]


@pytest.mark.parametrize("factory", [f for _, f in SCAN_SEEDS],
                         ids=[n for n, _ in SCAN_SEEDS])
def test_census_matches_quadratic_scan(factory):
    # Every tuple the naive scan finds belongs to exactly one census class,
    # class sizes add up, and each representative is the lex-least member.
    G = factory()
    cases = (
        (scan_oriented_pairs, enumerate_oriented,
         lambda c: OrientedMap(G, *c)),
        (scan_flagged_triples, enumerate_flagged,
         lambda c: FlaggedMap(G, *c)),
    )
    for scan, enum, make in cases:
        scanned = scan(G)
        entries = enum(G)
        assert sum(e.class_size for e in entries) == len(scanned)
        assigned = [[] for _ in entries]
        for cand in scanned:
            m = make(cand)
            hits = [i for i, e in enumerate(entries)
                    if isomorphic(m, e.map)]
            assert len(hits) == 1, cand
            assigned[hits[0]].append(cand)
        for e, members in zip(entries, assigned):
            assert e.class_size == len(members)
            assert e.tuple_ == min(members)


FULL_SCANS = {"oriented": (enumerate_oriented, full_census_oriented),
              "flagged": (enumerate_flagged, full_census_flagged)}


@pytest.mark.parametrize("kind", FULL_SCANS)
def test_census_matches_full_scan_on_corpus(corpus, kind):
    # Scanning first entries over conjugacy-class minima, weighted by class
    # size, lists the same classes, representatives and sizes as scanning
    # every first entry once.
    enum, full = FULL_SCANS[kind]
    checked = 0
    for fname, rz in corpus.items():
        if rz.group.order < 500:
            assert _rows(enum(rz.group)) == full(rz.group), fname
            checked += 1
    assert checked == 9


# Two permutations of degree at most 5 reach groups with outer
# automorphisms (C4, C5, V4, D4, D5, A5, ...), where a class holds tuples
# with first entries from several conjugacy classes.
TWO_PERMUTATION_GROUPS = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=2, max_size=2)
).map(lambda ps: closure(len(ps[0]), [Perm(p) for p in ps]))


def _direct_product(A, B):
    """A x B, acting on the disjoint union of their points."""
    a, b = A.degree, B.degree
    fix_a, fix_b = tuple(range(a)), tuple(range(a, a + b))
    gens = [Perm(tuple(A.elements[g]) + fix_b) for g in A.gen_indices]
    gens += [Perm(fix_a + tuple(a + y for y in B.elements[g]))
             for g in B.gen_indices]
    return closure(a + b, gens)


# Nonabelian groups with large centralizers: the second entries fall into
# large orbits, so a class holds tuples from several orbits of several
# first-entry classes, and both factors of a weight matter.  D4 x C2 and
# Q8 x C2 need three generators, so they carry no oriented map, and the
# three involutions of Q8 x C2 are central, so it carries no flagged map
# either: there the pruned scan must find nothing.
DIRECT_PRODUCTS = [
    _direct_product(symmetric_group(3), symmetric_group(3)),
    _direct_product(dihedral_group(4), cyclic_group(2)),
    _direct_product(quaternion_group(), cyclic_group(2)),
    _direct_product(symmetric_group(4), cyclic_group(2)),
]


@given(st.one_of(TWO_PERMUTATION_GROUPS,
                 st.integers(2, 12).map(dihedral_group)))
@example(DIRECT_PRODUCTS[0])
@example(DIRECT_PRODUCTS[1])
@example(DIRECT_PRODUCTS[2])
@example(DIRECT_PRODUCTS[3])
@example(dihedral_group(45))
@example(dihedral_group(60))  # flagged classes with l = t
@settings(max_examples=25, deadline=None)
def test_census_matches_full_scan_on_small_groups(G):
    for enum, full in FULL_SCANS.values():
        assert _rows(enum(G)) == full(G)


@pytest.mark.parametrize("fname,reflexible_classes",
                         [("s4_3map.grp", 2), ("gl23_reflexible.grp", 4)])
def test_mirror_closure(corpus, fname, reflexible_classes):
    # Mirroring permutes the census classes; fixed points are the
    # reflexible ones.
    entries = enumerate_oriented(corpus[fname].group)
    partner = []
    for e in entries:
        mir = mirror(e.map)
        hits = [i for i, o in enumerate(entries)
                if isomorphic(mir, o.map)]
        assert len(hits) == 1
        partner.append(hits[0])
    assert sorted(partner) == list(range(len(entries)))
    for i, j in enumerate(partner):
        assert partner[j] == i
        assert (i == j) == entries[i].map.reflexible
    assert sum(1 for i, j in enumerate(partner) if i == j) \
        == reflexible_classes


def test_reflexibility_matches_brute_automorphism(corpus):
    # reflexible reads the mirror's key off the map's own key; the
    # oracle looks for an automorphism inverting r and fixing l directly.
    seen = chiral = 0
    for rz in corpus.values():
        G = rz.group
        if G.order > 384:
            continue
        for e in enumerate_oriented(G):
            m = e.map
            want = brute_automorphism(G, (m.r, m.l), (G.inv(m.r), m.l))
            assert m.reflexible == want, (rz.gf.name, e.tuple_)
            seen += 1
            chiral += not want
    assert (seen, chiral) == (26, 4)


def test_g384_census_chiral_pairs(g384_oriented):
    entries = g384_oriented
    rows = []
    for e in entries:
        cl = e.classification
        rows.append((e.tuple_,
                     None if cl is None else (cl.p, cl.k,
                                              cl.exceptional_case.label(),
                                              cl.orientation_status)))
    assert rows == [
        ((22, 60), (2, 6, "D(3,2)", "chiral")),
        ((49, 30), None),
        ((49, 33), None),
        ((87, 60), (2, 6, "D(3,2)", "chiral")),
    ]
    # the two 2-map classes are mirror images of each other, and no class
    # on this group is reflexible
    assert isomorphic(mirror(entries[0].map), entries[3].map)
    assert isomorphic(mirror(entries[1].map), entries[2].map)
    assert not any(e.map.reflexible for e in entries)
    assert all(e.violations == () for e in entries)


def test_census_classify_s4_flagged(corpus):
    entries = census_classify(
        enumerate_flagged(corpus["s4_3map.grp"].group))
    rows = []
    for e in entries:
        cl = e.classification
        rows.append((e.tuple_, cl.p, cl.k, cl.normal,
                     cl.exceptional_case.label(), cl.orientation_status))
    assert rows == [
        ((1, 2, 3), 3, 1, False, "C(3,2)", "nonorientable"),
        ((2, 3, 9), 2, 2, False, "EM(6)", "orientable_normal"),
        ((2, 3, 16), 2, 2, False, "DM(6)", "nonorientable"),
    ]
    assert all(e.violations == () for e in entries)
    assert all(e.report is not None for e in entries)


def test_census_classify_s4_oriented(corpus):
    entries = census_classify(
        enumerate_oriented(corpus["s4_3map.grp"].group))
    assert [e.tuple_ for e in entries] == [(4, 3), (7, 5)]
    # vertex count 6 is not a prime power: reported but not classified
    assert entries[0].classification is None
    assert entries[0].report is not None
    cl = entries[1].classification
    assert (cl.p, cl.k, cl.normal) == (2, 3, False)
    assert cl.exceptional_case.label() == "D(3,2)"
    assert cl.orientation_status == "reflexible"


def test_census_classify_skips_degenerate():
    entries = census_classify(enumerate_flagged(elementary_abelian(2, 2)))
    by_tuple = {e.tuple_: e for e in entries}
    degen = by_tuple[(1, 2, 1)]
    assert degen.degenerate == ("l_equals_t",)
    assert degen.report.genus_kind == "degenerate"
    assert degen.classification is None
    two_map = by_tuple[(1, 1, 2)].classification
    assert (two_map.p, two_map.k, two_map.normal) == (2, 1, True)
    # single-vertex maps are not p-maps: skipped, not an error
    assert by_tuple[(1, 2, 2)].classification is None
    assert by_tuple[(1, 2, 3)].classification is None


@pytest.mark.parametrize("fname", ["s4_3map.grp", "g72_3map.grp"])
def test_class_sizes_equal_brute_force_aut_order(corpus, fname):
    # Aut(G) acts freely on generating tuples, so every class has |Aut G|
    # members and the classes times |Aut G| cover the naive scan.
    G = corpus[fname].group
    aut = brute_aut_count(G)
    for scan, enum in ((scan_oriented_pairs, enumerate_oriented),
                       (scan_flagged_triples, enumerate_flagged)):
        entries = enum(G)
        assert entries
        assert all(e.class_size == aut for e in entries)
        assert len(entries) * aut == len(scan(G))


def _commute(G, x, y):
    return G.mul(x, y) == G.mul(y, x)


def _centre(G):
    return {z for z in range(G.order)
            if all(_commute(G, z, g) for g in range(G.order))}


def _dropped_by_centralizers(G, centre, cand):
    """Whether a centralizer rule of the census drops the candidate: its
    second entry commutes with its first, which is not central, or, for
    a flagged (t, r, l), l commutes with t and r and is not central."""
    x, y = cand[:2]
    if _commute(G, x, y) and x not in centre:
        return True
    return (len(cand) == 3 and _commute(G, cand[2], x)
            and _commute(G, cand[2], y) and cand[2] not in centre)


def _count_candidates(monkeypatch):
    """Count the candidates the census walks: the calls of _generates, each
    recorded by the key it returns, None for a tuple that does not
    generate G."""
    calls = []
    real = regmaps.census._generates

    def counted(tables, n):
        calls.append(real(tables, n))
        return calls[-1]
    monkeypatch.setattr(regmaps.census, "_generates", counted)
    return calls


# (file, oriented candidates, flagged candidates).  Per first-entry
# conjugacy class, the conjugation scan meets one candidate for each orbit
# of the centralizer on the second entries, and for flagged, per (t, r),
# one for each orbit of C_G(t) ∩ C_G(r) on the third entries; the census
# walks those whose image generates G/G′ and that no centralizer rule
# drops (see _dropped_by_centralizers).  These are group invariants, so
# they hold for any generator order.
SCAN_COUNTS = [
    ("g216_nonorientable.grp", 24, 30),
    ("g216_orientable.grp", 24, 30),
    ("g384_chiral.grp", 36, 46),
    ("g72_3map.grp", 24, 20),
    ("gl23_reflexible.grp", 23, 21),
    ("s4_3map.grp", 8, 8),
    ("s4_presentation.grp", 8, 8),
    ("s4_projective.grp", 8, 8),
    ("s4_sphere.grp", 8, 8),
]


@pytest.mark.parametrize("fname,oriented,flagged", SCAN_COUNTS,
                         ids=[row[0] for row in SCAN_COUNTS])
def test_scan_candidate_counts(corpus, monkeypatch, fname, oriented,
                               flagged):
    G = corpus[fname].group
    calls = _count_candidates(monkeypatch)
    enumerate_oriented(G)
    assert len(calls) == oriented
    del calls[:]
    enumerate_flagged(G)
    assert len(calls) == flagged


def _moves_a_third_entry(G):
    """Whether, for some involutions t and r, an element commuting with both
    moves by conjugation an involution l that commutes with t: then the
    flagged census's third entry has an orbit of more than one member."""
    n, invs = G.order, involutions(G)
    for t in invs:
        commuting = [l for l in invs if G.mul(t, l) == G.mul(l, t)]
        for r in invs:
            for c in range(n):
                if G.conj(t, c) == t and G.conj(r, c) == r and any(
                        G.conj(l, c) != l for l in commuting):
                    return True
    return False


@pytest.mark.parametrize("fname", ["s4_3map.grp", "g216_orientable.grp",
                                   "g216_nonorientable.grp"])
def test_flagged_third_entry_orbits_match_brute_force_scan(corpus, fname):
    # Each class of the brute-force scan, which spans every triple, is one
    # census entry: the same least tuple, the same size, in the same order.
    # The census walks one third entry per orbit of C_G(t) ∩ C_G(r), which
    # moves some third entries on these groups; orbits of C_G(t) alone
    # would skip least tuples and miscount the classes.
    G = corpus[fname].group
    assert _moves_a_third_entry(G)
    classes: dict = {}
    for cand in scan_flagged_triples(G):
        key = standard_table([G.row(x) for x in cand], G.order)
        classes.setdefault(key, []).append(cand)
    want = [(members[0], len(members)) for members in classes.values()]
    assert [(e.tuple_, e.class_size) for e in enumerate_flagged(G)] == want


def test_g2106_oriented_census(corpus, monkeypatch):
    # 8 classes of |Aut G| = 4212 tuples, from 48 walked candidates: the
    # conjugation scan meets 155, 96 of them have an image that generates
    # G/G′, and in 48 of those l does not commute with r
    calls = _count_candidates(monkeypatch)
    entries = enumerate_oriented(corpus["g2106_chiral.grp"].group,
                                 max_order=3000)
    assert len(calls) == 48
    assert [e.tuple_ for e in entries] == [
        (10, 1026), (40, 1026), (215, 1026), (330, 1026), (516, 1026),
        (603, 1026), (1108, 1026), (1352, 1026)]
    assert all(e.class_size == 4212 for e in entries)


def test_order_bound_enforced(corpus):
    G = corpus["g2106_chiral.grp"].group
    with pytest.raises(ResourceLimitExceeded) as exc:
        enumerate_oriented(G)
    assert exc.value.limit_name == "max_order"
    assert exc.value.limit_value == DEFAULT_CENSUS_MAX_ORDER
    with pytest.raises(ResourceLimitExceeded):
        enumerate_flagged(symmetric_group(4), max_order=10)


def test_unequal_class_sizes_raise():
    """Aut(G) acts freely on generating tuples, so a census whose classes
    differ in size is refused."""
    G = symmetric_group(4)
    a, b = enumerate_oriented(G)
    assert a.class_size == b.class_size == 24
    b.class_size = 23
    classes = {a.map.key: a, b.map.key: b}
    with pytest.raises(TheoremViolation, match="differ in size"):
        _entries(classes)
    b.class_size = 24
    assert _entries(classes) == [a, b]


# -- the G/G′ test ------------------------------------------------------------

CENSUS = {"oriented": enumerate_oriented, "flagged": enumerate_flagged}


def _census_rows(entries):
    return [(e.kind, e.tuple_, e.degenerate, e.class_size, e.map.key)
            for e in entries]


def _agl1(q):
    return realize_group_file(parse_group_file(agl1_file(q))).group


# Beyond the corpus: AGL(1,q) = C_q : C_(q-1), with G/G′ = C_(q-1); dihedral
# groups, with G/G′ of order 2 or 4; the abelian Klein group, C2^3, C2^4
# and C12, where G′ = 1 (C2^3 has flagged maps, C2^4 of rank 4 has none);
# the perfect A5, where G′ = G.
QUOTIENT_GROUPS = {
    **{f"agl1_{q}": (lambda q=q: _agl1(q)) for q in (5, 7, 11, 13)},
    **{f"d{n}": (lambda n=n: dihedral_group(n))
       for n in (3, 4, 5, 6, 8, 9, 12, 15)},
    "klein": lambda: dihedral_group(2),
    "c2^3": lambda: elementary_abelian(2, 3),
    "c2^4": lambda: elementary_abelian(2, 4),
    "c12": lambda: cyclic_group(12),
    "a5": lambda: alternating_group(5),
}


@pytest.mark.parametrize("kind", CENSUS)
def test_census_matches_conjugation_scan_on_corpus(corpus, kind):
    # dropping the tuples whose image does not generate G/G′ loses no
    # class, no representative and no weight
    for fname, rz in corpus.items():
        G = rz.group
        assert (_census_rows(CENSUS[kind](G, max_order=3000))
                == _census_rows(conjugation_census(G, kind))), fname


@pytest.mark.parametrize("name", QUOTIENT_GROUPS)
def test_census_matches_conjugation_scan(name):
    G = QUOTIENT_GROUPS[name]()
    for kind, enum in CENSUS.items():
        assert _census_rows(enum(G)) == _census_rows(
            conjugation_census(G, kind)), kind


@pytest.mark.parametrize("G", [elementary_abelian(2, 3), cyclic_group(12)],
                         ids=["c2^3", "c12"])
def test_abelian_census_walks_only_generating_tuples(monkeypatch, G):
    # G′ = 1, so a tuple's image in G/G′ is the tuple itself
    keys = _count_candidates(monkeypatch)
    for enum in CENSUS.values():
        enum(G)
    assert keys
    assert None not in keys


@pytest.mark.parametrize("kind", CENSUS)
def test_rank6_abelian_census_is_empty_in_under_1_mb(kind):
    # (Z2)^6 = G/G′ needs six generators: a pair's image has order at most
    # 4, and three involutions span at most 8 elements.  The rules decide
    # each prefix without listing the tuples of labels that complete it.
    G = elementary_abelian(2, 6)
    tracemalloc.start()
    try:
        entries = CENSUS[kind](G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert entries == []
    assert peak < 10**6


def test_perfect_group_drops_nothing_and_builds_no_labels(monkeypatch):
    G = alternating_group(5)

    def refuse(*args):
        raise AssertionError("labels built for a perfect group")
    monkeypatch.setattr(regmaps.census, "coset_action", refuse)
    calls = _count_candidates(monkeypatch)
    centre = _centre(G)
    # the scan meets 17 oriented and 18 flagged candidates; the centralizer
    # rules keep 14 and 9, and the G/G′ test drops none of those
    for (kind, enum), want in zip(CENSUS.items(), (14, 9)):
        del calls[:]
        entries = enum(G)
        assert entries
        kept = [cand for cand, _ in CONJUGATION_SCANS[kind][0](G)
                if not _dropped_by_centralizers(G, centre, cand)]
        assert len(calls) == len(kept) == want


def _small_groups(corpus):
    return ([(name, rz.group) for name, rz in corpus.items()
             if rz.group.order <= 384]
            + [(name, make()) for name, make in QUOTIENT_GROUPS.items()])


def test_labels_are_the_cosets_of_the_derived_subgroup(corpus):
    for name, G in _small_groups(corpus):
        derived = brute_derived(G, range(G.order))
        quo = _Abelianization(G, involutions(G))
        if len(derived) == G.order:
            assert quo.label is None, name
            continue
        cosets: dict = {}
        for x, a in enumerate(quo.label):
            cosets.setdefault(a, set()).add(x)
        want = {frozenset(G.mul(d, x) for d in derived)
                for x in range(G.order)}
        assert {frozenset(c) for c in cosets.values()} == want, name
        assert quo.order == len(want)


def test_dropped_tuples_do_not_generate(corpus):
    # Every candidate of the conjugation scan that the G/G′ test of its
    # kind drops fails to generate G.  The count pins how much the test
    # drops: 1971 as before klein and c2^4 joined QUOTIENT_GROUPS (1516 on
    # the corpus, the scan counts less the SCAN_COUNTS pins, and 455 on
    # the other groups), 6 on klein and all 3600 scanned on c2^4.
    dropped = 0
    for name, G in _small_groups(corpus):
        quo = _Abelianization(G, involutions(G))
        for kind, (scan, _) in CONJUGATION_SCANS.items():
            for cand, _ in scan(G):
                if kind == "oriented":
                    kept = quo.oriented(cand[0], [cand[1]])
                else:
                    kept = quo.flagged(cand[:2], [cand[2]])
                if not kept:
                    dropped += 1
                    assert standard_table([G.row(x) for x in cand],
                                          G.order) is None, (name, cand)
    assert dropped == 1971 + 6 + 3600


def test_centralizer_rules_drop_only_tuples_that_do_not_generate(corpus):
    # An entry that commutes with every entry of a generating tuple is
    # central.  D6, C2^2 and C2^3 have generating tuples with such an
    # entry, so without their exceptions for a central entry the rules
    # would drop the 210 spared here; Q8 x C2 has a centre of order 4.
    groups = ([rz.group for rz in corpus.values() if rz.group.order <= 384]
              + [alternating_group(5), symmetric_group(4), dihedral_group(6),
                 elementary_abelian(2, 2), elementary_abelian(2, 3),
                 DIRECT_PRODUCTS[2]])
    dropped = spared = 0
    for G in groups:
        centre = _centre(G)
        for kind, (scan, _) in CONJUGATION_SCANS.items():
            for cand, _ in scan(G):
                key = standard_table([G.row(x) for x in cand], G.order)
                if _dropped_by_centralizers(G, centre, cand):
                    dropped += 1
                    assert key is None, (kind, cand)
                elif _dropped_by_centralizers(G, set(), cand):
                    spared += key is not None
    assert (dropped, spared) == (1358, 210)


def _count_derived_subgroups(monkeypatch):
    """Count derived_subgroup calls, by the census's name for it and by
    the group module's, which derived_series reads."""
    calls = []
    real = regmaps.group.derived_subgroup

    def counted(*args):
        calls.append(args)
        return real(*args)
    for module in (regmaps.group, regmaps.census):
        monkeypatch.setattr(module, "derived_subgroup", counted)
    return calls


@pytest.mark.parametrize("kind", CENSUS)
def test_census_and_report_share_one_derived_series(corpus, tmp_path,
                                                    monkeypatch, capsys,
                                                    kind):
    # The census takes G′ alone, and the report's is_solvable reads no
    # series, since |G| = 2^7 * 3 has two prime divisors (Burnside): one
    # derived_subgroup call, where the series would take three.
    series = derived_series(corpus["g384_chiral.grp"].group)
    assert [s.order for s in series] == [384, 96, 16, 1]
    f = tmp_path / "g384_chiral.grp"
    f.write_text(corpus_text("g384_chiral.grp"), encoding="utf-8")
    calls = _count_derived_subgroups(monkeypatch)
    assert cli.main(["census", str(f), "--kind", kind, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["group"]["solvable"]
    assert len(calls) == 1


def test_refused_census_builds_no_derived_series(tmp_path, monkeypatch,
                                                 capsys):
    calls = _count_derived_subgroups(monkeypatch)
    # refused in realization: the CLI realizes under the census bound
    f = tmp_path / "g384_chiral.grp"
    f.write_text(corpus_text("g384_chiral.grp"), encoding="utf-8")
    assert cli.main(["census", str(f), "--kind", "oriented",
                     "--max-order", "100"]) == 5
    capsys.readouterr()
    # refused by the census's own bound, on a group already listed
    for enum in CENSUS.values():
        with pytest.raises(ResourceLimitExceeded):
            enum(symmetric_group(4), max_order=10)
    assert calls == []
