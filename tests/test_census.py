import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (brute_aut_count, brute_automorphism, full_census_flagged,
                     full_census_oriented, scan_flagged_triples,
                     scan_oriented_pairs)
import regmaps.census
from regmaps.census import (DEFAULT_CENSUS_MAX_ORDER, _entries,
                            census_classify, enumerate_flagged,
                            enumerate_oriented)
from regmaps.errors import ResourceLimitExceeded, TheoremViolation
from regmaps.group import closure
from regmaps.maps import FlaggedMap, OrientedMap, maps_isomorphic
from regmaps.perm import Perm
from regmaps.standard import (alternating_group, cyclic_group, dihedral_group,
                              elementary_abelian, klein_four_group,
                              quaternion_group, symmetric_group)

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
                    if maps_isomorphic(m, e.map)]
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
    gens = [Perm(A.elements[g] + fix_b) for g in A.gen_indices]
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
        mir = e.map.mirror()
        hits = [i for i, o in enumerate(entries)
                if maps_isomorphic(mir, o.map)]
        assert len(hits) == 1
        partner.append(hits[0])
    assert sorted(partner) == list(range(len(entries)))
    for i, j in enumerate(partner):
        assert partner[j] == i
        assert (i == j) == entries[i].map.is_reflexible()
    assert sum(1 for i, j in enumerate(partner) if i == j) \
        == reflexible_classes


def test_reflexibility_matches_brute_automorphism(corpus):
    # is_reflexible reads the mirror's key off the map's own key; the
    # oracle looks for an automorphism inverting r and fixing l directly.
    seen = chiral = 0
    for rz in corpus.values():
        G = rz.group
        if G.order > 384:
            continue
        for e in enumerate_oriented(G):
            m = e.map
            want = brute_automorphism(G, (m.r, m.l), (G.inv(m.r), m.l))
            assert m.is_reflexible() == want, (rz.gf.name, e.tuple_)
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
    assert maps_isomorphic(entries[0].map.mirror(), entries[3].map)
    assert maps_isomorphic(entries[1].map.mirror(), entries[2].map)
    assert not any(e.map.is_reflexible() for e in entries)
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


def _count_candidates(monkeypatch):
    """Count the candidates the census scans: the calls of _generates."""
    calls = []
    real = regmaps.census._generates

    def counted(tables, n):
        calls.append(n)
        return real(tables, n)
    monkeypatch.setattr(regmaps.census, "_generates", counted)
    return calls


# (file, oriented candidates, flagged candidates).  Per first-entry
# conjugacy class, the scan tests one candidate for each orbit of the
# centralizer on the second entries, times |commuting[t]| for flagged.
# These are group invariants, so they hold for any generator order.
SCAN_COUNTS = [
    ("g216_nonorientable.grp", 90, 231),
    ("g216_orientable.grp", 102, 245),
    ("g384_chiral.grp", 185, 943),
    ("g72_3map.grp", 38, 63),
    ("gl23_reflexible.grp", 32, 50),
    ("s4_3map.grp", 16, 35),
    ("s4_presentation.grp", 16, 35),
    ("s4_projective.grp", 16, 35),
    ("s4_sphere.grp", 16, 35),
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


def test_g2106_oriented_census(corpus, monkeypatch):
    # 8 classes of |Aut G| = 4212 tuples, from 155 scanned candidates
    calls = _count_candidates(monkeypatch)
    entries = enumerate_oriented(corpus["g2106_chiral.grp"].group,
                                 max_order=3000)
    assert len(calls) == 155
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
    classes = {a.map.key: [a.map, 24], b.map.key: [b.map, 23]}
    with pytest.raises(TheoremViolation, match="differ in size"):
        _entries(classes)
    classes[b.map.key][1] = 24
    assert [e.tuple_ for e in _entries(classes)] == [a.tuple_, b.tuple_]
