import sys
from importlib import import_module

import pytest

import regmaps.group
from regmaps.census import enumerate_flagged, enumerate_oriented
from regmaps.classify import (ExceptionalCase, SylowStructure,
                              _elementary_quotient, _orientation_status,
                              _splits_elementary,
                              certify_sylow_structure, classify,
                              detect_p_map, identify_exceptional)
from regmaps.errors import (ClassificationError, ContractViolation,
                            TheoremViolation)
from regmaps.grammar import parse_group_file, realize_group_file
from regmaps.group import (closure, is_extraspecial, is_normal,
                           isomorphism_search, normal_core, o_p, omega1,
                           quotient_group, regenerated, sylow_p)
from regmaps.maps import FlaggedMap, OrientedMap, oriented_of_flagged
from regmaps.perm import Perm
from regmaps.standard import (alternating_group, quaternion_group,
                              symmetric_group)
from standard_groups import (census_zoo, cyclic_group, dihedral_group,
                             elementary_abelian, klein_four_group)

import oracles

# A flagged dipole carrier: C15 x| (C2 x C2), the two involutions acting
# as inversion on the 3-part and the 5-part separately.
DIPOLE60 = """\
group dip60
gens c, u, w
rel c^15
rel u^2
rel w^2
rel [u, w]
rel c^u = c^11
rel c^w = c^4
map m : flagged t=u*w r=u*w*c l=u
"""


@pytest.fixture(scope="module")
def dip60():
    return realize_group_file(parse_group_file(DIPOLE60)).maps["m"]


def test_detect_p_map_on_corpus(corpus):
    expected = {
        "s4_3map.grp": (3, 1),
        "g72_3map.grp": (3, 2),
        "g384_chiral.grp": (2, 6),
        "gl23_reflexible.grp": (2, 3),
        "s4_projective.grp": (2, 2),
        "s4_sphere.grp": (2, 2),
        "g2106_chiral.grp": (3, 3),
        "g216_orientable.grp": (3, 2),
        "g216_nonorientable.grp": (3, 2),
    }
    for fname, pk in expected.items():
        assert detect_p_map(corpus[fname].maps["m"]) == pk


def test_a_degenerate_map_is_not_a_p_map():
    # one vertex each, as t and r generate G
    for m in (FlaggedMap(dihedral_group(4), 2, 4, 2),  # l = t
              FlaggedMap(klein_four_group(), 1, 2, 0)):  # l trivial
        assert m.degenerate and detect_p_map(m) is None


def test_detect_p_map_rejects_mixed_vertex_count():
    D6 = dihedral_group(6)
    rot = next(g for g in range(D6.order) if D6.order_of(g) == 6)
    refl = next(g for g in range(1, D6.order)
                if D6.mul(g, g) == 0
                and g not in D6.subgroup((rot,)).members)
    m = OrientedMap(D6, refl, next(
        h for h in range(1, D6.order)
        if D6.mul(h, h) == 0 and h != refl
        and D6.subgroup((refl, h)).is_improper()))
    assert m.vef_counts()[0] == 6
    assert detect_p_map(m) is None
    with pytest.raises(ContractViolation):
        classify(m)


def test_classify_nonnormal_corpus_maps(corpus):
    cl = classify(corpus["s4_3map.grp"].maps["m"])
    assert (cl.p, cl.k, cl.normal) == (3, 1, False)
    assert cl.orientation_status == "nonorientable"
    assert cl.exceptional_case.label() == "C(3,2)"
    assert cl.quotient_order == 24

    cl = classify(corpus["g72_3map.grp"].maps["m"])
    assert (cl.p, cl.k, cl.normal) == (3, 2, False)
    assert cl.exceptional_case.label() == "C(3,2)"

    cl = classify(corpus["g384_chiral.grp"].maps["m"])
    assert (cl.p, cl.k, cl.normal) == (2, 6, False)
    assert cl.orientation_status == "chiral"
    assert cl.exceptional_case == ExceptionalCase("dipole", m=3, e=2)
    assert cl.quotient_order == 6

    cl = classify(corpus["gl23_reflexible.grp"].maps["m"])
    assert cl.orientation_status == "reflexible"
    assert cl.exceptional_case.label() == "D(3,2)"

    cl = classify(corpus["s4_projective.grp"].maps["m"])
    assert cl.orientation_status == "nonorientable"
    assert cl.exceptional_case.label() == "DM(6)"

    cl = classify(corpus["s4_sphere.grp"].maps["m"])
    assert cl.orientation_status == "orientable_normal"
    assert cl.exceptional_case.label() == "EM(6)"


def test_classify_normal_corpus_maps(corpus):
    for fname, status in [("g2106_chiral.grp", "chiral"),
                          ("g216_orientable.grp", "orientable_normal"),
                          ("g216_nonorientable.grp", "nonorientable")]:
        cl = classify(corpus[fname].maps["m"])
        assert cl.normal and cl.solvable
        assert cl.exceptional_case is None and cl.quotient_order is None
        assert cl.orientation_status == status


def test_classify_refuses_degenerate():
    V4 = klein_four_group()
    with pytest.raises(ContractViolation):
        classify(FlaggedMap(V4, 1, 2, 1))
    with pytest.raises(ContractViolation):
        oracles.verify_classification_law(FlaggedMap(V4, 1, 2, 1))


def test_dipole_with_larger_parameters(dip60):
    cl = classify(dip60)
    assert (cl.p, cl.k, cl.normal) == (2, 1, False)
    assert cl.exceptional_case == ExceptionalCase("dipole", m=15, e=4)
    assert cl.quotient_order == 60


def test_law_branches(corpus, dip60):
    assert oracles.verify_classification_law(
        corpus["s4_3map.grp"].maps["m"]).branch == "s4_quotient"
    assert oracles.verify_classification_law(
        corpus["g72_3map.grp"].maps["m"]).branch == "s4_quotient"
    for fname in ("gl23_reflexible.grp", "g384_chiral.grp",
                  "s4_projective.grp", "s4_sphere.grp"):
        chk = oracles.verify_classification_law(corpus[fname].maps["m"])
        assert chk.branch == "cyclic_by_z2"
        assert chk.odd_part_order == 3 and chk.quotient_index == 2
    for fname in ("g2106_chiral.grp", "g216_orientable.grp",
                  "g216_nonorientable.grp"):
        assert oracles.verify_classification_law(
            corpus[fname].maps["m"]).branch == "normal"
    chk = oracles.verify_classification_law(dip60)
    assert chk.branch == "cyclic_by_klein"
    assert chk.odd_part_order == 15 and chk.quotient_index == 4


def test_identify_exceptional_impossible_branches(corpus):
    gl23 = corpus["gl23_reflexible.grp"].maps["m"]
    with pytest.raises(TheoremViolation):
        identify_exceptional(gl23, 3)  # oriented 3-map quotients don't exist
    with pytest.raises(TheoremViolation):
        identify_exceptional(gl23, 5)


def test_identify_dipole_rejections(corpus):
    gl23 = corpus["gl23_reflexible.grp"].maps["m"]
    with pytest.raises(ClassificationError):
        identify_exceptional(gl23, 2)  # eight vertices
    # two vertices but even edge multiplicity
    D4 = dihedral_group(4)
    rot = next(g for g in range(D4.order) if D4.order_of(g) == 4)
    refl = next(g for g in range(1, D4.order)
                if D4.mul(g, g) == 0
                and g not in D4.subgroup((rot,)).members)
    with pytest.raises(ClassificationError):
        identify_exceptional(OrientedMap(D4, rot, refl), 2)


def test_identify_semistar_rejections(corpus):
    with pytest.raises(ClassificationError):
        # not degenerate, so read as a dipole: not orientable
        identify_exceptional(corpus["s4_3map.grp"].maps["m"], 2)
    V4 = klein_four_group()
    with pytest.raises(ClassificationError):
        identify_exceptional(FlaggedMap(V4, 1, 2, 1), 2)  # half part is even


# (group, defining tuple, p) -> the label or the whole ClassificationError
# message; element indices are those of the groups in standard_groups
IDENTIFIED = [
    ("V4", (1, 1, 2), 2, "dipole check: rotation must not be the identity"),
    ("D4", (2, 4, 3), 2, "dipole check: map is not orientable"),
    ("D3", (2, 4, 2), 3, "a degenerate map is not the exceptional 3-map"),
    ("D4", (2, 4, 2), 2, "semistar group must be dihedral of twice-odd"
                         " order >= 6, found order 8"),
    ("D3", (2, 4), 2, "a dipole has 2 vertices, found 3"),
    ("D4", (1, 2), 2, "dipole edge count must be odd and >= 3, found 4"),
    ("D6", (2, 7, 11), 2, "dipole exponent 1 mod 3 is invalid"),
    ("D6", (2, 7, 6), 2, "D(3,2)"),
    ("D5", (1, 2), 2, "D(5,4)"),
    ("D3", (2, 4, 2), 2, "EM(6)"),
]


def _small_group(name):
    return klein_four_group() if name == "V4" else dihedral_group(int(name[1:]))


def _identified(m, p=2) -> str:
    try:
        return identify_exceptional(m, p).label()
    except ClassificationError as exc:
        return str(exc)


@pytest.mark.parametrize("group,tuple_,p,want", IDENTIFIED,
                         ids=[f"{g}{t}p{p}" for g, t, p, _ in IDENTIFIED])
def test_identify_exceptional_outcome_is_pinned(group, tuple_, p, want):
    cls = FlaggedMap if len(tuple_) == 3 else OrientedMap
    assert _identified(cls(_small_group(group), *tuple_), p) == want


def _identified_on_closed_even_subgroup(m) -> str:
    """The flagged dipole check as it was made on G+ closed as a group of
    its own: the oriented form, then the oriented identification."""
    try:
        om = oriented_of_flagged(m)
    except ContractViolation as exc:
        return f"dipole check: {exc}"
    return _identified(om)


def test_flagged_dipole_read_in_g_matches_the_closed_even_subgroup(corpus):
    """Every nondegenerate flagged map of these censuses is identified the
    same way inside G as on its even-word subgroup closed on its own."""
    groups = [dihedral_group(n) for n in range(3, 16)]
    groups += [klein_four_group(), elementary_abelian(2, 3),
               alternating_group(4), symmetric_group(4)]
    groups += [rz.group for rz in corpus.values() if rz.group.order <= 400]
    seen = set()
    for G in groups:
        for entry in enumerate_flagged(G):
            m = entry.map
            if not m.degenerate:
                got = _identified(m)
                assert got == _identified_on_closed_even_subgroup(m), m
                seen.add(got)
    assert {"D(3,2)", "D(5,4)", "dipole check: map is not orientable",
            "dipole check: rotation must not be the identity"} <= seen


def test_a_flagged_dipole_is_identified_without_a_closure(monkeypatch):
    m = FlaggedMap(dihedral_group(6), 2, 7, 6)
    calls = []
    real = regmaps.group.closure
    monkeypatch.setattr(regmaps.group, "closure",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    assert identify_exceptional(m, 2) == ExceptionalCase("dipole", m=3, e=2)
    assert calls == []


def test_the_s4_quotient_is_identified_without_a_search(corpus, monkeypatch):
    def search(*args):
        raise AssertionError("isomorphism_search called")

    # at every name a package module binds it to
    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "regmaps"
                and hasattr(module, "isomorphism_search")):
            monkeypatch.setattr(module, "isomorphism_search", search)
    for fname in ("s4_3map.grp", "g72_3map.grp"):
        case = classify(corpus[fname].maps["m"]).exceptional_case
        assert case.label() == "C(3,2)"


def _order_24_groups(corpus):
    """S4, D12 and four products of order 24 as permutation groups, then
    the quotients by O_3 of the corpus groups of the S4 maps."""
    def group(degree, *cycles):
        return closure(degree, [Perm.from_cycles(c, degree) for c in cycles])

    yield "S4", symmetric_group(4)
    yield "D12", dihedral_group(12)
    yield "A4xC2", group(6, [(0, 1, 2)], [(1, 2, 3)], [(4, 5)])
    yield "S3xC4", group(7, [(0, 1, 2)], [(0, 1)], [(3, 4, 5, 6)])
    yield "S3xC2^2", group(7, [(0, 1, 2)], [(0, 1)], [(3, 4)], [(5, 6)])
    yield "D6xC2", group(8, [(0, 1, 2, 3, 4, 5)], [(1, 5), (2, 4)], [(6, 7)])
    for fname in ("g72_3map.grp", "s4_3map.grp", "s4_projective.grp",
                  "s4_sphere.grp"):
        G = corpus[fname].group
        yield fname, quotient_group(G, o_p(G, 3))[0]


def test_the_face_core_certificate_is_the_s4_search(corpus):
    """On every nonorientable flagged map with (V, E, F) = (3, 6, 4) of
    these groups, a trivial core of the face subgroup holds exactly when
    the group is S4; only the S4s carry such maps.  The lemma behind it,
    that a subgroup of order 6 has a trivial core only in S4, is checked
    on every such subgroup generated by two elements."""
    S4 = symmetric_group(4)
    carriers = set()
    for name, G in _order_24_groups(corpus):
        assert G.order == 24, name
        is_s4 = isomorphism_search(G, S4)
        cores = {normal_core(G, H).order == 1
                 for H in (G.subgroup((x, y)) for x in range(24)
                           for y in range(x, 24))
                 if H.order == 6}
        assert cores == {is_s4}, name
        for entry in enumerate_flagged(G):
            m = entry.map
            if (m.degenerate or m.vef_counts() != (3, 6, 4)
                    or m.is_orientable()):
                continue
            carriers.add(name)
            assert ((normal_core(G, m.face_subgroup).order == 1)
                    == is_s4), (name, m)
    assert carriers == {"S4", "g72_3map.grp", "s4_3map.grp",
                        "s4_projective.grp", "s4_sphere.grp"}


def test_dihedral_dipoles_have_exponent_minus_one():
    # D_m with its rotation and a reflection: two vertices, m edges, and
    # the reflection inverts the rotation
    for m in (*range(3, 256, 2), 301):  # 301 points hold tuple elements
        G = dihedral_group(m)
        r, l = G.gen_indices
        assert (identify_exceptional(OrientedMap(G, r, l), 2)
                == ExceptionalCase("dipole", m=m, e=m - 1)), m


# classify's exceptional kind -> the branches of the structure law it allows
LAW_OF_KIND = {None: {"normal"}, "c32": {"s4_quotient"},
               "dipole": {"cyclic_by_z2", "cyclic_by_klein"},
               "disc_semistar": {"cyclic_by_z2", "cyclic_by_klein"},
               "sphere_semistar": {"cyclic_by_z2", "cyclic_by_klein"}}


def test_the_law_agrees_with_classify_on_small_censuses(corpus):
    """The structure law, which proves an S4 quotient by an isomorphism
    search, against classify on every p-map of both censuses of a zoo."""
    branches = set()
    for G in census_zoo(corpus):
        for census in (enumerate_oriented, enumerate_flagged):
            for entry in census(G):
                m = entry.map
                if detect_p_map(m) is None:
                    continue
                case = classify(m).exceptional_case
                branch = oracles.verify_classification_law(m).branch
                assert branch in LAW_OF_KIND[case and case.kind], (
                    G.order, m.kind, entry.tuple_)
                branches.add(branch)
    assert {"normal", "cyclic_by_z2", "s4_quotient"} <= branches


def test_certify_preconditions(corpus):
    with pytest.raises(ContractViolation):
        certify_sylow_structure(corpus["s4_3map.grp"].maps["m"])  # nonnormal
    V4 = klein_four_group()
    with pytest.raises(ContractViolation):
        certify_sylow_structure(FlaggedMap(V4, 1, 2, 1))  # degenerate
    # normal but imprimitive: D4 on the cosets of a reflection
    D4 = dihedral_group(4)
    refls = [g for g in range(1, D4.order) if D4.mul(g, g) == 0]
    t, l = next((t, l) for t in refls for l in refls
                if t != l and D4.subgroup((t, l)).is_improper())
    m = OrientedMap(D4, t, l)
    assert m.vef_counts()[0] == 4
    with pytest.raises(ContractViolation):
        certify_sylow_structure(m)


def test_certify_flagged_odd_exponent_splits_elementary():
    # E8 with the basis triple: two vertices, so k = 1, and the degree-2
    # vertex action is trivially primitive.  P = E8 splits as P0 x C2 with
    # P0 the vertex kernel, of order 4.
    E8 = elementary_abelian(2, 3)
    t, r, l = E8.gen_indices
    m = FlaggedMap(E8, t, r, l)
    assert detect_p_map(m) == (2, 1)
    assert certify_sylow_structure(m) == SylowStructure(
        "direct_product_elementary", 4, 1, None)


def test_certify_corpus_structures(corpus):
    st = certify_sylow_structure(corpus["g2106_chiral.grp"].maps["m"])
    assert st.case_tag == "direct_product_elementary"
    assert st.complement_rank == 3 and st.p0_order == 3

    st = certify_sylow_structure(corpus["g216_orientable.grp"].maps["m"])
    assert st.case_tag == "direct_product_elementary"
    assert st.complement_rank == 2 and st.p0_order == 3

    st = certify_sylow_structure(corpus["g216_nonorientable.grp"].maps["m"])
    assert st.case_tag == "central_product_extraspecial"
    assert st.extraspecial_order == 27 and st.p0_order == 3


def _s4_x_c2():
    """S4 x C2 on 4 + 2 points; its flagged census holds the cube, whose
    even-word subgroup S4 has a nonnormal Sylow 2-subgroup."""
    return closure(6, [Perm((1, 0, 2, 3, 4, 5)), Perm((1, 2, 3, 0, 4, 5)),
                       Perm((0, 1, 2, 3, 5, 4))])


@pytest.mark.parametrize("name", ["s4_3map.grp", "g72_3map.grp",
                                  "g216_orientable.grp",
                                  "g216_nonorientable.grp", "S4xC2"])
def test_orientation_status_matches_closed_even_subgroup(corpus, name):
    """The p-element count agrees with closing the even-word subgroup as its
    own group and testing its Sylow p-subgroup for normality."""
    G = _s4_x_c2() if name == "S4xC2" else corpus[name].group
    seen = []
    for entry in enumerate_flagged(G):
        m = entry.map
        pk = detect_p_map(m)
        if m.degenerate or pk is None or not m.is_orientable():
            continue
        p = pk[0]
        plus = regenerated(G, (G.mul(m.t, m.r), G.mul(m.t, m.l)))
        want = ("orientable_normal" if is_normal(plus, sylow_p(plus, p))
                else "reflexible")
        assert _orientation_status(m, p) == want
        seen.append(want)
    assert seen
    if name == "S4xC2":
        assert sorted(set(seen)) == ["orientable_normal", "reflexible"]


# -- the certifier's two criteria on hand-built p-groups -----------------------

def _presented(text):
    return realize_group_file(parse_group_file(text)).group


HE3 = """\
group he3
gens a, b
rel a^3
rel b^3
rel [a, b]^3
rel [[a, b], a]
rel [[a, b], b]
"""

# the extraspecial group of order 27 and exponent 9
M27 = """\
group m27
gens a, b
rel a^9
rel b^3
rel a^b = a^4
"""

# the central product of D8 and C4 (the Pauli group), order 16
D8oC4 = """\
group pauli
gens a, b, c
rel a^4
rel b^2
rel a^b = a^3
rel c^2 = a^2
rel [a, c]
rel [b, c]
"""


def _direct(*factors):
    """Direct product of permutation groups, each factor on its own points."""
    degree = sum(G.degree for G in factors)
    gens, shift = [], 0
    for G in factors:
        for g in G.gen_indices:
            img = tuple(shift + x for x in G.elements[g])
            gens.append(Perm(tuple(range(shift)) + img
                             + tuple(range(shift + G.degree, degree))))
        shift += G.degree
    return closure(degree, gens)


@pytest.fixture(scope="module")
def p_groups():
    """Name -> (group, p) for the hand-built p-groups of order 8 to 81."""
    C2, C3, C4, C9 = (cyclic_group(n) for n in (2, 3, 4, 9))
    D8, Q8, He3 = dihedral_group(4), quaternion_group(), _presented(HE3)
    return {
        "C2xC4": (_direct(C2, C4), 2), "C4xC4": (_direct(C4, C4), 2),
        "D8": (D8, 2), "Q8": (Q8, 2), "D16": (dihedral_group(8), 2),
        "C2xD8": (_direct(C2, D8), 2), "C2xQ8": (_direct(C2, Q8), 2),
        "C2^3": (elementary_abelian(2, 3), 2),
        "C3xC9": (_direct(C3, C9), 3), "He3": (He3, 3),
        "He3xC3": (_direct(He3, C3), 3), "C9xC9": (_direct(C9, C9), 3),
        "C4xD8": (_direct(C4, D8), 2), "C2xC2xC4": (_direct(C2, C2, C4), 2),
        "M27": (_presented(M27), 3), "D8oC4": (_presented(D8oC4), 2),
    }


def _normal_2_generated(G):
    """Every normal subgroup of G generated by at most two elements."""
    found = {}
    for a in range(G.order):
        for b in range(a, G.order):
            N = G.subgroup((a, b))
            if N.members not in found and is_normal(G, N):
                found[N.members] = N
    return list(found.values())


def test_splits_elementary_matches_backtracking_oracle(p_groups):
    pairs = 0
    for name, (G, p) in p_groups.items():
        P = G.improper_subgroup()
        for P0 in _normal_2_generated(G):
            want = oracles.brute_elementary_complement(G, P, P0, p)
            got = _splits_elementary(G, P, P0, p)
            assert got == (want is not None), (name, P0.order)
            pairs += 1
    assert pairs >= 200


def test_is_extraspecial_matches_brute_force(p_groups):
    for name, want in [("Q8", True), ("D8", True), ("He3", True),
                       ("M27", True), ("C2xQ8", False), ("He3xC3", False),
                       ("D8oC4", False)]:
        G, p = p_groups[name]
        P = G.improper_subgroup()
        assert oracles.brute_is_extraspecial(G, P.members, p) == want, name
        assert is_extraspecial(P, p) == want, name


def test_certify_labels_a_sylow_of_neither_shape(corpus, monkeypatch):
    # g216_orientable has an abelian Sylow 3-subgroup, so without the
    # direct split no extraspecial branch can apply either, and its P/P0 is
    # C3^2.  The module is looked up by import, since regmaps.classify
    # names the function.
    classify_module = import_module("regmaps.classify")
    monkeypatch.setattr(classify_module, "_splits_elementary",
                        lambda *args: False)
    m = corpus["g216_orientable.grp"].maps["m"]
    assert certify_sylow_structure(m) == SylowStructure(
        "elementary_quotient", 3, None, None)
    monkeypatch.setattr(classify_module, "_elementary_quotient",
                        lambda *args: False)
    with pytest.raises(TheoremViolation, match="not elementary abelian"):
        certify_sylow_structure(m)


def test_elementary_quotient_tests_powers_and_commutators(corpus):
    # Over the trivial P0, C9 fails only the power test and the
    # extraspecial group of order 27 and exponent 3 only the commutator
    # test; C9 over C3 and C3^2 over 1 pass both
    C9 = cyclic_group(9)
    g = C9.gen_indices[0]
    assert not _elementary_quotient(C9, C9.improper_subgroup(),
                                    C9.subgroup(()), 3, 2)
    assert _elementary_quotient(C9, C9.improper_subgroup(),
                                C9.subgroup((C9.power(g, 3),)), 3, 1)
    G = corpus["g216_nonorientable.grp"].group
    E = omega1(sylow_p(G, 3), 3)
    assert E.order == 27 and is_extraspecial(E, 3)
    assert all(G.power(x, 3) == 0 for x in E.members)
    assert not _elementary_quotient(G, E, G.subgroup(()), 3, 3)
    V = elementary_abelian(3, 2)
    assert _elementary_quotient(V, V.improper_subgroup(), V.subgroup(()),
                                3, 2)
