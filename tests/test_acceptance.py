"""End-to-end acceptance checks over the bundled corpus.

One test per numbered criterion; each prints a single measured-result line
(visible with ``pytest -s`` or on failure).  Every comparison is exact
integer or label equality.
"""

from oracles import (brute_automorphism, brute_core, brute_is_solvable,
                     int_p_part, is_p_subgroup)
from regmaps.census import (census_classify, enumerate_flagged,
                            enumerate_oriented)
from regmaps.classify import certify_sylow_structure, classify
from regmaps.coset_enum import todd_coxeter
from regmaps.grammar import parse_group_file
from regmaps.group import (coset_action, is_normal, is_primitive, is_solvable,
                           isomorphism_search, normal_core, o_p,
                           prime_factors, regenerated, sylow_p)
from regmaps.maps import oriented_of_flagged, quotient_map
from regmaps.standard import (alternating_group, quaternion_group,
                              symmetric_group)
from standard_groups import (cyclic_group, dihedral_group, elementary_abelian,
                             klein_four_group)
from regmaps.verify import corpus_text


def _check(cid: str, detail: str, got, want) -> None:
    ok = got == want
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")
    assert got == want, f"{cid}: got {got!r}, want {want!r}"


def _iso(G, sub, reference) -> bool:
    return isomorphism_search(regenerated(G, tuple(sub.gens)), reference)


def test_c01_s4_flagged_3_map(corpus):
    m = corpus["s4_3map.grp"].maps["m"]
    rep = m.report()
    cl = classify(m)
    got = (m.vef_counts(), rep.orientable, rep.genus_kind, rep.genus,
           (cl.p, cl.k), cl.solvable, cl.normal, cl.exceptional_case.label())
    want = ((3, 6, 4), False, "crosscap_number", 1, (3, 1), True, False,
            "C(3,2)")
    _check("C01",
           f"s4 flagged 3-map: V/E/F={rep.vertices}/{rep.edges}/{rep.faces},"
           f" crosscap={rep.genus}, ({cl.p},{cl.k}), normal={cl.normal},"
           f" case={cl.exceptional_case.label()}",
           got, want)


def test_c02_g72_quotient_is_the_s4_map(corpus):
    rz = corpus["g72_3map.grp"]
    m = rz.maps["m"]
    rep = m.report()
    cl = classify(m)
    core = o_p(rz.group, 3)
    qm = quotient_map(m, core)
    iso = isomorphism_search(qm.group, symmetric_group(4))
    got = (m.vef_counts(), rep.orientable, rep.genus_kind, rep.genus,
           core.order, qm.group.order, qm.vef_counts()[0], iso,
           cl.exceptional_case.label(), cl.quotient_order)
    want = ((9, 18, 4), False, "crosscap_number", 7, 3, 24, 3, True,
            "C(3,2)", 24)
    _check("C02",
           f"g72 flagged 3-map: V/E/F={rep.vertices}/{rep.edges}/{rep.faces},"
           f" crosscap={rep.genus}, |O_3|={core.order}, quotient order"
           f" {qm.group.order} with {qm.vef_counts()[0]} vertices,"
           f" iso_to_s4={iso}, case={cl.exceptional_case.label()}",
           got, want)


def test_c03_g384_chiral_dipole_quotient(corpus):
    rz = corpus["g384_chiral.grp"]
    G = rz.group
    m = rz.maps["m"]
    rep = m.report()
    cl = classify(m)
    mirror = brute_automorphism(G, (m.r, m.l), (G.inv(m.r), m.l))
    case = cl.exceptional_case
    got = (m.vef_counts(), rep.genus_kind, rep.genus, mirror, rep.reflexible,
           cl.orientation_status, (case.kind, case.m, case.e),
           cl.quotient_order)
    want = ((64, 192, 96), "orientable_genus", 17, False, False, "chiral",
            ("dipole", 3, 2), 6)
    _check("C03",
           f"g384 oriented 2-map: V/E/F={rep.vertices}/{rep.edges}"
           f"/{rep.faces}, genus={rep.genus}, mirror_exists={mirror},"
           f" status={cl.orientation_status}, case={case.label()} (e={case.e})",
           got, want)


def test_c04_gl23_reflexible_dipole_quotient(corpus):
    rz = corpus["gl23_reflexible.grp"]
    G = rz.group
    m = rz.maps["m"]
    rep = m.report()
    cl = classify(m)
    z = G.power(m.r, 3)
    sigma = brute_automorphism(G, (m.r, m.l), (m.r, G.mul(z, m.l)))
    composite = brute_automorphism(G, (m.r, m.l), (G.inv(m.r), m.l))
    core = o_p(G, 2)
    q8 = _iso(G, core, quaternion_group())
    got = (G.order, G.order_of(m.r), G.order_of(G.mul(m.r, m.l)),
           m.vef_counts(), rep.euler, rep.genus, sigma, composite,
           rep.reflexible, core.order, q8, cl.exceptional_case.label())
    want = (48, 6, 8, (8, 24, 6), -10, 6, True, True, True, 8, True,
            "D(3,2)")
    _check("C04",
           f"gl23 oriented 2-map: |G|={G.order}, |r|={G.order_of(m.r)},"
           f" |rl|={G.order_of(G.mul(m.r, m.l))},"
           f" V/E/F={rep.vertices}/{rep.edges}/{rep.faces}, euler={rep.euler},"
           f" genus={rep.genus}, sigma={sigma}, reflexible={rep.reflexible},"
           f" O_2_is_quaternion={q8}, case={cl.exceptional_case.label()}",
           got, want)


def test_c05_s4_projective_disc_semistar(corpus):
    rz = corpus["s4_projective.grp"]
    m = rz.maps["m"]
    rep = m.report()
    cl = classify(m)
    core = o_p(rz.group, 2)
    qm = quotient_map(m, core)
    got = (m.vef_counts(), rep.euler, rep.orientable, core.order,
           cl.exceptional_case.label(), cl.quotient_order,
           sorted(qm.degenerate), qm.group.order)
    want = ((4, 6, 3), 1, False, 4, "DM(6)", 6, ["l_trivial"], 6)
    _check("C05",
           f"s4 projective map: V/E/F={rep.vertices}/{rep.edges}/{rep.faces},"
           f" euler={rep.euler}, |O_2|={core.order},"
           f" case={cl.exceptional_case.label()}, quotient degenerate"
           f" {sorted(qm.degenerate)}",
           got, want)


def test_c06_s4_sphere_semistar(corpus):
    rz = corpus["s4_sphere.grp"]
    G = rz.group
    m = rz.maps["m"]
    rep = m.report()
    cl = classify(m)
    plus = m.even_subgroup
    a4 = _iso(G, plus, alternating_group(4))
    om = oriented_of_flagged(m)
    om_normal = is_normal(om.group, sylow_p(om.group, 2))
    got = (m.vef_counts(), rep.euler, rep.orientable, G.order // plus.order,
           a4, cl.normal, cl.orientation_status, cl.exceptional_case.label(),
           om.group.order, om_normal)
    want = ((4, 6, 4), 2, True, 2, True, False, "orientable_normal", "EM(6)",
            12, True)
    _check("C06",
           f"s4 sphere map: V/E/F={rep.vertices}/{rep.edges}/{rep.faces},"
           f" euler={rep.euler}, even-subgroup index"
           f" {G.order // plus.order} (A4={a4}), flagged normal={cl.normal},"
           f" oriented normal={om_normal}, case={cl.exceptional_case.label()}",
           got, want)


def test_c07_g2106_normal_chiral_with_split_sylow(corpus):
    rz = corpus["g2106_chiral.grp"]
    m = rz.maps["m"]
    rep = m.report()
    cl = classify(m)
    perms, _ = coset_action(rz.group, m.vertex_subgroup)
    prim = is_primitive(perms, rep.vertices)
    st = certify_sylow_structure(m)
    got = (rep.vertices, (cl.p, cl.k), cl.normal, cl.orientation_status,
           prim, st.case_tag, st.complement_rank)
    want = (27, (3, 3), True, "chiral", True, "direct_product_elementary", 3)
    _check("C07",
           f"g2106 oriented 3-map: vertices={rep.vertices}, normal="
           f"{cl.normal}, status={cl.orientation_status}, primitive={prim},"
           f" sylow={st.case_tag} rank={st.complement_rank}",
           got, want)


def test_c08_g216_orientable_normal_with_split_sylow(corpus):
    rz = corpus["g216_orientable.grp"]
    G = rz.group
    m = rz.maps["m"]
    rep = m.report()
    cl = classify(m)
    perms, _ = coset_action(G, m.vertex_subgroup)
    prim = is_primitive(perms, rep.vertices)
    st = certify_sylow_structure(m)
    got = (rep.vertices, (cl.p, cl.k), cl.normal, prim,
           G.order // m.even_subgroup.order, rep.orientable,
           cl.orientation_status, st.case_tag, st.complement_rank)
    want = (9, (3, 2), True, True, 2, True, "orientable_normal",
            "direct_product_elementary", 2)
    _check("C08",
           f"g216 orientable 3-map: vertices={rep.vertices},"
           f" normal={cl.normal}, primitive={prim}, even-subgroup index"
           f" {G.order // m.even_subgroup.order}, sylow={st.case_tag}"
           f" rank={st.complement_rank}",
           got, want)


def test_c09_g216_nonorientable_extraspecial_sylow(corpus):
    rz = corpus["g216_nonorientable.grp"]
    m = rz.maps["m"]
    rep = m.report()
    cl = classify(m)
    perms, _ = coset_action(rz.group, m.vertex_subgroup)
    prim = is_primitive(perms, rep.vertices)
    st = certify_sylow_structure(m)
    got = (rep.vertices, (cl.p, cl.k), cl.normal, rep.orientable,
           cl.orientation_status, prim, st.case_tag, st.extraspecial_order)
    want = (9, (3, 2), True, False, "nonorientable", True,
            "central_product_extraspecial", 27)
    _check("C09",
           f"g216 nonorientable 3-map: vertices={rep.vertices},"
           f" normal={cl.normal}, status={cl.orientation_status},"
           f" primitive={prim}, sylow={st.case_tag}"
           f" extraspecial_order={st.extraspecial_order}",
           got, want)


def test_c10_census_property_suite(corpus):
    names = ["s4_3map.grp", "gl23_reflexible.grp", "g72_3map.grp",
             "g216_orientable.grp", "g216_nonorientable.grp"]
    total = pmaps = nonnormal = violations = 0
    bad = []
    for name in names:
        G = corpus[name].group
        for enum in (enumerate_oriented, enumerate_flagged):
            for e in census_classify(enum(G)):
                total += 1
                violations += len(e.violations)
                cl = e.classification
                if cl is None:
                    continue
                pmaps += 1
                if not cl.solvable:
                    bad.append((name, e.tuple_, "insolvable"))
                if not cl.normal:
                    nonnormal += 1
                    if cl.p not in (2, 3) or cl.exceptional_case is None:
                        bad.append((name, e.tuple_, "unidentified"))
    got = (bad, violations, pmaps > 0, nonnormal > 0)
    want = ([], 0, True, True)
    _check("C10",
           f"censuses of 5 groups: {total} classes, {pmaps} p-maps,"
           f" {nonnormal} nonnormal (all identified), {violations}"
           f" violations",
           got, want)


def test_c11_oracle_equivalence():
    seeds = [cyclic_group(2), cyclic_group(12), cyclic_group(63),
             cyclic_group(100), klein_four_group(), dihedral_group(3),
             dihedral_group(4), dihedral_group(6), dihedral_group(9),
             dihedral_group(15), symmetric_group(4), alternating_group(4),
             alternating_group(5), quaternion_group(),
             elementary_abelian(2, 3), elementary_abelian(3, 2),
             elementary_abelian(5, 2)]
    assert all(G.order <= 100 for G in seeds)
    checked = 0
    mismatches = []
    for G in seeds:
        if is_solvable(G) != brute_is_solvable(G):
            mismatches.append((G.order, "solvable"))
        checked += 1
        for p in prime_factors(G.order):
            P = sylow_p(G, p)
            if not (P.order == int_p_part(G.order, p)
                    and is_p_subgroup(G, P.members, p)):
                mismatches.append((G.order, f"sylow_{p}"))
            checked += 1
            if sorted(o_p(G, p).members) != sorted(brute_core(G, P.members)):
                mismatches.append((G.order, f"o_{p}"))
            checked += 1
        for x in range(1, min(G.order, 6)):
            H = G.subgroup((x,))
            if sorted(normal_core(G, H).members) != \
                    sorted(brute_core(G, H.members)):
                mismatches.append((G.order, f"core_of_elt_{x}"))
            checked += 1
    _check("C11",
           f"{checked} brute-force comparisons over {len(seeds)} seed groups"
           f" (order <= 100)",
           mismatches, [])


def test_c12_coset_enumeration_orders():
    targets = [("s4_presentation.grp", 24), ("g72_3map.grp", 72),
               ("g384_chiral.grp", 384), ("g2106_chiral.grp", 2106),
               ("g216_orientable.grp", 216), ("g216_nonorientable.grp", 216)]
    got = []
    for name, _ in targets:
        gf = parse_group_file(corpus_text(name))
        got.append((name, todd_coxeter(gf.presentation, ()).n))
    want = list(targets)
    _check("C12",
           "coset enumeration: " + ", ".join(f"{n}->{c}" for n, c in got),
           got, want)
