import pytest

import regmaps.group
import regmaps.maps
from regmaps.census import (census_classify, enumerate_flagged,
                            enumerate_oriented)
from regmaps.classify import classify
from regmaps.errors import ContractViolation, TheoremViolation
from regmaps.grammar import parse_group_file, realize_group_file
from regmaps.group import (FiniteGroup, is_normal, isomorphism_search, o_p,
                           quotient_group)
from regmaps.maps import (DEGENERATE_L_EQUALS_T, DEGENERATE_L_TRIVIAL,
                          FlaggedMap, OrientedMap, oriented_of_flagged,
                          quotient_map)
from regmaps.standard import alternating_group, symmetric_group
from standard_groups import (census_zoo, cyclic_group, dihedral_group,
                             klein_four_group)
from regmaps.verify import corpus_text

from oracles import even_words, isomorphic, mirror
from test_families import agl1_file


def _involutions(G):
    return [g for g in range(1, G.order) if G.mul(g, g) == 0]


def test_oriented_contract_checks():
    G = symmetric_group(4)
    three = next(g for g in range(G.order) if G.order_of(g) == 3)
    four = next(g for g in range(G.order) if G.order_of(g) == 4)
    with pytest.raises(ContractViolation):
        OrientedMap(G, 0, _involutions(G)[0])     # identity rotation
    with pytest.raises(ContractViolation):
        OrientedMap(G, four, three)               # reversal not an involution
    # a 3-cycle and a double transposition generate at most A4
    even_inv = next(g for g in _involutions(G)
                    if all(x != y for x, y in enumerate(G.elements[g])))
    with pytest.raises(ContractViolation):
        OrientedMap(G, three, even_inv)


def test_flagged_contract_checks():
    G = symmetric_group(4)
    invs = _involutions(G)
    three = next(g for g in range(G.order) if G.order_of(g) == 3)
    with pytest.raises(ContractViolation):
        FlaggedMap(G, 0, invs[0], invs[0])        # t must be an involution
    with pytest.raises(ContractViolation):
        FlaggedMap(G, invs[0], three, invs[0])    # r must be an involution
    noncommuting = next(
        (t, l) for t in invs for l in invs
        if G.mul(t, l) != G.mul(l, t))
    t, l = noncommuting
    with pytest.raises(ContractViolation):
        FlaggedMap(G, t, invs[0], l)
    with pytest.raises(ContractViolation):
        FlaggedMap(klein_four_group(), 1, 1, 1)   # <t,r,l> proper


@pytest.mark.parametrize("bad", [24, -1])
def test_element_indices_are_range_checked(bad):
    # every index is checked before any product is formed, so an index
    # outside the group is a contract error, not an IndexError
    G = symmetric_group(4)
    inv = _involutions(G)[0]
    for make in (lambda: OrientedMap(G, inv, bad),
                 lambda: OrientedMap(G, bad, inv),
                 lambda: FlaggedMap(G, bad, inv, inv),
                 lambda: FlaggedMap(G, inv, bad, inv),
                 lambda: FlaggedMap(G, inv, inv, bad)):
        with pytest.raises(ContractViolation, match="not an element"):
            make()


def test_s4_flagged_geometry(corpus):
    m = corpus["s4_3map.grp"].maps["m"]
    assert m.vef_counts() == (3, 6, 4)
    assert m.valency() == 4
    assert not m.is_orientable()
    rep = m.report()
    assert rep.euler == 1
    assert (rep.genus_kind, rep.genus) == ("crosscap_number", 1)
    assert rep.reflexible
    assert not m.degenerate


def test_degenerate_tags():
    V4 = klein_four_group()
    m = FlaggedMap(V4, 1, 2, 1)
    assert m.degenerate == frozenset((DEGENERATE_L_EQUALS_T,))
    rep = m.report()
    assert rep.genus_kind == "degenerate"
    assert rep.genus is None and rep.orientable is None
    m2 = FlaggedMap(V4, 1, 2, 0)
    assert m2.degenerate == frozenset((DEGENERATE_L_TRIVIAL,))


def test_oriented_report_and_mirror(corpus):
    m = corpus["g384_chiral.grp"].maps["m"]
    rep = m.report()
    assert (rep.vertices, rep.edges, rep.faces) == (64, 192, 96)
    assert rep.genus == 17 and rep.orientable
    assert not rep.reflexible
    mir = mirror(m)
    assert not isomorphic(m, mir)
    assert isomorphic(mir, mir)
    # mirroring twice is the original map
    assert isomorphic(m, mirror(mir))


def _counted_walks(monkeypatch) -> list:
    """The rows of r and l of each map walk from now on, as one pair."""
    walks, lift = [], regmaps.maps._lift

    def counted(rows, *args):
        walks.append(tuple(rows[:2]))
        return lift(rows, *args)
    monkeypatch.setattr(regmaps.maps, "_lift", counted)
    return walks


def _walks_of(walks, m) -> int:
    mine = (m.group.row(m.r), m.group.row(m.l))
    return sum(w[0] is mine[0] and w[1] is mine[1] for w in walks)


def test_an_analyzed_map_builds_no_standardized_table(monkeypatch):
    # a fresh map, built as `analyze` builds it: one walk proves that (r, l)
    # generates G and reads reflexibility, which report and classify share,
    # and no standardized table is built
    tables, table = [], regmaps.group.standard_table

    def counted_table(*args):
        tables.append(args)
        return table(*args)
    monkeypatch.setattr(regmaps.group, "standard_table", counted_table)
    walks = _counted_walks(monkeypatch)
    m = realize_group_file(parse_group_file(
        corpus_text("g384_chiral.grp"))).maps["m"]
    assert _walks_of(walks, m) == len(walks) == 1
    assert not m.report().reflexible
    assert classify(m).orientation_status == "chiral"
    # classify walks the quotient map it builds, which is another map
    assert _walks_of(walks, m) == 1 and not tables
    # the key is still public and still the table, computed on first read
    assert m.key == table([m.group.row(m.r), m.group.row(m.l)], m.group.order)


def test_a_census_map_walks_once_on_first_read(corpus, monkeypatch):
    # a census class map is given its key, so the constructor does not
    # walk; its report walks once, and classify reads the same result
    walks = _counted_walks(monkeypatch)
    entries = [e for name in ("g384_chiral.grp", "gl23_reflexible.grp")
               for e in enumerate_oriented(corpus[name].group)]
    assert not walks
    census_classify(entries)
    assert [_walks_of(walks, e.map) for e in entries] == [1] * len(entries)
    assert {e.report.reflexible for e in entries} == {True, False}


def _zoo_maps(corpus) -> list:
    """Every declared map of the corpus, and the census maps of the census
    zoo and of AGL(1,q) for q = 4, 5, 7, 8, 9, 11, 13, each also built
    again with no key, so that its constructor walks."""
    groups = census_zoo(corpus) + [
        realize_group_file(parse_group_file(agl1_file(q))).group
        for q in (4, 5, 7, 8, 9, 11, 13)]
    maps = [m for rz in corpus.values() for m in rz.maps.values()]
    for G in groups:
        for e in enumerate_oriented(G) + enumerate_flagged(G):
            maps += [e.map, type(e.map)(G, *e.map.generator_tuple)]
    return maps


def test_the_walk_reads_reflexibility_and_the_even_words(corpus):
    """The walk's reflexible is map isomorphism with the mirror, by the
    keys, and a flagged map's even-word subgroup is the 2-colouring
    walk's, on every map of _zoo_maps."""
    seen = set()
    for m in _zoo_maps(corpus):
        G = m.group
        if m.kind == "oriented":
            assert m.reflexible == isomorphic(m, mirror(m)), m
            seen.add((m.kind, m.reflexible))
        else:
            even = even_words([G.row(x) for x in m.generator_tuple], G.order)
            want = frozenset(range(G.order) if even is None else even)
            assert m.even_subgroup.members == want, m
            assert m.even_subgroup.gens == (G.mul(m.t, m.r),
                                            G.mul(m.r, m.l)), m
            seen.add((m.kind, even is not None))
    assert seen == {(kind, b) for kind in ("oriented", "flagged")
                    for b in (True, False)}


def _grown_subgroups(m) -> dict:
    """Each subgroup a map walks, named, with its generators."""
    G = m.group
    if m.kind == "oriented":
        return {"vertex": (m.r,), "edge": (m.l,), "face": (G.mul(m.r, m.l),)}
    return {"vertex": (m.t, m.r), "edge": (m.t, m.l), "face": (m.r, m.l),
            "even": (G.mul(m.t, m.r), G.mul(m.r, m.l))}


def test_map_subgroups_are_walked_over_the_census_rows(corpus, monkeypatch):
    """On every class of both censuses of the zoo, report() grows no
    subgroup and builds no row, and each subgroup it walked is
    G.subgroup of the same generators, in members and gens; is_simple is
    the conjugation test it replaced."""
    def grow(*args):
        raise AssertionError("a report grew a subgroup")

    nonorientable = 0
    for G in census_zoo(corpus):
        for census in (enumerate_oriented, enumerate_flagged):
            for entry in census(G):
                m = entry.map
                built = set(G._rows)
                with monkeypatch.context() as patched:
                    patched.setattr(FiniteGroup, "_grow", grow)
                    report = m.report()
                assert set(G._rows) == built, m
                nonorientable += report.orientable is False
                for name, gens in _grown_subgroups(m).items():
                    walked = getattr(m, f"{name}_subgroup")
                    grown = G.subgroup(gens)
                    assert walked.gens == grown.gens, (m, name)
                    assert walked.members == grown.members, (m, name)
                V = m.vertex_subgroup.members
                meet = V & {G.conj(x, m.l) for x in V}
                assert report.simple_graph == (
                    meet == ({0} if m.kind == "oriented" else {0, m.t})), m
    assert nonorientable > 0


def test_p_core_quotient_is_kept(corpus):
    G = corpus["g384_chiral.grp"].group
    assert quotient_group(G, o_p(G, 2)) is quotient_group(G, o_p(G, 2))


def test_reflexible_map_equals_its_mirror(corpus):
    m = corpus["gl23_reflexible.grp"].maps["m"]
    assert m.reflexible
    assert isomorphic(m, mirror(m))


def test_maps_isomorphic_discriminates(corpus):
    proj = corpus["s4_projective.grp"].maps["m"]
    sphere = corpus["s4_sphere.grp"].maps["m"]
    assert not isomorphic(proj, sphere)
    # conjugate tuples give isomorphic maps
    G = proj.group
    g = 7
    conj = FlaggedMap(G, G.conj(proj.t, g), G.conj(proj.r, g),
                      G.conj(proj.l, g))
    assert isomorphic(proj, conj)


def test_quotient_map_basic(corpus):
    m = corpus["g72_3map.grp"].maps["m"]
    core = o_p(m.group, 3)
    qm = quotient_map(m, core)
    assert qm.group.order == 24
    assert qm.vef_counts() == (3, 6, 4)
    _, proj = quotient_group(m.group, core)
    assert {x for x, q in enumerate(proj) if q == 0} == core.members
    assert (qm.t, qm.r, qm.l) == (proj[m.t], proj[m.r], proj[m.l])
    assert isomorphism_search(qm.group, symmetric_group(4))


def test_quotient_collapse_is_rejected():
    # quotient of an oriented map by a subgroup containing l kills the edges
    D6 = dihedral_group(6)
    rot = next(g for g in range(D6.order) if D6.order_of(g) == 6)
    refl = next(g for g in _involutions(D6)
                if g not in D6.subgroup((rot,)).members)
    m = OrientedMap(D6, rot, refl)
    full = D6.improper_subgroup()
    with pytest.raises(ContractViolation):
        quotient_map(m, full)


def test_flagged_quotient_collapse_is_rejected(corpus):
    m = corpus["s4_3map.grp"].maps["m"]
    V4 = o_p(m.group, 2)
    assert m.t in V4.members  # t is a double transposition
    with pytest.raises(ContractViolation):
        quotient_map(m, V4)


def test_oriented_of_flagged_sphere(corpus):
    m = corpus["s4_sphere.grp"].maps["m"]
    om = oriented_of_flagged(m)
    assert om.group.order == 12
    assert om.vef_counts() == (4, 6, 4)
    assert om.report().genus == 0
    # conjugation by t supplies the mirror symmetry
    assert om.reflexible
    assert isomorphism_search(om.group, alternating_group(4))


def test_oriented_of_flagged_refuses_nonorientable(corpus):
    with pytest.raises(ContractViolation):
        oriented_of_flagged(corpus["s4_3map.grp"].maps["m"])
    V4 = klein_four_group()
    with pytest.raises(ContractViolation):
        oriented_of_flagged(FlaggedMap(V4, 1, 2, 1))


def test_flag_count_identities(corpus):
    for rz in corpus.values():
        for m in rz.maps.values():
            v, e, f = m.vef_counts()
            n = m.group.order
            if m.kind == "oriented":
                assert n == m.valency() * v
                assert e == n // 2
            else:
                assert n == 2 * m.valency() * v
            assert v - e + f == m.report().euler


def test_smallest_flagged_shapes():
    V4 = klein_four_group()
    # distinct t, r, l: one flag orbit everywhere, the projective plane
    rep = FlaggedMap(V4, 1, 2, 3).report()
    assert (rep.vertices, rep.edges, rep.faces) == (1, 1, 1)
    assert rep.euler == 1 and not rep.orientable and rep.genus == 1
    # t = r collapses the vertex rotation: the single-edge sphere map
    rep = FlaggedMap(V4, 1, 1, 2).report()
    assert (rep.vertices, rep.edges, rep.faces) == (2, 1, 1)
    assert rep.euler == 2 and rep.orientable and rep.genus == 0


def test_cyclic_groups_carry_no_flagged_maps():
    for n in (3, 5, 7, 9):
        G = cyclic_group(n)
        assert _involutions(G) == []
