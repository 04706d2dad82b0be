from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import regmaps.group
from regmaps.errors import ContractViolation, ResourceLimitExceeded
from regmaps.grammar import matrix_group, parse_group_file, realize_group_file
from regmaps.group import (center, closure, coset_action, derived_series,
                           derived_subgroup, hom_extend, is_cyclic,
                           is_extraspecial, is_normal, is_prime,
                           is_primitive, is_solvable, is_transitive,
                           isomorphism_search, normal_closure, normal_core,
                           o_p, omega1, p_part, prime_factors,
                           quotient_group, regenerated,
                           right_coset_partition, small_generating_set,
                           standardize, sylow_p)
from regmaps.perm import Perm
from regmaps.standard import (alternating_group, cyclic_group, dihedral_group,
                              elementary_abelian, klein_four_group,
                              quaternion_group, symmetric_group)
from regmaps.verify import corpus_text

import oracles

# Order <= 100 throughout; A5 is the one insolvable entry.
SEEDS = [
    ("C2", cyclic_group(2)),
    ("C12", cyclic_group(12)),
    ("C63", cyclic_group(63)),
    ("C100", cyclic_group(100)),
    ("V4", klein_four_group()),
    ("D3", dihedral_group(3)),
    ("D4", dihedral_group(4)),
    ("D6", dihedral_group(6)),
    ("D9", dihedral_group(9)),
    ("D15", dihedral_group(15)),
    ("S4", symmetric_group(4)),
    ("A4", alternating_group(4)),
    ("A5", alternating_group(5)),
    ("Q8", quaternion_group()),
    ("E8", elementary_abelian(2, 3)),
    ("E9", elementary_abelian(3, 2)),
    ("E25", elementary_abelian(5, 2)),
]

EXPECTED_ORDERS = {
    "C2": 2, "C12": 12, "C63": 63, "C100": 100, "V4": 4, "D3": 6,
    "D4": 8, "D6": 12, "D9": 18, "D15": 30, "S4": 24, "A4": 12,
    "A5": 60, "Q8": 8, "E8": 8, "E9": 9, "E25": 25,
}


@pytest.mark.parametrize("name,G", SEEDS, ids=[n for n, _ in SEEDS])
def test_seed_orders_against_brute_closure(name, G):
    assert G.order == EXPECTED_ORDERS[name]
    gens = [G.elements[i] for i in G.gen_indices]
    if gens:
        assert len(oracles.brute_closure(gens, G.degree)) == G.order


@pytest.mark.parametrize("name,G", SEEDS, ids=[n for n, _ in SEEDS])
def test_identity_and_arithmetic(name, G):
    assert G.elements[0] == tuple(range(G.degree))
    for x in range(0, G.order, max(1, G.order // 7)):
        assert G.mul(0, x) == x == G.mul(x, 0)
        assert G.mul(x, G.inv(x)) == 0
    for x in range(G.order):
        assert G.order_of(x) == oracles.element_order(G, x)


def test_mul_matches_permutation_composition():
    G = symmetric_group(4)
    for a in range(G.order):
        for b in range(G.order):
            want = oracles.compose(G.elements[a], G.elements[b])
            assert G.elements[G.mul(a, b)] == want


@given(st.integers(1, 5).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=2)))
@settings(max_examples=30, deadline=None)
def test_row_is_right_multiplication_and_kept(perms):
    G = closure(len(perms[0]), [Perm(p) for p in perms])
    for g in range(G.order):
        row = G.row(g)
        assert row == [G.mul(x, g) for x in range(G.order)]
        assert G.row(g) is row


def test_conjugacy_classes_partition():
    G = symmetric_group(4)
    class_id, size_of = G.conjugacy_classes()  # both are per element
    by_class: dict = {}
    for x in range(G.order):
        by_class.setdefault(class_id[x], []).append(x)
    assert sorted(len(v) for v in by_class.values()) == [1, 3, 6, 6, 8]
    for x in range(G.order):
        assert size_of[x] == len(by_class[class_id[x]])
        for g in range(G.order):
            assert class_id[G.conj(x, g)] == class_id[x]
    assert class_id[0] == 0 and size_of[0] == 1


def test_closure_bounds_order_and_cells(monkeypatch):
    # S5 on 5 points; a cell bound of 250 admits 50 elements
    gens = [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))]
    assert closure(5, gens).order == 120
    monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", 250)
    with pytest.raises(ResourceLimitExceeded) as e:
        closure(5, gens)
    assert (e.value.limit_name, e.value.limit_value) == ("max_cells", 250)
    assert "max_cells=250: 50 elements on 5 points" in str(e.value)
    with pytest.raises(ResourceLimitExceeded) as e:
        closure(5, gens, max_order=20)
    assert (e.value.limit_name, e.value.limit_value) == ("max_order", 20)
    assert closure(5, gens[:1]).order == 5


@pytest.mark.parametrize("bound", [0, -1])
def test_closure_refuses_bounds_below_one(bound):
    with pytest.raises(ContractViolation,
                       match=f"max_order must be at least 1, got {bound}"):
        closure(3, [Perm((1, 2, 0))], max_order=bound)
    assert closure(3, [], max_order=1).order == 1


def test_lagrange_and_cosets():
    from collections import Counter
    G = symmetric_group(4)
    for gens in [(1,), (1, 2), (G.gen_indices[1],), tuple(G.gen_indices)]:
        H = G.subgroup(gens)
        assert G.order % H.order == 0
        coset_of, reps = right_coset_partition(G, H)
        assert len(reps) == G.order // H.order
        assert all(c == H.order for c in Counter(coset_of).values())
        assert coset_of[0] == 0 and reps[0] == 0  # the subgroup itself


# -- the brute-force equivalence block (seed list, orders <= 100) ----------

@pytest.mark.parametrize("name,G", SEEDS, ids=[n for n, _ in SEEDS])
def test_sylow_matches_brute_force(name, G):
    for p in prime_factors(G.order):
        P = sylow_p(G, p)
        assert P.order == oracles.int_p_part(G.order, p)
        assert oracles.is_p_subgroup(G, P.members, p)


@pytest.mark.parametrize("name,G", SEEDS, ids=[n for n, _ in SEEDS])
def test_o_p_matches_brute_force(name, G):
    for p in prime_factors(G.order):
        P = sylow_p(G, p)
        want = oracles.brute_o_p(G, p, P.members)
        assert o_p(G, p).members == want


@pytest.mark.parametrize("name,G", SEEDS, ids=[n for n, _ in SEEDS])
def test_normal_core_matches_brute_force(name, G):
    probes = [G.gen_indices[:1], G.gen_indices[:2], [1]]
    for gens in probes:
        H = G.subgroup(gens)
        assert normal_core(G, H).members == oracles.brute_core(G, H.members)


@pytest.mark.parametrize("name,G", SEEDS, ids=[n for n, _ in SEEDS])
def test_solvability_matches_brute_force(name, G):
    assert is_solvable(G) == oracles.brute_is_solvable(G)


def test_derived_series_shapes():
    S4 = symmetric_group(4)
    series = derived_series(S4)
    assert [s.order for s in series] == [24, 12, 4, 1]
    assert derived_series(alternating_group(5))[-1].order == 60


def test_quotient_group_and_hom():
    G = symmetric_group(4)
    N = o_p(G, 2)  # the Klein four subgroup of double transpositions
    assert N.order == 4
    Q, proj = quotient_group(G, N)
    assert Q.order == 6
    assert {x for x, q in enumerate(proj) if q == 0} == N.members
    assert set(proj) == set(range(Q.order))
    assert isomorphism_search(Q, symmetric_group(3))


def test_center_and_extraspecial():
    q8 = quaternion_group()
    assert center(q8.improper_subgroup()).order == 2
    assert is_extraspecial(q8.improper_subgroup(), 2)
    assert not is_extraspecial(cyclic_group(8).improper_subgroup(), 2)
    assert not is_extraspecial(elementary_abelian(3, 3).improper_subgroup(), 3)


def test_omega1_and_exponent():
    C9 = cyclic_group(9)
    assert omega1(C9.improper_subgroup(), 3).order == 3
    E9 = elementary_abelian(3, 2)
    assert omega1(E9.improper_subgroup(), 3).order == 9
    # the exponent, as the lcm of the element orders
    assert lcm(*map(E9.order_of, range(E9.order))) == 3
    S4 = symmetric_group(4)
    assert lcm(*map(S4.order_of, range(S4.order))) == 12


def test_normal_closure_of_odd_part():
    D9 = dihedral_group(9)
    rot = [g for g in range(D9.order) if D9.order_of(g) == 9][0]
    N = normal_closure(D9, D9.gen_indices, [rot])
    assert N.order == 9 and is_normal(D9, N)


def test_hom_extend_finds_and_refuses():
    G = symmetric_group(4)
    gens = list(G.gen_indices)
    ident = hom_extend(G, G, gens)
    assert ident is not None and ident.is_bijective()
    # sending a transposition to a 3-cycle can't extend
    three = next(g for g in range(G.order) if G.order_of(g) == 3)
    bad = hom_extend(G, G, [three] + gens[1:])
    assert bad is None


def test_isomorphism_search_distinguishes():
    assert isomorphism_search(dihedral_group(6), cyclic_group(12)) is False
    assert isomorphism_search(dihedral_group(6), dihedral_group(6)) is True
    assert isomorphism_search(elementary_abelian(2, 3),
                              cyclic_group(8)) is False


def test_regenerated_and_small_generating_set():
    G = symmetric_group(4)
    sub = regenerated(G, G.gen_indices)
    assert sub.order == G.order
    gens = small_generating_set(G)
    assert len(gens) <= 2
    assert G.subgroup(gens).is_improper()


def test_coset_action_transitive_and_primitivity():
    # S4 on cosets of a point stabilizer is the natural 4-point action
    G = symmetric_group(4)
    fix3 = [g for g in range(G.order) if G.elements[g][3] == 3]
    S3 = G.subgroup([g for g in fix3 if G.order_of(g) in (2, 3)])
    assert S3.order == 6
    perms, _ = coset_action(G, S3)
    assert is_transitive(perms, 4)
    assert is_primitive(perms, 4)
    # D4 on cosets of a reflection is 4 points with diagonal blocks
    D4 = dihedral_group(4)
    refl = next(g for g in range(1, D4.order)
                if D4.order_of(g) == 2 and not center(D4.improper_subgroup()).contains(g))
    perms, _ = coset_action(D4, D4.subgroup([refl]))
    assert is_transitive(perms, 4)
    assert not is_primitive(perms, 4)


def test_p_part_and_prime_factors():
    assert p_part(72, 2) == 8 and p_part(72, 3) == 9 and p_part(72, 5) == 1
    assert prime_factors(1) == []
    assert prime_factors(2106) == [2, 3, 13]


def test_is_prime_is_exact():
    assert all(is_prime(n) == (prime_factors(n) == [n]) for n in range(20000))
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(10**18 + 3) and is_prime(1000000000039)
    assert not is_prime(1000000000039 * 1000000000061)
    with pytest.raises(ContractViolation):
        is_prime(3317044064679887385961981)


def test_is_cyclic():
    assert is_cyclic(cyclic_group(12).improper_subgroup())
    assert not is_cyclic(klein_four_group().improper_subgroup())


@given(st.lists(st.integers(0, 23), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_generated_subgroup_order_divides(gens):
    G = symmetric_group(4)
    H = G.subgroup(gens)
    assert G.order % H.order == 0
    assert H.members == oracles.span(G, gens)


@pytest.mark.parametrize("fname", ["g216_orientable.grp", "g384_chiral.grp"])
def test_order_of_on_corpus_groups(corpus, fname):
    # realized on a coset action; order_of reads the cycles through the base
    G = corpus[fname].group
    assert G.base[0] == 0 and len(G.base) > 1
    for x in range(G.order):
        assert G.order_of(x) == oracles.element_order(G, x)
        assert G.order_of(x) == oracles.tuple_order(G.elements[x])


BASE_GROUPS = {
    "C12": lambda corpus: cyclic_group(12),  # regular: the base is (0,)
    "S4": lambda corpus: symmetric_group(4),
    "D6": lambda corpus: dihedral_group(6),
    "gl23": lambda corpus: corpus["gl23_reflexible.grp"].group,
    "mod5": lambda corpus: matrix_group(
        5, (((2, 1), (1, 0)), ((0, 1), (1, 0)))),
    "g72": lambda corpus: corpus["g72_3map.grp"].group,
}


@pytest.mark.parametrize("name", BASE_GROUPS)
def test_mul_and_order_of_read_base_images(corpus, name):
    G = BASE_GROUPS[name](corpus)
    assert (len(G.base) == 1) == (name == "C12")
    images = [tuple(e[b] for b in G.base) for e in G.elements]
    assert len(set(images)) == G.order
    # greedy: every base point is needed, as some non-identity element
    # fixes all the points before it
    for k in range(1, len(G.base)):
        assert any(im[:k] == images[0][:k] for im in images[1:])
    for i, x in enumerate(G.elements):
        assert G.order_of(i) == oracles.tuple_order(x)
        assert G.mul(i, G.inv(i)) == 0
        for j, y in enumerate(G.elements):
            assert G.elements[G.mul(i, j)] == oracles.compose(x, y)


STANDARDIZE_GROUPS = [
    ("S4", symmetric_group(4)),
    ("D6", dihedral_group(6)),
    ("Q8", quaternion_group()),
    ("E8", elementary_abelian(2, 3)),
]


@pytest.mark.parametrize("name,G", STANDARDIZE_GROUPS,
                         ids=[n for n, _ in STANDARDIZE_GROUPS])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_standardize_detects_generation_and_automorphisms(name, G, data):
    tup = st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3)
    a = tuple(data.draw(tup))
    if data.draw(st.booleans()):
        b = tuple(data.draw(st.lists(st.integers(0, G.order - 1),
                                     min_size=len(a), max_size=len(a))))
    else:  # an inner automorphism's image of a
        g = data.draw(st.integers(0, G.order - 1))
        b = tuple(G.conj(x, g) for x in a)
    ka, kb = standardize(G, a), standardize(G, b)
    assert (ka is None) == (len(G._index_closure(a)) < G.order)
    assert (kb is None) == (len(G._index_closure(b)) < G.order)
    if ka is not None and kb is not None:
        hom = hom_extend(regenerated(G, a), G, b)
        assert (ka == kb) == (hom is not None and hom.is_bijective())


HOM_TARGETS = [symmetric_group(3), symmetric_group(4), cyclic_group(4)]


@pytest.mark.parametrize("name,G", STANDARDIZE_GROUPS,
                         ids=[n for n, _ in STANDARDIZE_GROUPS])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_hom_extend_matches_brute_force(name, G, data):
    H = data.draw(st.sampled_from(HOM_TARGETS))
    images = data.draw(st.lists(st.integers(0, H.order - 1),
                                min_size=len(G.gen_indices),
                                max_size=len(G.gen_indices)))
    hom = hom_extend(G, H, images)
    want = oracles.brute_hom(G, H, images)
    event("homomorphism" if want is not None else "none")
    assert (hom is None) == (want is None)
    if hom is not None:
        assert hom.images == want


def _realized(text):
    return realize_group_file(parse_group_file(text)).group


PROJECTION_GROUPS = [
    ("S4", symmetric_group(4)),
    ("D6", dihedral_group(6)),
    ("D12", dihedral_group(12)),
    ("Q8", quaternion_group()),
    ("E8", elementary_abelian(2, 3)),
    ("G72", _realized(corpus_text("g72_3map.grp"))),
]


@pytest.mark.parametrize("name,G", PROJECTION_GROUPS,
                         ids=[n for n, _ in PROJECTION_GROUPS])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_quotient_projection_matches_coset_oracle(name, G, data):
    n = G.order
    x = data.draw(st.integers(0, n - 1))
    N = data.draw(st.sampled_from(
        [o_p(G, p) for p in prime_factors(n)]
        + [derived_subgroup(G), center(G.improper_subgroup()),
           normal_closure(G, G.gen_indices, [x])]))
    event(f"|N| = {N.order}")
    Q, proj = quotient_group(G, N)
    assert tuple(proj) == oracles.brute_hom(
        G, Q, [proj[g] for g in G.gen_indices])
    for a in range(n):
        for b in range(n):
            assert (proj[a] == proj[b]) == (G.mul(a, G.inv(b)) in N.members)
    assert {a for a in range(n) if proj[a] == 0} == N.members
    assert set(proj) == set(range(Q.order))


C4_BY_C4 = _realized("group c4c4\ngens a, b\nrel a^4\nrel b^4\n"
                     "rel b^-1*a*b*a\n")
C2_X_Q8 = _realized("group c2q8\ngens a, b, c\nrel a^4\nrel a^2*b^-2\n"
                    "rel b^-1*a*b*a\nrel c^2\nrel a^-1*c^-1*a*c\n"
                    "rel b^-1*c^-1*b*c\n")
ISOMORPHISM_PAIRS = [
    ("C4:C4-C2xQ8", C4_BY_C4, C2_X_Q8),
    ("C4:C4-C4:C4", C4_BY_C4, C4_BY_C4),
    ("D4-Q8", dihedral_group(4), quaternion_group()),
    ("D3-S3", dihedral_group(3), symmetric_group(3)),
    ("C6-S3", cyclic_group(6), symmetric_group(3)),
    ("D6-A4", dihedral_group(6), alternating_group(4)),
    ("E8-C8", elementary_abelian(2, 3), cyclic_group(8)),
    ("V4-E4", klein_four_group(), elementary_abelian(2, 2)),
    ("S4-S4", symmetric_group(4),
     _realized(corpus_text("s4_presentation.grp"))),
]


@pytest.mark.parametrize("name,G1,G2", ISOMORPHISM_PAIRS,
                         ids=[n for n, _, _ in ISOMORPHISM_PAIRS])
def test_isomorphism_search_matches_brute_force(name, G1, G2):
    assert isomorphism_search(G1, G2) is oracles.brute_isomorphic(G1, G2)


def test_c4_by_c4_and_c2_x_q8_pass_the_pruning():
    # Equal sorted (element order, class size) lists, so that the first
    # isomorphism pair reaches the search over generator images.
    def fingerprint(G):
        _, sizes = G.conjugacy_classes()
        return sorted((G.order_of(k), sizes[k]) for k in range(G.order))
    assert fingerprint(C4_BY_C4) == fingerprint(C2_X_Q8)
