import contextlib
import gc
import io
import random
import sys
import tracemalloc
from itertools import islice
from math import lcm, prod
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import regmaps.grammar
import regmaps.group
from regmaps import cli
from regmaps.census import enumerate_flagged, enumerate_oriented
from regmaps.classify import classify, detect_p_map
from regmaps.coset_enum import todd_coxeter
from regmaps.errors import ContractViolation, ResourceLimitExceeded
from regmaps.grammar import matrix_group, parse_group_file, realize_group_file
from regmaps.group import (ELEMENT_CELLS, POINT_CELLS, FiniteGroup,
                           cell_limit, center, closure, coset_action,
                           derived_series, derived_subgroup, hom_extend,
                           is_extraspecial, is_normal, is_prime,
                           is_primitive, is_solvable, is_transitive,
                           isomorphism_search, normal_closure,
                           normal_core, o_p, omega1, p_part, prime_factors,
                           quotient_group, regenerated, small_generating_set,
                           standardize, sylow_p)
from regmaps.maps import OrientedMap
from regmaps.perm import Perm
from regmaps.reporting import map_section
from regmaps.standard import (alternating_group, quaternion_group,
                              symmetric_group)
from standard_groups import (census_zoo, cyclic_group, dihedral_group,
                             elementary_abelian, klein_four_group)
from regmaps.verify import corpus_names, corpus_text
from regmaps.words import Presentation, Word

import oracles
from test_families import agl1_file

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
    assert tuple(G.elements[0]) == tuple(range(G.degree))
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
            assert tuple(G.elements[G.mul(a, b)]) == want


# one or two permutations of at most 5 points
SMALL_PERM_GROUPS = st.integers(1, 5).flatmap(
    lambda d: st.lists(st.permutations(range(d)), min_size=1, max_size=2))


@given(SMALL_PERM_GROUPS)
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


@given(SMALL_PERM_GROUPS)
@settings(max_examples=30, deadline=None)
def test_classes_and_transitivity_match_brute_force(perms):
    G = closure(len(perms[0]), [Perm(p) for p in perms])
    index = {tuple(e): k for k, e in enumerate(G.elements)}
    want, classes = [-1] * G.order, []
    for x in range(G.order):
        if want[x] < 0:
            # the set {c^-1 x c}, by composing image tuples
            members = {index[oracles.compose(oracles.compose(
                tuple(sorted(range(G.degree), key=c.__getitem__)),
                G.elements[x]), c)] for c in G.elements}
            for y in members:
                want[y] = len(classes)
            classes.append(members)
    assert G.conjugacy_classes() == (want, [len(classes[c]) for c in want])
    orbit0 = {e[0] for e in G.elements}
    assert (is_transitive([Perm(p) for p in perms], G.degree)
            == (len(orbit0) == G.degree))


def test_kept_results_are_returned_again(corpus):
    G = corpus["g72_3map.grp"].group
    for kept in (lambda: sylow_p(G, 3), lambda: o_p(G, 2),
                 G.conjugacy_classes, G.improper_subgroup,
                 lambda: small_generating_set(G), lambda: is_solvable(G)):
        assert kept() is kept()
    for m in (corpus["g72_3map.grp"].maps["m"],
              corpus["g384_chiral.grp"].maps["m"]):
        names = ["vertex_subgroup", "edge_subgroup", "face_subgroup"]
        if m.kind == "flagged":
            names.append("even_subgroup")
        for name in names:
            assert getattr(m, name) is getattr(m, name)


def test_closure_bounds_order_and_cells(monkeypatch):
    # S5 on 5 points; a cell bound of 3000 admits (3000 - 6 * 3 * 5) //
    # (5 + 80) = 34 elements, since each point costs 6 cells for each of the
    # two generators and for the identity, and each element 80 on top of
    # its 5 images; one of 90 admits none
    gens = [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))]
    assert closure(5, gens).order == 120
    monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", 3000)
    with pytest.raises(ResourceLimitExceeded) as e:
        closure(5, gens)
    assert (e.value.limit_name, e.value.limit_value) == ("max_cells", 3000)
    assert "max_cells=3000: 34 elements on 5 points" in str(e.value)
    with pytest.raises(ResourceLimitExceeded) as e:
        closure(5, gens, max_order=20)
    assert (e.value.limit_name, e.value.limit_value) == ("max_order", 20)
    assert closure(5, gens[:1]).order == 5
    monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", 90)
    with pytest.raises(ResourceLimitExceeded,
                       match="a group on 5 points exceeds max_cells=90"):
        closure(5, gens)


@pytest.mark.parametrize("cycle_lengths,one_generator", [
    ((2, 3, 5, 7, 11, 13), True),
    ((2,) * 14, False),
], ids=["cyclic_30030_base_6", "elementary_2_14_base_14"])
def test_groups_the_cells_just_admit_stay_under_8_bytes_a_cell(
        monkeypatch, cycle_lengths, one_generator):
    # many elements on few points: the cost of each element beyond its
    # images (tuple header, dict entries, base lookup) is what the bound
    # must charge.  The bound is set to the fewest cells that admit the
    # group, and the peak must stay under 8 bytes a cell.
    degree = sum(cycle_lengths)
    points = iter(range(degree))
    cycles = [tuple(islice(points, k)) for k in cycle_lengths]
    # disjoint cycles: as one generator they have the lcm of their lengths
    # as order, as one generator each they give the direct product
    if one_generator:
        gens, order = [Perm.from_cycles(cycles, degree)], lcm(*cycle_lengths)
    else:
        gens = [Perm.from_cycles((c,), degree) for c in cycles]
        order = prod(cycle_lengths)
    ngens = len(gens)
    cells = (order * (degree + ELEMENT_CELLS)
             + POINT_CELLS * (ngens + 1) * degree)
    monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", cells)
    assert cell_limit(degree, ngens) == order
    tracemalloc.start()
    try:
        G = closure(degree, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == order
    assert peak < 8 * cells


@pytest.mark.parametrize("p,matrices", [
    (7, (((3, 0), (0, 1)), ((6, 1), (6, 0)))),
    (13, (((2, 1), (1, 0)), ((0, 1), (1, 0)))),
], ids=["GL27_2016", "ladder_p13_4368"])
def test_matrix_groups_the_cells_just_admit_stay_under_8_bytes_a_cell(
        monkeypatch, p, matrices):
    # closure on the base (0, p - 1) keeps a 2-byte key per element until
    # the group builds its own lookup; ELEMENT_CELLS must still cover it
    order = matrix_group(p, matrices).order
    degree = p * p - 1
    cells = order * (degree + ELEMENT_CELLS) + POINT_CELLS * 3 * degree
    monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", cells)
    assert cell_limit(degree, 2) == order
    tracemalloc.start()
    try:
        G = matrix_group(p, matrices)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == order
    assert peak < 8 * cells


@pytest.mark.parametrize("p,limit_mb", [(11, 1.3), (13, 2.5)],
                         ids=["ladder_p11_2640", "ladder_p13_4368"])
def test_matrix_groups_hold_their_elements_as_bytes(p, limit_mb):
    # on 120 and 168 points an element is held as bytes, a byte a point;
    # as a tuple of 8-byte pointers it would take the peaks past 3 and 7 MB
    tracemalloc.start()
    try:
        G = matrix_group(p, (((2, 1), (1, 0)), ((0, 1), (1, 0))))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == {11: 2640, 13: 4368}[p]
    assert peak < limit_mb * 10**6


# tracemalloc's peak for the ladder on 168 points: 1,925,208 bytes
# (CPython 3.11) when the group rebuilt the index after closure's walk and
# kept three per-element lists; 1,780,023 with the index built in the walk
# and only the inverses in such a list.  The bounds here add 15,000 bytes,
# under half of one more list of 4368 entries (34,944)
LADDER_P13_PEAK = 1_795_000


def test_the_ladder_closure_by_base_images_peaks_no_higher():
    # closure on the base (0, 12) lists each element with its getter and
    # its key, which the index shares; no second pass keys the elements
    matrix_group(13, LADDER)  # once untraced, so that no first-use cost
    gc.collect()              # is counted
    tracemalloc.start()
    try:
        G = matrix_group(13, LADDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 4368
    assert peak <= LADDER_P13_PEAK


def _ladder_map_phase(G):
    """What `analyze` runs on the ladder map after its group is built: the
    map's walk, its report, section and vertex primitivity."""
    m = OrientedMap(G, *G.gen_indices)
    map_section("m", m, classify(m) if detect_p_map(m) else None)
    return m.vertex_primitive


# tracemalloc's peak for the map phase of `analyze` on the ladder on 168
# points, with the group built: 680,378 bytes when the map standardized
# its table and walked its mirror's, 324,882 by one walk, where the peak
# was the transpose `zip(*G._at)` that read the base columns, a tuple
# iterator an element; 191,962 with each column read by `itemgetter`
# (CPython 3.11), plus the margin above
LADDER_P13_MAP_PEAK = 207_000


def test_the_ladder_map_phase_peaks_no_higher():
    _ladder_map_phase(matrix_group(13, LADDER))  # untraced: first-use costs
    G = matrix_group(13, LADDER)
    gc.collect()
    tracemalloc.start()
    try:
        _ladder_map_phase(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= LADDER_P13_MAP_PEAK


LADDER_P13_FILE = (Path(__file__).resolve().parent.parent / "perfbench"
                   / "data" / "ladder" / "ladder_p13.grp")


def _analyze_ladder_p13():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", str(LADDER_P13_FILE)]) == 0


# tracemalloc's peak for `analyze ladder_p13` in-process, from the file to
# its report: 2,192,248 bytes (CPython 3.11) when the group rebuilt closure's
# index, kept per-element lists of orders and rows and transposed the index
# to read its base columns; 1,972,552 without them, plus the margin above
ANALYZE_LADDER_P13_PEAK = 1_988_000


def test_analyze_on_the_ladder_peaks_no_higher():
    _analyze_ladder_p13()  # untraced: first-use costs
    gc.collect()
    tracemalloc.start()
    try:
        _analyze_ladder_p13()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ANALYZE_LADDER_P13_PEAK


def test_analyze_on_the_ladder_keeps_only_the_orders_and_rows_it_read(
        monkeypatch):
    # analyze reads 40 inverses, 293 element orders and the rows of r and l
    # of its 4368 elements; the group holds those orders and rows and no
    # other entry, and its list of inverses only those 40
    groups = []
    realize = cli.realize_group_file

    def kept(*args, **kwargs):
        rz = realize(*args, **kwargs)
        groups.append(rz.group)
        return rz
    monkeypatch.setattr(cli, "realize_group_file", kept)
    _analyze_ladder_p13()
    [G] = groups
    inverses = {i: v for i, v in enumerate(G._inv) if v is not None}
    assert (len(inverses), len(G._orders), len(G._rows)) == (40, 293, 2)
    assert sorted(G._rows) == sorted(G.gen_indices)
    for i, v in inverses.items():
        assert G.mul(i, v) == 0
    for i, v in G._orders.items():
        assert v == oracles.tuple_order(G.elements[i])
    for g, row in G._rows.items():
        assert row == [G.mul(x, g) for x in range(G.order)]


@pytest.mark.parametrize("bound", [0, -1])
def test_closure_refuses_bounds_below_one(bound):
    with pytest.raises(ContractViolation,
                       match=f"max_order must be at least 1, got {bound}"):
        closure(3, [Perm((1, 2, 0))], max_order=bound)
    assert closure(3, [], max_order=1).order == 1


# -- closure on a known base ------------------------------------------------

def matrix_perms(p, matrices):
    """The generators of ``matrix_group(p, matrices)``, with the nonzero
    vector (x, y) as point x*p + y - 1."""
    vectors = [divmod(k, p) for k in range(1, p * p)]
    return [Perm(tuple((a * x + b * y) % p * p + (c * x + d * y) % p - 1
                       for x, y in vectors))
            for (a, b), (c, d) in matrices]


def closed(degree, gens, **kwargs):
    """What closure gives: the elements and generator indices, or the text
    of its refusal."""
    try:
        G = closure(degree, gens, **kwargs)
    except ResourceLimitExceeded as e:
        return str(e), e.limit_name, e.limit_value
    return G.elements, G.gen_indices


def random_matrix_pairs(p, count, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        pair = [((rng.randrange(p), rng.randrange(p)),
                 (rng.randrange(p), rng.randrange(p))) for _ in range(2)]
        if all((a * d - b * c) % p for (a, b), (c, d) in pair):
            pairs.append(pair)
    return pairs


LADDER = (((2, 1), (1, 0)), ((0, 1), (1, 0)))
MATRIX_CASES = (
    [(11, LADDER, 2640), (13, LADDER, 4368),
     (3, (((2, 0), (0, 1)), ((2, 1), (2, 0))), 48),
     (7, (((3, 0), (0, 1)), ((6, 1), (6, 0))), 2016)]
    + [(p, pair, None) for p in (5, 7)
       for pair in random_matrix_pairs(p, 12, seed=p)])


@pytest.mark.parametrize("p,matrices,order", MATRIX_CASES,
                         ids=[f"mod{p}_{k}" for k, (p, _, _)
                              in enumerate(MATRIX_CASES)])
def test_matrix_closure_on_its_base_is_closure_without_one(p, matrices,
                                                           order):
    # the vectors (0, 1) and (1, 0) are points 0 and p - 1
    gens = matrix_perms(p, matrices)
    plain = closed(p * p - 1, gens)
    assert closed(p * p - 1, gens, base=(0, p - 1)) == plain
    G = matrix_group(p, matrices)
    assert (G.elements, G.gen_indices) == plain
    assert order is None or G.order == order


@pytest.mark.parametrize("max_order,cells,refusal", [
    (100, None, "closure exceeded max_order=100"),
    (2000, None, "closure exceeded max_cells=20000000: 1927 elements"
                 " on 10200 points"),
    (2000, 2 * 10**6, "closure exceeded max_cells=2000000: 176 elements"
                      " on 10200 points"),
], ids=["max_order", "max_cells", "a_tenth_of_max_cells"])
def test_a_refused_matrix_closure_refuses_alike_on_its_base(
        monkeypatch, max_order, cells, refusal):
    # two matrices mod 101, far larger than any bound here
    if cells is not None:
        monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", cells)
    gens = matrix_perms(101, LADDER)
    plain = closed(10200, gens, max_order=max_order)
    assert plain[0] == refusal
    assert closed(10200, gens, max_order=max_order, base=(0, 100)) == plain


def test_a_matrix_of_too_high_an_order_is_refused_before_closure(
        monkeypatch):
    # [[2,1],[1,0]] mod 101 has order 204; at a tenth of max_cells closure
    # admits 176 elements on 10200 points, so matrix_group raises closure's
    # own refusal before it builds any image
    monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", 2 * 10**6)
    plain = closed(10200, matrix_perms(101, LADDER), max_order=20000)

    def refuse(*args, **kwargs):
        raise AssertionError("image built")
    monkeypatch.setattr(regmaps.grammar, "Perm", refuse)
    monkeypatch.setattr(regmaps.grammar, "closure", refuse)
    with pytest.raises(ResourceLimitExceeded) as exc:
        matrix_group(101, LADDER, max_order=20000)
    assert (str(exc.value), exc.value.limit_name,
            exc.value.limit_value) == plain


@pytest.mark.parametrize("G,normal", [
    (symmetric_group(4), lambda G: [g for g in range(G.order)
                                    if G.order_of(g) == 2
                                    and all(G.elements[g][x] != x
                                            for x in range(4))]),
    (dihedral_group(6), lambda G: [G.gen_indices[0]]),
], ids=["S4_by_V4", "D6_by_rotations"])
def test_a_regular_quotient_closes_alike_on_one_point(G, normal):
    # N is transitive, so quotient_group closes G/N on the cosets of N,
    # which it permutes regularly: point 0 is a base
    N = G.subgroup(normal(G))
    perms, _ = coset_action(G, N)
    index = G.order // N.order
    plain = closed(index, perms)
    assert closed(index, perms, base=(0,)) == plain
    Q, _ = quotient_group(G, N)
    assert (Q.elements, Q.gen_indices) == plain
    assert Q.order == index


@pytest.mark.parametrize("name,G", SEEDS, ids=[n for n, _ in SEEDS])
def test_regenerated_closes_alike_on_the_parent_base(name, G):
    for gens in (G.gen_indices, G.gen_indices[:1], [G.order - 1, 1]):
        sub = regenerated(G, gens)
        plain = closed(G.degree, [Perm._raw(G.elements[g]) for g in gens])
        assert (sub.elements, sub.gen_indices) == plain


# -- element storage at the 256-point boundary ------------------------------

# the top point is moved, so the last byte value and the unpadded
# 256-entry translate table are both read
TOP_CYCLE = tuple(range(11)) + (255,)


def boundary_gens(shape, degree):
    """The rotation of TOP_CYCLE, and for D12 its reflection, on `degree`
    points; every other point is fixed."""
    k = len(TOP_CYCLE)
    moves = [[(TOP_CYCLE[i], TOP_CYCLE[(i + 1) % k]) for i in range(k)]]
    if shape == "dihedral":
        moves.append([(TOP_CYCLE[i], TOP_CYCLE[-i % k]) for i in range(k)])
    gens = []
    for move in moves:
        images = list(range(degree))
        for x, y in move:
            images[x] = y
        gens.append(Perm(images))
    return gens


def rows(G):
    return [G.row(g) for g in range(G.order)]


@pytest.mark.parametrize("shape", ["cyclic", "dihedral"])
def test_elements_are_bytes_on_256_points_and_tuples_on_257(
        monkeypatch, shape):
    seen_images = []
    closure_of = regmaps.group.closure

    def recording(degree, generators, **kwargs):
        seen_images.extend(g.images for g in generators)
        return closure_of(degree, generators, **kwargs)

    monkeypatch.setattr(regmaps.group, "closure", recording)
    sides = {}
    for degree, kind in ((256, bytes), (257, tuple)):
        G = closure(degree, boundary_gens(shape, degree))
        assert all(type(e) is kind for e in G.elements)
        for a, x in enumerate(G.elements):
            for b, y in enumerate(G.elements):
                assert tuple(G.elements[G.mul(a, b)]) == oracles.compose(x, y)
        sub = regenerated(G, [G.order - 1])
        assert all(type(e) is kind for e in sub.elements)
        N = G.subgroup([G.power(G.gen_indices[0], 4)])
        Q, proj = quotient_group(G, N)
        sides[degree] = (G, sub, Q, proj)
    (G, sub, Q, proj), (H, hsub, R, hproj) = sides[256], sides[257]
    assert G.gen_indices == H.gen_indices
    assert rows(G) == rows(H)
    # the same images, and one more fixed point on 257 points
    assert ([tuple(e) + (256,) for e in G.elements]
            == list(map(tuple, H.elements)))
    assert (sub.gen_indices, rows(sub)) == (hsub.gen_indices, rows(hsub))
    assert (Q.order, Q.gen_indices, rows(Q), proj) == (
        R.order, R.gen_indices, rows(R), hproj)
    assert Q.order == G.order // 3
    assert seen_images and all(type(im) is tuple for im in seen_images)


def cyclic_presentation(n):
    return Presentation(("a",), (Word.gen(0) ** n,))


def dihedral_presentation(n):
    a, b = Word.gen(0), Word.gen(1)
    return Presentation(("a", "b"), (a ** (n // 2), b ** 2, (a * b) ** 2))


@pytest.mark.parametrize("family,orders", [
    (cyclic_presentation, (256, 257)),
    (dihedral_presentation, (256, 258)),
], ids=["cyclic", "dihedral"])
def test_regular_tables_are_bytes_up_to_256_points(family, orders):
    # the regular representation closed on the base (0,) of a table of
    # order 256, and of the next table of the family, equals the closure of
    # its columns
    for n, kind in zip(orders, (bytes, tuple)):
        ct = todd_coxeter(family(n))
        assert ct.n == n
        perms = ct.gen_perms()
        G = closure(n, perms, base=(0,))
        assert all(type(e) is kind for e in G.elements)
        assert all(type(p.images) is tuple for p in perms)
        plain = closure(n, perms)
        assert list(map(tuple, G.elements)) == list(map(tuple, plain.elements))
        assert G.gen_indices == plain.gen_indices


def test_lagrange_and_cosets():
    from collections import Counter
    G = symmetric_group(4)
    for gens in [(1,), (1, 2), (G.gen_indices[1],), tuple(G.gen_indices)]:
        H = G.subgroup(gens)
        assert G.order % H.order == 0
        _, coset_of = coset_action(G, H)
        # labels in order of least member
        assert list(dict.fromkeys(coset_of)) == list(range(G.order // H.order))
        assert all(c == H.order for c in Counter(coset_of).values())
        assert {x for x in range(G.order) if coset_of[x] == 0} == H.members


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


def assert_core_is_brute_force(G, H):
    """normal_core(G, H) has the members of the brute-force core and the
    gens subgroup_from_members gives them; a trivial or improper H is its
    own core and comes back as it is."""
    core = normal_core(G, H)
    want = oracles.brute_core(G, H.members)
    assert core.members == want
    if H.order == 1 or H.is_improper():
        assert core is H
    else:
        assert core.gens == G.subgroup_from_members(want).gens


@pytest.mark.parametrize("name", [n for n, _ in SEEDS] + corpus_names())
def test_normal_core_matches_brute_force(name, corpus):
    # seeds: the subgroups of their first generators and of element 1;
    # corpus: every Sylow subgroup and every map's vertex stabilizer
    if name in corpus:
        G = corpus[name].group
        subs = [sylow_p(G, p) for p in prime_factors(G.order)]
        subs += [m.vertex_subgroup for m in corpus[name].maps.values()]
    else:
        G = dict(SEEDS)[name]
        subs = [G.subgroup(gens)
                for gens in (G.gen_indices[:1], G.gen_indices[:2], [1])]
    for H in subs:
        assert_core_is_brute_force(G, H)


@pytest.mark.parametrize("name", ["S4", "D6", "g72_3map.grp",
                                  "g216_orientable.grp", "g384_chiral.grp"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_normal_core_of_drawn_subgroups_matches_brute_force(name, corpus,
                                                            data):
    G = corpus[name].group if name in corpus else dict(SEEDS)[name]
    xs = data.draw(st.lists(st.integers(0, G.order - 1),
                            min_size=1, max_size=2))
    H = G.subgroup(xs)
    event(f"|H| = {H.order}")
    assert_core_is_brute_force(G, H)


def test_normal_core_walk_counts_on_o2_of_g384(corpus, monkeypatch):
    # |P| = 128 and 6 generators bound the walk by 768 conjugations: the 64
    # members of the core take 384, and the walks of the other classes stop
    # at a conjugate outside P or in a class already out.  Stopping only
    # outside P takes 522, and sweeping P until no member has a conjugate
    # by a generator outside the survivors takes 1152.  A conjugation is
    # two lookups in G._at, and the core's own generators are found by
    # subgroup_from_members, whose lookups are counted apart.
    G = corpus["g384_chiral.grp"].group
    P = sylow_p(G, 2)
    for g in G.gen_indices:
        G.inv(g)  # kept, so the walk looks up no inverse
    lookups = []

    class Counted(dict):
        def __getitem__(self, key):
            lookups.append(key)
            return dict.__getitem__(self, key)
    monkeypatch.setattr(G, "_at", Counted(G._at))
    core = normal_core(G, P)
    walk = len(lookups)
    lookups.clear()
    assert G.subgroup_from_members(core.members) == core
    assert (P.order, core.order) == (128, 64)
    assert walk - len(lookups) == 2 * 458


@pytest.mark.parametrize("name,G", SEEDS, ids=[n for n, _ in SEEDS])
def test_solvability_matches_brute_force(name, G):
    assert is_solvable(G) == oracles.brute_is_solvable(G)


def test_derived_series_shapes():
    S4 = symmetric_group(4)
    series = derived_series(S4)
    assert [s.order for s in series] == [24, 12, 4, 1]
    assert derived_series(alternating_group(5))[-1].order == 60


def _unsolvable_groups() -> list:
    """A5, S5 and the two matrix ladder groups, of orders 60, 120, 2640
    and 4368."""
    return [alternating_group(5), symmetric_group(5),
            matrix_group(11, LADDER), matrix_group(13, LADDER)]


def _solvable_by_order(n: int) -> bool:
    return n % 2 == 1 or len(prime_factors(n)) <= 2


def test_solvability_by_order_reads_no_series(corpus, monkeypatch):
    # Feit-Thompson and Burnside's p^a q^b theorem; the wrapped function,
    # as the kept answer of an earlier test would read no series either
    def series(G):
        raise AssertionError("read the derived series")
    monkeypatch.setattr(regmaps.group, "derived_series", series)
    groups = [G for G in census_zoo(corpus) if _solvable_by_order(G.order)]
    assert {G.order % 2 for G in groups} == {0, 1}
    assert all(is_solvable.__wrapped__(G) for G in groups)


def _a5_times_s3() -> FiniteGroup:
    """A5 on points 0-4 times S3 on points 5-7, of order 360: its one
    nontrivial p-core, the C3 of S3, is not central."""
    return closure(8, [Perm([1, 2, 0, 3, 4, 5, 6, 7]),
                       Perm([1, 2, 3, 4, 0, 5, 6, 7]),
                       Perm([0, 1, 2, 3, 4, 6, 7, 5]),
                       Perm([0, 1, 2, 3, 4, 6, 5, 7])])


def _c2_c3_c5() -> FiniteGroup:
    """C2 x C3 x C5 on 2 + 3 + 5 points: nilpotent, of even order with
    three prime divisors."""
    return closure(10, [Perm([1, 0, 2, 3, 4, 5, 6, 7, 8, 9]),
                        Perm([0, 1, 3, 4, 2, 5, 6, 7, 8, 9]),
                        Perm([0, 1, 2, 3, 4, 6, 7, 8, 9, 5])])


def _counted_series(monkeypatch) -> list:
    """The groups derived_series is called on from here on, in order."""
    calls = []
    real = regmaps.group.derived_series

    def counted(G):
        calls.append(G)
        return real(G)
    monkeypatch.setattr(regmaps.group, "derived_series", counted)
    return calls


def test_other_orders_read_the_series(monkeypatch):
    # A5, S5 and the ladders: the product F of the p-cores is central and
    # proper, so C_G(F) = G is not inside F, which Fitting's theorem
    # forbids in a solvable group, and no series is read.  A5 x S3 has a
    # core that is not central, and reads it.
    groups = _unsolvable_groups()
    assert [G.order for G in groups] == [60, 120, 2640, 4368]
    calls = _counted_series(monkeypatch)
    assert not any(is_solvable.__wrapped__(G) for G in groups)
    assert calls == []
    G = _a5_times_s3()
    assert G.order == 360
    assert [o_p(G, p).order for p in prime_factors(G.order)] == [1, 3, 1]
    assert not is_solvable(G)
    assert calls == [G]


def test_a_nilpotent_group_answers_without_the_series(monkeypatch):
    G = _c2_c3_c5()
    assert G.order == 30
    calls = _counted_series(monkeypatch)
    assert is_solvable.__wrapped__(G)
    assert calls == []


def test_solvability_agrees_with_the_derived_series(corpus):
    for G in census_zoo(corpus) + _unsolvable_groups() + [
            _a5_times_s3(), _c2_c3_c5()] + [
            rz.group for rz in corpus.values()]:
        assert is_solvable(G) == (derived_series(G)[-1].order == 1), G.order


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


# -- subgroups grown in place, against the oracles --------------------------

GROWN_GROUPS = {name: (lambda corpus, name=name: corpus[name].group)
                for name in corpus_names()}
GROWN_GROUPS.update({
    "D5": lambda corpus: dihedral_group(5),
    "D8": lambda corpus: dihedral_group(8),
    "D12": lambda corpus: dihedral_group(12),
    "S4": lambda corpus: symmetric_group(4),
})


@pytest.mark.parametrize("name", sorted(GROWN_GROUPS))
def test_derived_series_matches_oracle(corpus, name):
    G = GROWN_GROUPS[name](corpus)
    assert ([term.members for term in derived_series(G)]
            == oracles.brute_derived_series(G))


@pytest.mark.parametrize("name", sorted(GROWN_GROUPS))
def test_sylow_and_omega1_match_oracles(corpus, name):
    G = GROWN_GROUPS[name](corpus)
    for p in prime_factors(G.order):
        P = sylow_p(G, p)
        assert oracles.is_sylow(G, P.members, p)
        assert omega1(P, p).members == oracles.brute_omega1(G, P.members, p)
        if G.order <= 400:
            whole = G.improper_subgroup()
            assert (omega1(whole, p).members
                    == oracles.brute_omega1(G, whole.members, p))


@pytest.mark.parametrize("name", sorted(GROWN_GROUPS))
def test_normal_closure_matches_oracle(corpus, name):
    G = GROWN_GROUPS[name](corpus)
    n = G.order
    P = sylow_p(G, prime_factors(n)[-1])
    for ambient, seeds in [(G.gen_indices, [1]), (G.gen_indices, [n - 1]),
                           (G.gen_indices, [n // 2, n // 3]),
                           (P.gens, [n - 1]), (P.gens, [n // 2])]:
        N = normal_closure(G, ambient, seeds)
        assert N.members == oracles.brute_normal_closure(G, ambient, seeds)


@pytest.mark.parametrize("name", sorted(GROWN_GROUPS))
def test_subgroup_from_members_matches_oracle(corpus, name):
    G = GROWN_GROUPS[name](corpus)
    subgroups = ([term.members for term in derived_series(G)]
                 + [sylow_p(G, p).members for p in prime_factors(G.order)])
    for members in subgroups:
        H = G.subgroup_from_members(members)
        assert H.members == members
        assert H.gens == oracles.greedy_generators(G, members)
        if 1 < len(members) < G.order:
            outside = min(set(range(G.order)) - members)
            with pytest.raises(ContractViolation):
                G.subgroup_from_members(members | {outside})


@pytest.mark.parametrize("name", sorted(GROWN_GROUPS))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_grown_generators_are_irredundant(corpus, name, data):
    # each generator lies outside the span of the generators before it
    G = GROWN_GROUPS[name](corpus)
    elem = st.integers(0, G.order - 1)
    seeds = data.draw(st.lists(elem, min_size=1, max_size=3))
    seeds += [G.power(x, 2) for x in seeds]
    p = data.draw(st.sampled_from(prime_factors(G.order)))
    grown = [normal_closure(G, G.gen_indices, seeds),
             omega1(sylow_p(G, p), p), *derived_series(G)[1:]]
    for H in grown:
        for k, g in enumerate(H.gens):
            assert g not in oracles.span(G, H.gens[:k])


def test_derived_series_of_g384_costs_516_products(monkeypatch):
    # a fresh group, whose derived series no earlier test has kept
    G = realize_group_file(parse_group_file(
        corpus_text("g384_chiral.grp"))).group
    mul = regmaps.group.FiniteGroup.mul
    calls = []

    def counted(self, i, j):
        calls.append(i)
        return mul(self, i, j)
    monkeypatch.setattr(regmaps.group.FiniteGroup, "mul", counted)
    series = derived_series(G)
    assert [term.order for term in series] == [384, 96, 16, 1]
    assert [len(term.gens) for term in series] == [6, 3, 3, 0]
    assert len(calls) == 516


def test_hom_extend_finds_and_refuses():
    G = symmetric_group(4)
    gens = list(G.gen_indices)
    ident = hom_extend(G, G, gens)
    assert ident is not None and ident.is_bijective()
    # sending a transposition to a 3-cycle can't extend
    three = next(g for g in range(G.order) if G.order_of(g) == 3)
    bad = hom_extend(G, G, [three] + gens[1:])
    assert bad is None


def test_the_lift_checks_every_generators_edges():
    # C3 = <a>, listed after or before the identity: a walk that checked
    # one generator's edges only would extend a -> (0 1), of order 2
    a, ident, swap = [1, 2, 0], [0, 1, 2], [1, 0, 2]
    assert regmaps.group._lift((ident, a), (ident, a), 3) == (
        True, True, [0, 1, 2])
    for rows, moves in (((ident, a), (ident, swap)),
                        ((a, ident), (swap, ident))):
        assert regmaps.group._lift(rows, moves, 3)[:2] == (True, False)
    # the walk goes on past a disagreement, met here at its first edge, to
    # find that the identity and b generate C4
    b, ident4, swap4 = [1, 2, 3, 0], [0, 1, 2, 3], [1, 0, 2, 3]
    assert regmaps.group._lift((ident4, b), (swap4, ident4), 4)[:2] == (
        True, False)
    # nor does a disagreement pass for generation: b^2 does not generate C4
    assert regmaps.group._lift((ident4, [2, 3, 0, 1]), (swap4, ident4),
                               4)[:2] == (False, False)
    # unless the caller has proved that the rows generate: then it stops
    assert regmaps.group._lift((ident4, b), (swap4, ident4), 4, True) == (
        True, False, [0, -1, -1, -1])


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
                if D4.order_of(g) == 2
                and g not in center(D4.improper_subgroup()).members)
    perms, _ = coset_action(D4, D4.subgroup([refl]))
    assert is_transitive(perms, 4)
    assert not is_primitive(perms, 4)


# -- primitivity, one least block per suborbit -------------------------------

def vertex_action(m):
    """The images of G's generators on the vertices of map m."""
    perms, _ = coset_action(m.group, m.vertex_subgroup)
    return [g.images for g in perms]


def census_maps(G):
    return [e.map for e in enumerate_oriented(G) + enumerate_flagged(G)]


def test_vertex_primitivity_matches_the_all_beta_scan_on_the_corpus(corpus):
    # every declared map, and every map of both kinds on each group the
    # census bound admits
    seen = set()
    for rz in corpus.values():
        maps = list(rz.maps.values())
        if rz.group.order <= 2000:
            maps += census_maps(rz.group)
        for m in maps:
            images = vertex_action(m)
            want = oracles.brute_is_primitive(images, len(images[0]))
            assert m.vertex_primitive == want, m
            seen.add((m.kind, want))
    assert seen == {(kind, prim) for kind in ("oriented", "flagged")
                    for prim in (True, False)}


@pytest.mark.parametrize("p,vertices", [(11, 110), (13, 156)])
def test_vertex_primitivity_matches_the_all_beta_scan_on_the_ladder(
        p, vertices, monkeypatch):
    rz = realize_group_file(parse_group_file(
        f"group ladder\nmat r = [[2,1],[1,0]] mod {p}\n"
        f"mat l = [[0,1],[1,0]] mod {p}\nmap m : oriented r=r l=l\n"))
    m = rz.maps["m"]
    images = vertex_action(m)
    assert len(images[0]) == vertices
    # the vertex stabilizer fixes one point besides 0 (for p = 13, the one
    # suborbit of size 1 among 22 of size 7): walked first, it gives a
    # block of size 2 and decides the test
    walks = []
    walk = regmaps.group._minimal_block_size

    def counted(perms, npoints, beta):
        walks.append(beta)
        return walk(perms, npoints, beta)
    monkeypatch.setattr(regmaps.group, "_minimal_block_size", counted)
    assert m.vertex_primitive == oracles.brute_is_primitive(images, vertices)
    assert len(walks) == 1


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_agl1_vertex_actions_are_primitive(q):
    G = realize_group_file(parse_group_file(agl1_file(q))).group
    for m in census_maps(G):
        images = vertex_action(m)
        if len(images[0]) == q:  # the natural action, 2-transitive
            assert oracles.brute_is_primitive(images, q)
        assert m.vertex_primitive == oracles.brute_is_primitive(
            images, len(images[0]))


def primitive_on_right_cosets(m) -> bool:
    """is_primitive on G's action on the right cosets of the vertex
    subgroup V, by coset_action, with V's action fixing the coset V."""
    G, V = m.group, m.vertex_subgroup
    perms, coset_of = coset_action(G, V)
    reps = dict(zip(coset_of, range(G.order))).values()
    stabilizer = [Perm(tuple(coset_of[G.mul(r, v)] for r in reps))
                  for v in V.gens]
    return is_primitive(perms, len(reps), stabilizer)


def test_vertex_primitivity_on_left_cosets_is_that_on_right_cosets(corpus):
    # every declared map, and the census maps of the census zoo (D3-D20
    # and every corpus group the census bound admits among them) and of
    # AGL(1,q)
    groups = census_zoo(corpus) + [
        realize_group_file(parse_group_file(agl1_file(q))).group
        for q in (4, 5, 7, 8, 9, 11, 13)]
    maps = [m for rz in corpus.values() for m in rz.maps.values()]
    maps += [m for G in groups for m in census_maps(G)]
    seen = set()
    for m in maps:
        assert m.vertex_primitive == primitive_on_right_cosets(m), m
        seen.add((m.kind, m.vertex_primitive))
    assert seen == {(kind, prim) for kind in ("oriented", "flagged")
                    for prim in (True, False)}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 12, 13])
def test_dihedral_primitivity_on_one_point_stabilizer(n):
    # D_n on n points, with the reflection x -> -x fixing point 0: blocks
    # are the cosets of the subgroups dZ/nZ, so it is primitive iff n is
    # prime
    rot = Perm(tuple((i + 1) % n for i in range(n)))
    flip = Perm(tuple(-i % n for i in range(n)))
    want = oracles.brute_is_primitive([rot.images, flip.images], n)
    assert want == is_prime(n)
    assert is_primitive([rot, flip], n, [flip]) == want
    assert is_primitive([rot, flip], n) == want


def test_every_suborbit_is_tested():
    # D_2m on 2m points: the least block through 0 and either point of
    # the first suborbit {1, -1} is everything, so testing that suborbit
    # alone would call the action primitive; the block {0, m} comes from
    # the suborbit {m}
    m = 5
    rot = Perm(tuple((i + 1) % (2 * m) for i in range(2 * m)))
    flip = Perm(tuple(-i % (2 * m) for i in range(2 * m)))
    for beta in (1, 2 * m - 1):
        assert (regmaps.group._minimal_block_size([rot, flip], 2 * m, beta)
                == 2 * m)
    assert oracles.brute_block_size([rot.images, flip.images], 2 * m, m) == 2
    assert not is_primitive([rot, flip], 2 * m, [flip])


def test_a_stabilizer_that_moves_point_zero_is_refused():
    rot = Perm((1, 2, 0))
    with pytest.raises(ContractViolation, match="moves point 0"):
        is_primitive([rot], 3, [rot])
    assert is_primitive([rot], 3, [Perm((0, 1, 2))])


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
    assert oracles.is_cyclic(cyclic_group(12).improper_subgroup())
    assert not oracles.is_cyclic(klein_four_group().improper_subgroup())


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
            assert tuple(G.elements[G.mul(i, j)]) == oracles.compose(x, y)


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
    assert (ka is None) == (G.subgroup(a).order < G.order)
    assert (kb is None) == (G.subgroup(b).order < G.order)
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


@pytest.mark.parametrize("text,p,points", [
    (corpus_text("g72_3map.grp"), 3, 12),
    ("group l\nmat a = [[2,1],[1,0]] mod 11\n"
     "mat b = [[0,1],[1,0]] mod 11\n", 2, 60),
    (None, 2, 6),
], ids=["G72", "ladder11", "S4"])
def test_quotient_on_core_orbits_matches_the_regular_action(text, p, points):
    # G72 and the ladder close G/O_p on the orbits of O_p; O_2 of S4 is V4,
    # transitive on the 4 points, so S4/V4 takes the regular action
    G = _realized(text) if text else symmetric_group(4)
    N = o_p(G, p)
    Q, proj = quotient_group(G, N)
    perms, coset_of = coset_action(G, N)
    R = closure(G.order // N.order, perms)
    assert Q.degree == points
    assert proj == coset_of
    assert ([[Q.mul(k, g) for g in Q.gen_indices] for k in range(Q.order)]
            == [[R.mul(k, g) for g in R.gen_indices] for k in range(R.order)])


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


# -- rows, centralizers and class moves, against per-entry oracles ----------

def _regular(G):
    """G acting on itself by right multiplication: a one-point base."""
    return closure(G.order, [Perm(tuple(G.row(g))) for g in G.gen_indices])


LOOKUP_GROUPS = {
    **{name: (lambda corpus, name=name: corpus[name].group)
       for name in corpus_names()},
    "ladder_p11": lambda corpus: matrix_group(
        11, (((2, 1), (1, 0)), ((0, 1), (1, 0)))),
    "regular_d8": lambda corpus: _regular(dihedral_group(8)),
    # a base of 9 points
    "e2^9_on_18": lambda corpus: closure(18, [
        Perm.from_cycles(((2 * i, 2 * i + 1),), 18) for i in range(9)]),
    # 8 elements
    "regular_d4": lambda corpus: _regular(dihedral_group(4)),
    # tuple elements, read per entry
    "d300": lambda corpus: dihedral_group(300),
}


def test_lookup_groups_take_both_lookups(corpus):
    bulk = {name for name, make in LOOKUP_GROUPS.items()
            if isinstance(make(corpus).elements[0], bytes)}
    assert bulk == set(LOOKUP_GROUPS) - {"d300"}
    assert len(LOOKUP_GROUPS["regular_d8"](corpus).base) == 1
    assert len(LOOKUP_GROUPS["e2^9_on_18"](corpus).base) == 9


@pytest.mark.parametrize("name", LOOKUP_GROUPS)
def test_rows_centralizers_and_classes_match_per_entry_oracles(corpus, name):
    G = LOOKUP_GROUPS[name](corpus)
    n = G.order
    for g in sorted({0, *G.gen_indices, *range(1, n, max(1, n // 12))}):
        assert G.row(g) == [G.mul(x, g) for x in range(n)]
        assert G.centralizer(g) == [c for c in range(n)
                                    if G.mul(g, c) == G.mul(c, g)]
    # the orbits of conjugation by every element, numbered by least member
    want, sizes = [-1] * n, []
    for x in range(n):
        if want[x] < 0:
            orbit = {G.conj(x, c) for c in range(n)}
            for y in orbit:
                want[y] = len(sizes)
            sizes.append(len(orbit))
    assert G.conjugacy_classes() == (want, [sizes[c] for c in want])


# -- the index: one key object per element ----------------------------------

def _g2106(corpus):
    """g2106, realized on the 81 cosets of a cyclic subgroup."""
    return corpus["g2106_chiral.grp"].group


# Closed on a base its caller passes, and the base each keeps: the ladder
# on (0, 12), g2106 on the cosets its generator's cycles give, G/O_3 of
# g2106 (order 26) on the coset O_3, and a subgroup `regenerated` lists on
# its parent's base
BASED_GROUPS = {
    "ladder_p13": (lambda corpus: matrix_group(13, LADDER), (0, 12)),
    "g2106_on_81_cosets": (_g2106, (0, 3)),
    "g2106_mod_o3_regular": (
        lambda corpus: quotient_group(_g2106(corpus),
                                      o_p(_g2106(corpus), 3))[0], (0,)),
    "ladder_p13_regenerated_sylow2": (
        lambda corpus: regenerated(matrix_group(13, LADDER),
                                   sylow_p(matrix_group(13, LADDER), 2).gens),
        (0, 12)),
}


@pytest.mark.parametrize("name", BASED_GROUPS)
def test_a_based_group_keeps_the_base_it_was_closed_on(corpus, name):
    make, base = BASED_GROUPS[name]
    G = make(corpus)
    assert G.base == base
    plain = closure(G.degree, [Perm._raw(tuple(G.elements[g]))
                               for g in G.gen_indices])
    assert (G.elements, G.gen_indices) == (plain.elements, plain.gen_indices)


INDEX_GROUPS = {**LOOKUP_GROUPS,
                **{name: make for name, (make, _) in BASED_GROUPS.items()}}


@pytest.mark.parametrize("name", INDEX_GROUPS)
def test_index_matches_the_per_element_comprehensions(corpus, name):
    # the getters and the dict as built one element at a time, whether
    # closure's walk built them on its caller's base or the group was
    # indexed on the base it grew
    G = INDEX_GROUPS[name](corpus)
    pick = itemgetter(*G.base)
    if len(G.base) > 1:
        get = [itemgetter(*pick(e)) for e in G.elements]
    else:
        get = [itemgetter(pick(e)) for e in G.elements]
    assert G._at == {g(G.elements[0]): k for k, g in enumerate(get)}
    n = G.order
    for x in sorted({0, *G.gen_indices, *range(1, n, max(1, n // 8))}):
        images = G.elements[x]
        assert [g(images) for g in G._get] == [g(images) for g in get]


def _index_bytes_per_element(make) -> float:
    """The bytes a group holds beyond its elements, per element: its
    getters, its index and its per-element caches, as closure builds
    them."""
    make()  # once untraced, so that no first-use cost is counted
    gc.collect()  # empties the free lists, so that each object is traced
    tracemalloc.start()
    try:
        G = make()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    elements = sys.getsizeof(G.elements) + sum(map(sys.getsizeof,
                                                   G.elements))
    return (held - elements) / G.order


@pytest.mark.parametrize("make,degree,most", [
    (lambda: matrix_group(13, LADDER), 168, 205),
    (lambda: dihedral_group(300), 300, 205),
], ids=["ladder_p13_bytes", "d300_tuples"])
def test_index_bytes_per_element(make, degree, most):
    # a getter, its key shared with the index, a dict entry and a slot for
    # its inverse: 197 and 195 B an element on Python 3.11, the ladder
    # indexed by closure's walk on its base and d300 on the base it grew;
    # 217 and 211 when each group also kept per-element lists of orders
    # and rows
    assert make().degree == degree
    assert _index_bytes_per_element(make) <= most


# The products derived_series forms, G.mul calls: the series ends at the
# first term whose derived subgroup, grown in full, has that term's order
SERIES_PRODUCTS = {60: 198, 120: 414, 2640: 5308, 4368: 8764}


def test_derived_series_stops_at_half_its_parent():
    for G in _unsolvable_groups():
        count, mul = [0], G.mul

        def counted(i, j):
            count[0] += 1
            return mul(i, j)
        G.mul = counted
        series = derived_series(G)
        del G.mul
        assert count[0] == SERIES_PRODUCTS[G.order]
        assert ([term.members for term in series]
                == oracles.brute_derived_series(G))
