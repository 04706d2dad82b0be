import random
import time
import tracemalloc
from importlib import resources

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import regmaps.cli as cli
from regmaps.coset_enum import (DEFAULT_MAX_COSETS, _abelian,
                                admit_presentation, group_order,
                                presentation_group, todd_coxeter)
from regmaps.errors import ContractViolation, ResourceLimitExceeded
from regmaps.group import (ELEMENT_CELLS, closure, derived_series,
                           standardize)
from regmaps.perm import Perm
from regmaps.verify import corpus_text
from regmaps.grammar import parse_group_file
from regmaps.words import Presentation, Word

import oracles

# Every presentation-mode corpus file must close at its known order with
# the default coset limit.
CORPUS_ORDERS = [
    ("s4_presentation.grp", 24),
    ("g72_3map.grp", 72),
    ("g384_chiral.grp", 384),
    ("g2106_chiral.grp", 2106),
    ("g216_orientable.grp", 216),
    ("g216_nonorientable.grp", 216),
]


def _rows(ct):
    """The table one list per coset: ``_rows(ct)[k][x]`` is coset k * x."""
    return [list(row) for row in zip(*ct.cols)]


@pytest.mark.parametrize("fname,order", CORPUS_ORDERS,
                         ids=[f for f, _ in CORPUS_ORDERS])
def test_corpus_presentations_close(fname, order):
    gf = parse_group_file(corpus_text(fname))
    ct = todd_coxeter(gf.presentation)
    assert ct.n == order


def test_cyclic_and_trivial():
    a = Word.gen(0)
    assert todd_coxeter(Presentation(("a",), (a ** 5,))).n == 5
    assert todd_coxeter(Presentation(("a",), (a,))).n == 1
    assert todd_coxeter(Presentation((), ())).n == 1
    assert presentation_group(Presentation((), ())).order == 1


def test_subgroup_enumeration_counts_cosets():
    s, u = Word.gen(0), Word.gen(1)
    pres = Presentation(("s", "u"), (s ** 2, u ** 3, (s * u) ** 4))
    assert todd_coxeter(pres).n == 24
    assert todd_coxeter(pres, (s,)).n == 12
    assert todd_coxeter(pres, (u,)).n == 8
    assert todd_coxeter(pres, (s, u)).n == 1


def test_coincidence_heavy_presentation():
    # both relators force a collapse to C2
    a, b = Word.gen(0), Word.gen(1)
    pres = Presentation(("a", "b"), (a * b.inverse(), a ** 2))
    assert todd_coxeter(pres).n == 2


def test_limit_raises_resource_error():
    a, b = Word.gen(0), Word.gen(1)
    # free product C2 * C3 is infinite
    pres = Presentation(("a", "b"), (a ** 2, b ** 3))
    with pytest.raises(ResourceLimitExceeded) as e:
        todd_coxeter(pres, max_cosets=500)
    assert e.value.limit_name == "max_cosets"
    assert e.value.limit_value == 500


@pytest.mark.parametrize("bound", [0, -1, -3])
def test_bounds_below_one_are_refused(bound):
    # a finite presentation, so that a missing check ends in a wrong
    # answer, not in an unbounded run
    pres = parse_group_file(corpus_text("s4_presentation.grp")).presentation
    with pytest.raises(ContractViolation,
                       match=f"max_cosets must be at least 1, got {bound}"):
        todd_coxeter(pres, max_cosets=bound)


def test_one_coset_is_a_usable_bound():
    a = Word.gen(0)
    assert todd_coxeter(Presentation(("a",), (a,)), max_cosets=1).n == 1
    with pytest.raises(ResourceLimitExceeded):
        todd_coxeter(Presentation(("a",), (a ** 2,)), max_cosets=1)


def test_gen_perms_satisfy_relators():
    gf = parse_group_file(corpus_text("s4_presentation.grp"))
    ct = todd_coxeter(gf.presentation)
    G = closure(ct.n, ct.gen_perms())
    for rel in gf.presentation.relators:
        assert rel.evaluate(G, G.gen_indices) == 0
    # regular representation: independent closure has the same order
    perms = ct.gen_perms()
    assert len(oracles.brute_closure([p.images for p in perms])) == ct.n


def test_table_is_deterministic():
    gf = parse_group_file(corpus_text("g72_3map.grp"))
    ct1 = todd_coxeter(gf.presentation)
    ct2 = todd_coxeter(gf.presentation)
    assert ct1.cols == ct2.cols


def test_regular_table_columns_close_to_the_regular_group():
    gf = parse_group_file(corpus_text("s4_presentation.grp"))
    ct = todd_coxeter(gf.presentation)
    G = closure(ct.n, ct.gen_perms())
    assert G.order == 24
    assert G.degree == 24


def generator_rows(G):
    """Row k lists k * g for each generator g: equal tables of two groups
    mean the same element numbering."""
    return [[G.mul(k, g) for g in G.gen_indices] for k in range(G.order)]


# Degree of the coset action each corpus presentation is realized on.
CORPUS_DEGREES = {
    "s4_presentation.grp": 8, "g72_3map.grp": 36, "g384_chiral.grp": 96,
    "g2106_chiral.grp": 81, "g216_orientable.grp": 54,
    "g216_nonorientable.grp": 54,
}


@pytest.mark.parametrize("fname,order", CORPUS_ORDERS,
                         ids=[f for f, _ in CORPUS_ORDERS])
def test_presentation_group_numbers_like_regular(fname, order):
    # a faithful coset action numbers every element as the regular one does
    pres = parse_group_file(corpus_text(fname)).presentation
    G = presentation_group(pres)
    ct = todd_coxeter(pres)
    R = closure(ct.n, ct.gen_perms())
    assert G.order == R.order == order
    assert G.degree == CORPUS_DEGREES[fname] < R.degree
    assert generator_rows(G) == generator_rows(R)


def test_presentation_group_on_its_base_is_closure_without_one(monkeypatch):
    # presentation_group passes closure a base of its coset action, and on
    # bytes closure then looks products up by their base images: g2106 on
    # a base of 2 points and g384 on one of 3
    import regmaps.coset_enum as ce
    calls = []

    def recorded(degree, gens, **kwargs):
        calls.append((degree, gens, kwargs["base"]))
        return closure(degree, gens, **kwargs)

    monkeypatch.setattr(ce, "closure", recorded)
    bases = {}
    for fname, _ in CORPUS_ORDERS:
        calls.clear()
        pres = parse_group_file(corpus_text(fname)).presentation
        G = presentation_group(pres)
        [(degree, gens, base)] = calls
        plain = closure(degree, gens)
        assert (G.elements, G.gen_indices) == (plain.elements,
                                               plain.gen_indices), fname
        bases[fname] = len(base)
    assert (bases["g2106_chiral.grp"], bases["g384_chiral.grp"]) == (2, 3)


def test_presentation_group_falls_back_to_regular():
    # In Q8 every cyclic subgroup holds the center, so no action on the
    # cosets of <a> or <b> is faithful.
    a, b = Word.gen(0), Word.gen(1)
    pres = Presentation(("a", "b"), (
        a ** 4, a ** 2 * (b ** 2).inverse(), a.conj(b) * a))
    G = presentation_group(pres)
    assert G.order == G.degree == 8
    ct = todd_coxeter(pres)
    R = closure(ct.n, ct.gen_perms())
    assert generator_rows(G) == generator_rows(R)


# The enumerations presentation_group runs on each presentation, in order,
# by the generator of the subgroup (None for the trivial one), and its one
# closure, on a faithful <g> or on the regular table.  No table is
# enumerated twice.  On g72, d has order 3 on the 8
# cosets of <d>, not the 9 of its relator d^9, so <b> certifies, and in D4
# <b> certifies after <a>, which is normal.  The others keep their regular
# enumeration: in Q8, a acts trivially on its 2 cosets and b has no power
# relator; in "a6" neither a nor b certifies.
ENUMERATIONS = {
    "s4_presentation.grp": ("u", 1), "g72_3map.grp": ("db", 1),
    "g384_chiral.grp": ("a", 1), "g2106_chiral.grp": ("e", 1),
    "g216_orientable.grp": ("d", 1), "g216_nonorientable.grp": ("d", 1),
    "d4": ("ab", 1), "q8": (("a", None, "b"), 1), "a6": (("a", "b", None), 1),
}


def test_presentation_group_enumerates_once(monkeypatch):
    import regmaps.coset_enum as ce
    calls = []

    def counted(fn, arg):
        # records the subgroup words of an enumeration, the degree of a
        # closure
        def call(*args, **kwargs):
            calls.append((fn.__name__, args[arg]))
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(ce, "todd_coxeter", counted(ce.todd_coxeter, 1))
    monkeypatch.setattr(ce, "closure", counted(ce.closure, 0))
    for name, (gens, closures) in ENUMERATIONS.items():
        calls.clear()
        pres = SMALL_PRESENTATIONS.get(name) or parse_group_file(
            corpus_text(name)).presentation
        G = presentation_group(pres)
        subgroups = [() if g is None else (Word.gen(pres.gen_names.index(g)),)
                     for g in gens]
        assert calls == ([("todd_coxeter", sub) for sub in subgroups]
                         + [("closure", G.degree)] * closures), name


def _tc(capsys, *argv):
    ret = cli.main(["tc", *argv])
    captured = capsys.readouterr()
    return ret, captured.out, captured.err


def _corpus_path(fname):
    return str(resources.files("regmaps.corpus") / fname)


def test_tc_enumerates_only_the_certifying_table(monkeypatch, capsys):
    # tc counts the group from the table presentation_group realizes it
    # from, so on the corpus it runs the same enumerations, g2106 one over
    # <e> and none over the trivial subgroup; --export-perms prints the
    # regular table and enumerates nothing else
    import regmaps.coset_enum as ce
    calls = []

    def counted(pres, subgroup_words=(), **kwargs):
        calls.append(tuple(subgroup_words))
        return todd_coxeter(pres, subgroup_words, **kwargs)

    monkeypatch.setattr(ce, "todd_coxeter", counted)
    monkeypatch.setattr(cli, "todd_coxeter", counted)
    for name, order in CORPUS_ORDERS:
        pres = parse_group_file(corpus_text(name)).presentation
        calls.clear()
        assert _tc(capsys, _corpus_path(name)) == (0, f"cosets: {order}\n",
                                                   "")
        assert calls == [(Word.gen(pres.gen_names.index(g)),)
                         for g in ENUMERATIONS[name][0]], name
        calls.clear()
        ret, out, _ = _tc(capsys, "--export-perms", _corpus_path(name))
        assert (ret, out.split("\n")[0]) == (0, f"cosets: {order}")
        assert calls == [()], name


def _same_group(G, H):
    return ((G.elements, G.gen_indices, G.base, G.degree, G.order)
            == (H.elements, H.gen_indices, H.base, H.degree, H.order))


def _same_numbering(G, H):
    """Whether G and H number their elements alike: by closure's walk over
    their generators, whatever the points they act on."""
    return ((G.order, G.gen_indices, standardize(G, G.gen_indices))
            == (H.order, H.gen_indices, standardize(H, H.gen_indices)))


A, B = Word.gen(0), Word.gen(1)
# <a> is normal in D4, so its action is not faithful and <b> gives 4
# points; in Q8 every cyclic subgroup holds the center, so the action is
# the regular one
SMALL_PRESENTATIONS = {
    "d4": Presentation(("a", "b"), (A ** 4, B ** 2, (A * B) ** 2)),
    "q8": Presentation(("a", "b"), (
        A ** 4, A ** 2 * (B ** 2).inverse(), A.conj(B) * A)),
    # a^2 = 1 follows, so a^6 overstates a's order and certifies nothing:
    # the group is V4, on its regular action
    "a6": Presentation(("a", "b"), (
        A ** 6, B ** 2, (A * B) ** 2, Word.commutator(A ** 2, B))),
}


@pytest.mark.parametrize("name,degree",
                         [*CORPUS_DEGREES.items(), ("d4", 4), ("q8", 8),
                          ("a6", 4)])
def test_presentation_group_matches_the_closure_oracle(name, degree):
    pres = SMALL_PRESENTATIONS.get(name) or parse_group_file(
        corpus_text(name)).presentation
    G = presentation_group(pres)
    assert G.degree == degree
    assert _same_group(G, oracles.presentation_group_by_closure(pres))


@pytest.mark.parametrize("name", ["a^200", "a^300", "q8"])
def test_regular_fallback_is_one_closure_of_the_table(monkeypatch, name):
    # on a^200 (bytes elements), a^300 (tuples) and Q8 no <g> is faithful:
    # the group is closure's on the regular table's columns, in one call
    import regmaps.coset_enum as ce
    pres = (SMALL_PRESENTATIONS.get(name)
            or Presentation(("a",), (A ** int(name[2:]),)))
    ct = todd_coxeter(pres)
    want = closure(ct.n, ct.gen_perms())
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return closure(*args, **kwargs)

    monkeypatch.setattr(ce, "closure", counted)
    G = presentation_group(pres)
    assert calls == [ct.n]
    assert _same_numbering(G, want)
    if pres.ngens > 1:  # on one generator the table is the plain n-cycle
        assert G.elements == want.elements


def test_regular_fallback_is_refused_before_its_elements_are_built():
    # 5000 elements on the 5000 points of the regular table pass the cell
    # bound: refused with closure's message, before a generator is built;
    # so is a^1000000, before its cycle is
    for n, admitted in ((5000, 3925), (1_000_000, 7)):
        pres = Presentation(("a",), (A ** n,))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitExceeded) as e:
                presentation_group(pres)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == ("closure exceeded max_cells=20000000:"
                                f" {admitted} elements on {n} points")
        assert peak < 2 * 10**6


def test_presentation_group_order_bound():
    pres = parse_group_file(corpus_text("g72_3map.grp")).presentation
    assert presentation_group(pres, max_order=72).order == 72
    with pytest.raises(ResourceLimitExceeded) as e:
        presentation_group(pres, max_order=71)
    assert e.value.limit_name == "max_order"


# Random presentations on 2 or 3 generators: a power of each generator
# (x^2 and x^-2 among them, which share one column), then one to three
# short products, commutators and powers; and at most one subgroup word.
EXPONENTS = (2, -2, 3, -3, 4, 5)


@st.composite
def presentations(draw):
    ngens = draw(st.integers(2, 3))
    letters = st.sampled_from([s * g for g in range(1, ngens + 1)
                               for s in (1, -1)])

    def words(lo, hi):
        return st.lists(letters, min_size=lo, max_size=hi).map(
            lambda xs: Word(tuple(xs)))

    extra = st.one_of(st.builds(pow, words(1, 4), st.sampled_from(EXPONENTS)),
                      st.builds(Word.commutator, words(1, 1), words(1, 1)),
                      words(2, 6))
    rels = [Word.gen(i) ** draw(st.sampled_from(EXPONENTS))
            for i in range(ngens)]
    rels += draw(st.lists(extra, min_size=1, max_size=3))
    rels = [r for r in rels if not r.is_empty()]
    sub = draw(st.one_of(st.just(()), words(1, 4).map(lambda w: (w,))))
    return Presentation(tuple("abc"[:ngens]), tuple(rels)), sub


@given(presentations())
@settings(max_examples=200, deadline=None)
def test_presentation_group_matches_closure_on_random_presentations(case):
    # the oracle enumerates again over each <g> it tries, which may pass
    # through more cosets than the group has elements, so it gets the
    # default bound; only groups both realize are compared
    pres, _ = case
    try:
        G = presentation_group(pres, max_cosets=2000)
        want = oracles.presentation_group_by_closure(pres)
    except ResourceLimitExceeded:
        event("refused")
        return
    event("trivial" if G.order == 1 else
          "regular" if G.degree == G.order else "on the cosets of <g>")
    assert _same_group(G, want)


@given(presentations())
@settings(max_examples=200, deadline=None)
def test_certified_order_is_the_regular_table_size(case):
    # k * index, read off the table over one <g>, counts what the regular
    # table lists, whenever both enumerations fit in the bound
    pres, _ = case
    tables = {}
    try:
        ct, n = group_order(pres, max_cosets=2000, tables=tables)
    except ResourceLimitExceeded:
        ct = n = None
    try:
        want = todd_coxeter(pres, max_cosets=2000).n
    except ResourceLimitExceeded:
        want = None
    if n is None or want is None:
        event("refused by both" if n is want else "refused by one side")
        return
    event("certified by <g>" if any(ct is t for t in tables.values())
          else "regular table")
    assert n == want


def _rows_or_none(enumerate_rows, pres, sub):
    try:
        return enumerate_rows(pres, sub, max_cosets=2000)
    except ResourceLimitExceeded:
        return None


@given(presentations())
@settings(max_examples=200, deadline=None)
def test_matches_reference_enumerator(case):
    pres, sub = case
    got = _rows_or_none(lambda *a, **k: _rows(todd_coxeter(*a, **k)),
                        pres, sub)
    want = _rows_or_none(oracles.todd_coxeter_rows, pres, sub)
    event("compared" if got and want else "refused")
    if got is not None and want is not None:
        assert got == want


def test_shared_involution_columns():
    a, b = Word.gen(0), Word.gen(1)
    # a^2 and a^3 make a trivial
    ct = todd_coxeter(Presentation(("a",), (a ** 2, a ** 3)))
    assert _rows(ct) == [[0, 0]]
    # a relator a^-2 shares the column as a^2 does: S4 and D4
    for rels, n in [((a ** -2, b ** 3, (a * b) ** 4), 24),
                    ((a ** 2, b ** -2, (a * b) ** 4), 8)]:
        pres = Presentation(("a", "b"), rels)
        ct = todd_coxeter(pres)
        assert ct.n == n and ct.cols[0] == ct.cols[1]
        assert _rows(ct) == oracles.todd_coxeter_rows(pres)
    # <s> in S4 = <s, u | s^2, u^3, (s u)^4>
    pres = parse_group_file(corpus_text("s4_presentation.grp")).presentation
    ct = todd_coxeter(pres, (Word.gen(0),))
    assert ct.n == 12
    assert _rows(ct) == oracles.todd_coxeter_rows(pres, (Word.gen(0),))


def test_refusal_says_how_many_cosets_live():
    pres = parse_group_file(corpus_text("g72_3map.grp")).presentation
    with pytest.raises(ResourceLimitExceeded) as e:
        todd_coxeter(pres, max_cosets=100)
    assert str(e.value) == "coset table exceeded max_cosets=100 (94 live)"
    assert (e.value.limit_name, e.value.limit_value) == ("max_cosets", 100)


def test_refusal_memory_per_coset():
    # the bound limits memory too: C2 * C3 is infinite, so the table fills
    # to max_cosets and is refused there
    a, b = Word.gen(0), Word.gen(1)
    pres = Presentation(("a", "b"), (a ** 2, b ** 3))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitExceeded) as e:
            todd_coxeter(pres, max_cosets=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(e.value) == (
        "coset table exceeded max_cosets=20000 (20000 live)")
    assert peak <= 120 * 20_000


def test_realization_is_refused_before_its_elements_are_built(monkeypatch):
    # g2106 on 81 points needs 2106 * (81 + ELEMENT_CELLS) cells; under half
    # of that, the table is refused with closure's own message, before an
    # element is built.  The enumeration runs untraced, in a first run that
    # keeps its table: the peak is that of what follows it.
    import regmaps.coset_enum as ce
    import regmaps.group
    pres = parse_group_file(corpus_text("g2106_chiral.grp")).presentation
    H = presentation_group(pres)
    gens = [Perm._raw(H.elements[g]) for g in H.gen_indices]
    cells = 2106 * (81 + ELEMENT_CELLS) // 2
    monkeypatch.setattr(regmaps.group, "MAX_CLOSURE_CELLS", cells)
    with pytest.raises(ResourceLimitExceeded) as want:
        closure(81, gens)
    tables = {}

    def kept(pres, subgroup_words=(), **kwargs):
        key = tuple(subgroup_words)
        if key not in tables:
            tables[key] = todd_coxeter(pres, subgroup_words, **kwargs)
        return tables[key]

    monkeypatch.setattr(ce, "todd_coxeter", kept)
    with pytest.raises(ResourceLimitExceeded):
        presentation_group(pres)
    # <e> certifies the order and acts faithfully: past the cell bound on
    # that action the group is refused at once, with no regular enumeration
    assert list(tables) == [(Word.gen(4),)]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitExceeded) as got:
            presentation_group(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(" elements on 81 points")
    assert (got.value.limit_name, got.value.limit_value) == ("max_cells", cells)
    # the elements would hold 8 bytes a cell, 1.4 MB in all
    assert peak < 2106 * 81 * 8 // 10


def test_closure_memory_per_element():
    # a closed group keeps its elements and base lookups, and no product
    # table: g2106 on 81 points holds about 960 B an element
    pres = parse_group_file(corpus_text("g2106_chiral.grp")).presentation
    H = presentation_group(pres)
    gens = [Perm._raw(H.elements[g]) for g in H.gen_indices]
    tracemalloc.start()
    try:
        G = closure(H.degree, gens)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (G.order, G.degree) == (2106, 81)
    assert held <= 1080 * G.order


# The smallest --max-cosets under which each corpus presentation completes,
# and the refusal one below it, for todd_coxeter and tc --export-perms.
# HLT defines its cosets in one fixed order, so these pin that order: a
# change to it moves a user's bound outcome.
SMALLEST_BOUNDS = [
    ("g2106_chiral.grp", 10280, 2110),
    ("g216_nonorientable.grp", 405, 224),
    ("g216_orientable.grp", 391, 219),
    ("g384_chiral.grp", 701, 387),
    ("g72_3map.grp", 124, 85),
    ("s4_presentation.grp", 26, 25),
]


@pytest.mark.parametrize("fname,bound,live", SMALLEST_BOUNDS,
                         ids=[f for f, _, _ in SMALLEST_BOUNDS])
def test_smallest_bound_that_completes(fname, bound, live, capsys):
    pres = parse_group_file(corpus_text(fname)).presentation
    order = dict(CORPUS_ORDERS)[fname]
    assert todd_coxeter(pres, max_cosets=bound).n == order
    with pytest.raises(ResourceLimitExceeded) as e:
        todd_coxeter(pres, max_cosets=bound - 1)
    refusal = f"coset table exceeded max_cosets={bound - 1} ({live} live)"
    assert str(e.value) == refusal
    # tc --export-perms prints the regular table, under the same bounds
    ret, out, _ = _tc(capsys, "--export-perms", _corpus_path(fname),
                      "--max-cosets", str(bound))
    assert (ret, out.split("\n")[0]) == (0, f"cosets: {order}")
    assert _tc(capsys, "--export-perms", _corpus_path(fname),
               "--max-cosets", str(bound - 1)) == (5, "", f"error: {refusal}\n")


# The same for presentation_group and tc, whose enumerations are over the
# cyclic subgroups they try: a certified group needs no regular table.
SMALLEST_REALIZATION_BOUNDS = [
    ("g2106_chiral.grp", 468, 144),
    ("g216_nonorientable.grp", 120, 62),
    ("g216_orientable.grp", 103, 60),
    ("g384_chiral.grp", 158, 101),
    ("g72_3map.grp", 55, 40),
    ("s4_presentation.grp", 8, 7),
]


@pytest.mark.parametrize("fname,bound,live", SMALLEST_REALIZATION_BOUNDS,
                         ids=[f for f, _, _ in SMALLEST_REALIZATION_BOUNDS])
def test_smallest_bound_that_realizes(fname, bound, live, capsys):
    pres = parse_group_file(corpus_text(fname)).presentation
    order = dict(CORPUS_ORDERS)[fname]
    G = presentation_group(pres, max_cosets=bound)
    assert (G.order, G.degree) == (order, CORPUS_DEGREES[fname])
    with pytest.raises(ResourceLimitExceeded) as e:
        presentation_group(pres, max_cosets=bound - 1)
    refusal = f"coset table exceeded max_cosets={bound - 1} ({live} live)"
    assert str(e.value) == refusal
    # tc counts the group from the same certificate, under the same bounds
    path = _corpus_path(fname)
    assert _tc(capsys, path, "--max-cosets", str(bound)) == (
        0, f"cosets: {order}\n", "")
    assert _tc(capsys, path, "--max-cosets", str(bound - 1)) == (
        5, "", f"error: {refusal}\n")


def test_completed_enumeration_memory():
    # g2106 defines 10,280 cosets, 2106 of them live at the end; the rows
    # the table adds ahead of need, an eighth of its size at a time, keep
    # its peak within 2.2 MB (doubling the table would take 2.5 MB)
    pres = parse_group_file(corpus_text("g2106_chiral.grp")).presentation
    tracemalloc.start()
    try:
        assert todd_coxeter(pres).n == 2106
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_200_000


@pytest.mark.parametrize("fname", [f for f, _ in CORPUS_ORDERS])
def test_table_does_not_depend_on_relator_order(fname):
    # a complete table is standardized from the subgroup's coset, so the
    # order in which relators are traced does not show in it
    pres = parse_group_file(corpus_text(fname)).presentation
    want = todd_coxeter(pres).cols
    for seed in range(3):
        rels = list(pres.relators)
        random.Random(seed).shuffle(rels)
        shuffled = Presentation(pres.gen_names, tuple(rels))
        assert todd_coxeter(shuffled).cols == want


# -- the admission check ----------------------------------------------------

# The finite presentations the tests build, beside the corpus's.
S, U = Word.gen(0), Word.gen(1)
BUILT_PRESENTATIONS = {
    **SMALL_PRESENTATIONS,
    "trivial": Presentation((), ()),
    "a": Presentation(("a",), (A,)),
    "c5": Presentation(("a",), (A ** 5,)),
    "c1 from a^2, a^3": Presentation(("a",), (A ** 2, A ** 3)),
    "c2 from ab^-1, a^2": Presentation(("a", "b"), (A * B.inverse(), A ** 2)),
    "s4": Presentation(("s", "u"), (S ** 2, U ** 3, (S * U) ** 4)),
    "s4 from a^-2": Presentation(("a", "b"), (A ** -2, B ** 3, (A * B) ** 4)),
    "d4 from b^-2": Presentation(("a", "b"), (A ** 2, B ** -2, (A * B) ** 4)),
    "c256": Presentation(("a",), (A ** 256,)),
    "d258": Presentation(("a", "b"), (A ** 129, B ** 2, (A * B) ** 2)),
}
ADMITTED = ([parse_group_file(corpus_text(f)).presentation
             for f, _ in CORPUS_ORDERS] + list(BUILT_PRESENTATIONS.values()))


def _abelian_order(G):
    # a series of one term: G is trivial or perfect, so G' = G
    series = derived_series(G)
    return G.order // series[min(1, len(series) - 1)].order


@pytest.mark.parametrize(
    "pres", ADMITTED,
    ids=[f for f, _ in CORPUS_ORDERS] + list(BUILT_PRESENTATIONS))
def test_the_check_admits_every_finite_presentation(pres):
    # neither certificate refuses a finite group, whatever the order bound
    # it is given; the Smith form gives the index of G' that the group side
    # computes
    G = presentation_group(pres)
    for bound in (None, G.order, _abelian_order(G)):
        admit_presentation(pres, max_order=bound)
    assert _abelian(pres.relators, range(1, pres.ngens + 1)) == (
        0, _abelian_order(G))


@given(presentations())
@settings(max_examples=200, deadline=None)
def test_the_check_agrees_with_the_group_side(case):
    # a group whose regular table completes, an enumeration the check does
    # not guard, is admitted, and its abelianization is G/G' as the
    # derived series finds it
    pres, _ = case
    try:
        ct = todd_coxeter(pres, max_cosets=2000)
    except ResourceLimitExceeded:
        event("no finite table within the bound")
        return
    G = closure(ct.n, ct.gen_perms())
    event("perfect" if _abelian_order(G) == 1 < G.order else "finite")
    admit_presentation(pres, max_order=_abelian_order(G))
    assert _abelian(pres.relators, range(1, pres.ngens + 1)) == (
        0, _abelian_order(G))


REFUSED = [
    # C2 * C3, the modular group
    ((A ** 2, B ** 3), "free factors <a> and <b> both have a nontrivial"
                       " abelianization"),
    # C5 * C2: a map file that forgot its (rl)^q
    ((A ** 5, B ** 2), "free factors <a> and <b> both have a nontrivial"
                       " abelianization"),
    # b is free
    ((A ** 2,), "free factors <a> and <b> both have a nontrivial"
                " abelianization"),
    # connected, with Z as its abelianization
    ((A ** 2 * B ** 4,), "its abelianization has free rank 1"),
    ((Word.commutator(A, B),), "its abelianization has free rank 2"),
]


@pytest.mark.parametrize("rels,why", REFUSED)
def test_the_check_refuses_a_provably_infinite_group(rels, why):
    pres = Presentation(("a", "b"), rels)
    for bound in (None, 10**6):
        with pytest.raises(ResourceLimitExceeded) as e:
            admit_presentation(pres, max_cosets=777, max_order=bound)
        assert str(e.value) == f"presentation of an infinite group: {why}"
        assert (e.value.limit_name, e.value.limit_value) == ("max_cosets", 777)


def test_a_split_presentation_with_one_nontrivial_factor_is_admitted():
    # <a | a^3> * <b | b^2, b^3> is C3: the second factor is trivial
    pres = Presentation(("a", "b"), (A ** 3, B ** 2, B ** 3))
    assert admit_presentation(pres, max_order=3) == {0: 3, 1: 2}
    assert presentation_group(pres).order == 3


def test_the_check_refuses_a_large_abelianization():
    pres = Presentation(("a",), (A ** 50_000,))
    with pytest.raises(ResourceLimitExceeded) as e:
        admit_presentation(pres, max_order=2000)
    assert str(e.value) == ("group order is a multiple of 50000, the order of"
                            " its abelianization, and exceeds max_order=2000")
    assert (e.value.limit_name, e.value.limit_value) == ("max_order", 2000)
    # |G/G'| is a lower bound only: C3 x C3 : C2 has G/G' = C2
    C = Word.gen(2)
    g18 = Presentation(("a", "b", "c"), (
        A ** 3, B ** 3, C ** 2, Word.commutator(A, B),
        A.conj(C) * A, B.conj(C) * B))
    assert presentation_group(g18).order == 18
    admit_presentation(g18, max_order=2)
    with pytest.raises(ResourceLimitExceeded):
        admit_presentation(g18, max_order=1)


def test_the_check_runs_before_any_enumeration(monkeypatch):
    import regmaps.coset_enum as ce
    monkeypatch.setattr(ce, "todd_coxeter", None)  # never called
    pres = Presentation(("a", "b"), (A ** 2, B ** 3))
    for realize in (group_order, presentation_group):
        with pytest.raises(ResourceLimitExceeded) as e:
            realize(pres)
        assert e.value.limit_name == "max_cosets"
    with pytest.raises(ResourceLimitExceeded) as e:
        presentation_group(Presentation(("a",), (A ** 50_000,)),
                           max_order=2000)
    assert e.value.limit_name == "max_order"


def test_the_check_admits_an_infinite_connected_perfect_group():
    # the (2,3,7) triangle group is perfect and connected, so neither
    # certificate applies: the CLI tests pin its refusal at the coset bound
    pres = Presentation(("a", "b"), (A ** 2, B ** 3, (A * B) ** 7))
    assert admit_presentation(pres) == {0: 2, 1: 3}
    assert _abelian(pres.relators, range(1, pres.ngens + 1)) == (0, 1)


def test_a_one_generator_order_is_read_without_enumeration(monkeypatch):
    # <a | a^n> and <a | a^n, a^-12>, cyclic of orders n and gcd(n, 12)
    a = Word.gen(0)
    cases = [(a ** n,) for n in range(1, 61)]
    cases += [(a ** n, a ** -12) for n in range(1, 61)]
    pres = [Presentation(("a",), rels) for rels in cases]
    want = [todd_coxeter(p).n for p in pres]
    import regmaps.coset_enum as ce
    monkeypatch.setattr(ce, "todd_coxeter", None)  # a call would fail
    assert [group_order(p)[1] for p in pres] == want
    with pytest.raises(ResourceLimitExceeded, match="free rank 1"):
        group_order(Presentation(("a",), ()))


def test_a_one_generator_group_is_closed_on_the_cycle_table(monkeypatch):
    # no table is built for the order, the group is closed on the plain
    # n-cycle, and its elements are numbered as on todd_coxeter's regular
    # table, for n <= 60
    a = Word.gen(0)
    cases = [(a ** n,) for n in range(1, 61)]
    cases += [(a ** n, a ** -12) for n in range(1, 61)]
    pres = [Presentation(("a",), rels) for rels in cases]
    tables = [todd_coxeter(p) for p in pres]
    groups = [closure(ct.n, ct.gen_perms(), base=(0,)) for ct in tables]
    import regmaps.coset_enum as ce
    monkeypatch.setattr(ce, "todd_coxeter", None)  # a call would fail
    for p, want, W in zip(pres, tables, groups):
        assert group_order(p) == (None, want.n)
        G = presentation_group(p)
        assert G.degree == want.n
        assert tuple(G.elements[G.gen_indices[0]]) == (*range(1, want.n), 0)
        assert _same_numbering(G, W)


@pytest.mark.parametrize("argv", [
    ["analyze"], ["census", "--kind", "oriented", "--max-order", "30000"]],
    ids=["analyze", "census"])
def test_a_long_cyclic_presentation_is_refused_before_a_table(
        tmp_path, monkeypatch, capsys, argv):
    # <a | a^20000> passes the order bounds, and closure's cell bound
    # refuses its 20000 points; no enumeration runs before that refusal
    import regmaps.coset_enum as ce
    monkeypatch.setattr(ce, "todd_coxeter", None)
    f = tmp_path / "c20000.grp"
    f.write_text("group c20000\ngens a\nrel a^20000\n"
                 "map m : oriented r=a l=a^10000\n", encoding="utf-8")
    start = time.perf_counter()
    assert cli.main([argv[0], str(f)] + argv[1:]) == 5
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: closure exceeded max_cells=20000000:"
        " 984 elements on 20000 points\n")
