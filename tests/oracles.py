"""Brute-force reference implementations.

Everything here is deliberately naive: plain BFS over raw permutation
tuples, quadratic scans, intersections over all conjugates.  No shared
shortcuts with the package, so the fast code has something honest to be
measured against.  The one exception is the full-scan census, which keys
classes by the package's standardized tables: it is the census before the
first entries were cut down to conjugacy-class minima.  So is the
reference coset enumerator, which standardizes its table the same way: it
is the row-per-coset HLT kernel from before the per-generator columns.  And
so is the reference realization of a presentation, which runs the package's
enumerator and closure: it enumerates again over each cyclic subgroup it
tries and closes that action, where the package reads both off one table.
The conjugation-scan census runs the package's orbit walk and class
records: it is the census before it dropped the tuples whose image does
not generate G/G′.  The structure law is checked on the group side with
the package's kernel operations, apart from the classifier: it states the
paper's theorem a second way, and proves an S4 quotient by an isomorphism
search where the classifier reads one normal core.  Map isomorphism
compares the package's keys, and a flagged map's even-word subgroup is the
2-colouring walk the package ran apart from its generation proof.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from typing import Optional

from regmaps.census import _add, _entries, _orbit_minima
from regmaps.classify import _p_map
from regmaps.coset_enum import DEFAULT_MAX_COSETS, todd_coxeter
from regmaps.errors import (ContractViolation, ResourceLimitExceeded,
                            TheoremViolation)
from regmaps.group import (DEFAULT_MAX_ORDER, closure, is_normal,
                           is_solvable, isomorphism_search, o_p,
                           quotient_group, regenerated, small_generating_set,
                           standard_table, sylow_p)
from regmaps.maps import FlaggedMap, OrientedMap
from regmaps.standard import symmetric_group
from regmaps.words import Word


# ---------------------------------------------------------------------------
# raw permutation tuples

def compose(p, q):
    """Apply p, then q (the package's left-to-right convention).  p and q
    are any sequences of point images; the result is a tuple."""
    return tuple(q[p[i]] for i in range(len(p)))


def brute_closure(gens, degree=None):
    """Every product of the given permutation tuples, by plain BFS."""
    if degree is None:
        degree = len(gens[0])
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def tuple_order(p):
    """The order of p, any sequence of point images."""
    ident = tuple(range(len(p)))
    q, k = tuple(p), 1
    while q != ident:
        q = compose(q, p)
        k += 1
    return k


# ---------------------------------------------------------------------------
# naive subgroup machinery over a FiniteGroup's multiplication

def span(G, seed):
    """Members of the subgroup generated by ``seed`` element indices."""
    members = {0}
    frontier = [0]
    gens = list(seed)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mul(x, g)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(members)


def conjugate_set(G, members, g):
    gi = G.inv(g)
    return frozenset(G.mul(G.mul(gi, m), g) for m in members)


def brute_core(G, members):
    """Intersection of all conjugates -- the largest normal subgroup inside."""
    core = frozenset(members)
    for g in range(G.order):
        core &= conjugate_set(G, members, g)
        if len(core) == 1:
            break
    return core


def brute_derived(G, members):
    comms = set()
    for a in members:
        for b in members:
            ai, bi = G.inv(a), G.inv(b)
            comms.add(G.mul(G.mul(ai, bi), G.mul(a, b)))
    return span(G, comms)


def greedy_generators(G, members):
    """Each member, in increasing order, that the ones kept before it do
    not generate; span is rerun after every kept member."""
    gens, closed = [], frozenset([0])
    for m in sorted(members):
        if m not in closed:
            gens.append(m)
            closed = span(G, gens)
    return tuple(gens)


def commutator_subgroup(G, members):
    """The derived subgroup of the subgroup `members`, generated by the
    commutators [a, s] of every member a with every greedy generator s.
    That is all of H′: [a, s]^h = [ah, s][h, s]^-1, so those commutators
    generate a normal K ≤ H′, and modulo K each generator s is central,
    so H/K is abelian and K ⊇ H′.  Linear in |H|, where brute_derived
    pairs every two members."""
    comms = set()
    for s in greedy_generators(G, members):
        si = G.inv(s)
        for a in members:
            comms.add(G.mul(G.mul(G.inv(a), si), G.mul(a, s)))
    return span(G, comms)


def brute_derived_series(G):
    """Member sets of G, G′, G″, ... down to the trivial group or to the
    first perfect term, each once."""
    series = [frozenset(range(G.order))]
    while len(series[-1]) > 1:
        nxt = commutator_subgroup(G, series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def brute_normal_closure(G, ambient, seeds):
    """The least subgroup holding `seeds` that every element of `ambient`
    conjugates into itself: add every conjugate that falls outside and
    span again, until none does."""
    gens = list(seeds)
    members = span(G, gens)
    while True:
        out = {c for m in members for a in ambient
               if (c := G.mul(G.mul(G.inv(a), m), a)) not in members}
        if not out:
            return members
        gens.extend(out)
        members = span(G, gens)


def brute_omega1(G, members, p):
    """The span of the members whose p-th power, by repeated
    multiplication, is the identity."""
    def pth_power(m):
        x = 0
        for _ in range(p):
            x = G.mul(x, m)
        return x
    return span(G, [m for m in members if pth_power(m) == 0])


def is_sylow(G, members, p):
    """A p-subgroup of order the full p-part of |G|."""
    return (len(members) == int_p_part(G.order, p)
            and is_p_subgroup(G, members, p))


def brute_is_solvable(G):
    cur = frozenset(range(G.order))
    while True:
        nxt = brute_derived(G, cur)
        if nxt == cur:
            return len(cur) == 1
        cur = nxt


def int_p_part(n, p):
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def element_order(G, g):
    x, k = g, 1
    while x != 0:
        x = G.mul(x, g)
        k += 1
    return k


def is_p_subgroup(G, members, p):
    """Closed under multiplication, and every element order a power of p."""
    for a in members:
        for b in members:
            if G.mul(a, b) not in members:
                return False
    for a in members:
        n = element_order(G, a)
        while n % p == 0:
            n //= p
        if n != 1:
            return False
    return True


def brute_o_p(G, p, sylow_members):
    """Core of any full p-part subgroup: the intersection of its conjugates."""
    return brute_core(G, sylow_members)


# ---------------------------------------------------------------------------
# p-group structure

def brute_elementary_complement(G, P, P0, p):
    """Members of an elementary abelian T with P = P0 x T, or None.

    A backtracking search over the order-p elements of C_P(P0): T grows by
    one element at a time that commutes with T, and only while T meets P0
    trivially.  Each T is met once, by its greedy basis: the element added
    must be the least of those it brings into T.
    """
    P0m, Pm = set(P0.members), set(P.members)
    target = len(Pm) // len(P0m)
    pool = [x for x in sorted(Pm) if x != 0 and element_order(G, x) == p
            and all(G.mul(x, g) == G.mul(g, x) for g in P0m)]

    def extend(basis, T, start):
        if len(T) == target:
            return T
        for i in range(start, len(pool)):
            x = pool[i]
            if x in T or any(G.mul(x, b) != G.mul(b, x) for b in basis):
                continue
            bigger = span(G, basis + [x])
            if min(bigger - T) != x or bigger & P0m != {0}:
                continue
            found = extend(basis + [x], bigger, i + 1)
            if found is not None:
                return found
        return None

    T = extend([], frozenset([0]), 0)
    assert T is None or span(G, T | P0m) == Pm
    return T


def brute_frattini(G, members):
    """Intersection of the maximal subgroups of the subgroup `members`,
    found among all its subgroups, grown one element at a time."""
    whole = frozenset(members)
    subgroups = {frozenset([0])}
    frontier = list(subgroups)
    while frontier:
        grown = {span(G, H | {x}) for H in frontier for x in whole - H}
        frontier = list(grown - subgroups)
        subgroups |= grown
    proper = subgroups - {whole}
    maximal = [H for H in proper if not any(H < K for K in proper)]
    return frozenset.intersection(whole, *maximal)


def brute_is_extraspecial(G, members, p):
    """A p-group whose center, derived and Frattini subgroups are one group
    of order p."""
    if not is_p_subgroup(G, members, p):
        return False
    Z = frozenset(x for x in members
                  if all(G.mul(x, y) == G.mul(y, x) for y in members))
    return (len(Z) == p and brute_derived(G, members) == Z
            and brute_frattini(G, members) == Z)


# ---------------------------------------------------------------------------
# quadratic census scans

def involutions(G):
    return [g for g in range(1, G.order) if G.mul(g, g) == 0]


def scan_oriented_pairs(G):
    """All (r, l) with l an involution and <r, l> the whole group."""
    inv = involutions(G)
    out = []
    for r in range(1, G.order):
        for l in inv:
            if len(span(G, (r, l))) == G.order:
                out.append((r, l))
    return out


def scan_flagged_triples(G):
    """All commuting-(t,l) involution triples generating the whole group.

    l = t is kept (the census tags it degenerate); the identity is never
    admitted for t, r or l.
    """
    inv = involutions(G)
    out = []
    for t in inv:
        for r in inv:
            for l in inv:
                if G.mul(t, l) != G.mul(l, t):
                    continue
                if len(span(G, (t, r, l))) == G.order:
                    out.append((t, r, l))
    return out


def _full_census(G, candidates, make):
    """Rows (tuple, class size, degenerate tags) of the census that scans
    every candidate in the given order and counts each generating tuple
    once, in classes keyed by standardized table."""
    n = G.order
    classes = {}
    for cand in candidates:
        key = standard_table([G.row(x) for x in cand], n)
        if key is not None:
            classes.setdefault(key, [cand, 0])[1] += 1
    return [(cand, count, tuple(sorted(make(G, *cand).degenerate)))
            for cand, count in classes.values()]


def full_census_oriented(G):
    """The oriented census with every r != 1 as first entry."""
    inv = involutions(G)
    return _full_census(G, ((r, l) for r in range(1, G.order) for l in inv),
                        OrientedMap)


def full_census_flagged(G):
    """The flagged census with every involution as first entry."""
    inv = involutions(G)
    return _full_census(G, ((t, r, l) for t in inv for r in inv for l in inv
                            if G.mul(t, l) == G.mul(l, t)), FlaggedMap)


def conjugation_scan_oriented(G):
    """(candidate, weight) pairs of the oriented census before its G/G′
    test: r over the least member of each conjugacy class, l over the least
    member of each orbit of C_G(r) on the involutions."""
    n = G.order
    inv = involutions(G)
    for r, size, _ in _orbit_minima(G, range(n), range(1, n)):
        for l, orbit, _ in _orbit_minima(G, G.centralizer(r), inv):
            yield (r, l), size * orbit


def conjugation_scan_flagged(G):
    """(candidate, weight) pairs of the flagged census before its G/G′
    test: t over conjugacy-class minima of the involutions, r over the
    least member of each orbit of C_G(t) on them, l over every involution
    commuting with t."""
    n = G.order
    inv = involutions(G)
    inv_set = set(inv)
    for t, size, _ in _orbit_minima(G, range(n), inv):
        cent = G.centralizer(t)
        commuting = [l for l in cent if l in inv_set]
        for r, orbit, _ in _orbit_minima(G, cent, inv):
            for l in commuting:
                yield (t, r, l), size * orbit


CONJUGATION_SCANS = {"oriented": (conjugation_scan_oriented, OrientedMap),
                     "flagged": (conjugation_scan_flagged, FlaggedMap)}


def conjugation_census(G, kind):
    """The census entries of the conjugation scan: every candidate walked,
    classes keyed and opened as the package's census does."""
    scan, cls = CONJUGATION_SCANS[kind]
    classes = {}
    for cand, weight in scan(G):
        key = standard_table([G.row(x) for x in cand], G.order)
        if key is not None:
            _add(classes, key, weight, cls, G, cand)
    return _entries(classes)


def brute_aut_count(G):
    """|Aut G|: assignments of images to a generating pair (or single
    generator) that extend, word by word, to a bijective homomorphism."""
    n = G.order
    gens = next(list(c) for k in (1, 2) for c in combinations(range(n), k)
                if len(span(G, c)) == n)
    count = 0
    for imgs in product(range(n), repeat=len(gens)):
        phi = {0: 0}
        frontier = [0]
        ok = True
        while frontier and ok:
            nxt = []
            for x in frontier:
                for g, h in zip(gens, imgs):
                    y, fy = G.mul(x, g), G.mul(phi[x], h)
                    if y not in phi:
                        phi[y] = fy
                        nxt.append(y)
                    elif phi[y] != fy:
                        ok = False
            frontier = nxt
        if ok and len(set(phi.values())) == n:
            count += 1
    return count


def brute_hom(source, target, gen_images):
    """Images of every source element under the homomorphism that sends
    source.gen_indices to gen_images, or None when there is none.  Images
    spread depth first, along products with the generators, and are then
    checked against f(xy) == f(x)f(y) on every pair."""
    gens = list(zip(source.gen_indices, gen_images))
    f = {0: 0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g, t in gens:
            y = source.mul(x, g)
            if y not in f:
                f[y] = target.mul(f[x], t)
                stack.append(y)
    if any(f[g] != t for g, t in gens):
        return None
    n = source.order
    for x in range(n):
        for y in range(n):
            if f[source.mul(x, y)] != target.mul(f[x], f[y]):
                return None
    return tuple(f[x] for x in range(n))


def brute_automorphism(G, src, dst):
    """True iff some automorphism of G sends the generating tuple src to
    dst entrywise: brute_hom from <src>, renumbered as its own group with
    src as generators, into G must exist and be a bijection."""
    S = regenerated(G, src)
    if S.order != G.order:
        raise ContractViolation("src does not generate the group")
    f = brute_hom(S, G, dst)
    return f is not None and len(set(f)) == G.order


def brute_isomorphic(G1, G2):
    """True iff some image tuple in G2 of small_generating_set(G1) extends,
    by brute_hom, to a bijection: every tuple of G2 is tried."""
    if G1.order != G2.order:
        return False
    src = regenerated(G1, small_generating_set(G1))
    for images in product(range(G2.order), repeat=len(src.gen_indices)):
        f = brute_hom(src, G2, images)
        if f is not None and len(set(f)) == G2.order:
            return True
    return False


# ---------------------------------------------------------------------------
# coset enumeration

def todd_coxeter_rows(pres, subgroup_words=(), max_cosets=200_000):
    """Standardized rows of the coset table of <subgroup_words>: HLT with
    one list of 2 * ngens entries per coset (generator i is symbol 2i, its
    inverse 2i + 1) and both columns kept for every generator."""
    ngens = pres.ngens
    if ngens == 0:
        return [[]]
    nsym = 2 * ngens
    table = [[None] * nsym]
    p = [0]

    def to_symbols(word):
        return [2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1
                for x in word.letters]

    def rep(k):
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(alpha, x):
        if len(table) >= max_cosets:
            raise ResourceLimitExceeded(
                f"coset table exceeded max_cosets={max_cosets}",
                "max_cosets", max_cosets)
        beta = len(table)
        table.append([None] * nsym)
        p.append(beta)
        table[alpha][x] = beta
        table[beta][x ^ 1] = alpha
        return beta

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            p[hi] = lo
            queue.append(hi)

    def coincidence(alpha, beta):
        queue = []
        merge(alpha, beta, queue)
        qi = 0
        while qi < len(queue):
            gamma = queue[qi]
            qi += 1
            for x in range(nsym):
                delta = table[gamma][x]
                if delta is None:
                    continue
                table[delta][x ^ 1] = None
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] is not None:
                    merge(nu, table[mu][x], queue)
                elif table[nu][x ^ 1] is not None:
                    merge(mu, table[nu][x ^ 1], queue)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(alpha, word):
        f, i = alpha, 0
        b, j = alpha, len(word) - 1
        while True:
            while i <= j and table[f][word[i]] is not None:
                f = table[f][word[i]]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][word[j] ^ 1] is not None:
                b = table[b][word[j] ^ 1]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    relators = [to_symbols(r) for r in pres.relators]
    for w in subgroup_words:
        scan_and_fill(0, to_symbols(w))
    alpha = 0
    while alpha < len(table):
        if p[alpha] == alpha:
            for w in relators:
                scan_and_fill(alpha, w)
                if p[alpha] != alpha:
                    break
            if p[alpha] == alpha:
                for x in range(nsym):
                    if table[alpha][x] is None:
                        define(alpha, x)
        alpha += 1

    live = [k for k in range(len(table)) if p[k] == k]
    squash = {k: i for i, k in enumerate(live)}
    cols = [[squash[rep(table[k][x])] for k in live] for x in range(nsym)]
    flat = standard_table(cols, len(live))
    if flat is None:
        raise ContractViolation("coset table is not connected")
    return [list(flat[c:c + nsym]) for c in range(0, len(flat), nsym)]


def presentation_group_by_closure(pres, max_cosets=DEFAULT_MAX_COSETS,
                                  max_order=DEFAULT_MAX_ORDER):
    """The group a presentation defines, on a small faithful coset action.

    The enumeration over the trivial subgroup fixes the order n, and it is
    the run that `max_cosets` bounds.  A generator g of order m (the length
    of its cycle through coset 0 of that table) offers the action on the
    n / m cosets of <g>.  The generators are tried by increasing n / m, ties
    by position, and the first action whose closure has order n is faithful
    and gives the group; when none is, it is the regular representation.
    Closure numbers elements by the group and the order of its generators
    alone, so every faithful action gives the same element indices and the
    same generator table.  Each action is a second enumeration, over <g>,
    and a closure of its permutations.
    """
    ct = todd_coxeter(pres, (), max_cosets=max_cosets)
    n = ct.n
    if n > max_order:
        raise ResourceLimitExceeded(
            f"group order {n} exceeds max_order={max_order}",
            "max_order", max_order)

    degrees = []
    for col in ct.cols[::2]:
        m, x = 1, col[0]
        while x != 0:
            m, x = m + 1, col[x]
        degrees.append(n // m)
    # sorted() is stable, so ties keep generator order
    for i in sorted(range(ct.ngens), key=degrees.__getitem__):
        if degrees[i] == n:
            break  # <g> is trivial: its cosets give the regular action
        try:
            sub = todd_coxeter(pres, (Word.gen(i),), max_cosets=max_cosets)
        except ResourceLimitExceeded:
            continue  # an enumeration may pass through more cosets than n
        G = closure(sub.n, sub.gen_perms(), max_order=n + 1)
        if G.order == n:
            return G
    return closure(ct.n, ct.gen_perms(), max_order=max_order)


# ---------------------------------------------------------------------------
# primitivity

def brute_block_size(perms, npoints, beta):
    """Size of the least block through 0 and beta: classes start as points,
    0 and beta share one, and whole passes over the generators join the
    classes of g(x) and g(y) for x, y in one class until a pass joins none."""
    label = list(range(npoints))

    def join(a, b):
        la, lb = label[a], label[b]
        if la == lb:
            return False
        for x in range(npoints):
            if label[x] == lb:
                label[x] = la
        return True

    join(0, beta)
    changed = True
    while changed:
        changed = False
        for g in perms:
            first = {}
            for x in range(npoints):
                y = first.setdefault(label[x], x)
                changed |= join(g[y], g[x])
    return label.count(label[0])


def brute_is_primitive(perms, npoints):
    """Whether a transitive action has no proper block: the least block
    through 0 and every beta != 0 is the whole set."""
    return all(brute_block_size(perms, npoints, beta) == npoints
               for beta in range(1, npoints))


# ---------------------------------------------------------------------------
# maps and the structure law

def mirror(m):
    """The mirror image (r^-1, l) of an oriented map."""
    return OrientedMap(m.group, m.group.inv(m.r), m.l)


def isomorphic(m1, m2):
    """Isomorphism of maps: a group isomorphism carrying one defining tuple
    to the other.  As the tuples generate, one exists iff their
    standardized tables agree, so this compares the maps' keys."""
    return m1.kind == m2.kind and m1.key == m2.key


def even_words(rows, n):
    """The side of 1 in a 2-colouring of the graph with edges x -- x*g, for
    the involutions g whose rows are given and which generate the group of
    order n, or None if an edge joins two elements of one side.  Every
    edge is met from both ends, so a walk that meets no such edge has
    coloured the graph.  It stops at the first such edge, and proves
    nothing about generation."""
    side = [-1] * n
    side[0] = 0
    todo = [0]
    for x in todo:
        s = 1 - side[x]
        for row in rows:
            y = row[x]
            if side[y] < 0:
                side[y] = s
                todo.append(y)
            elif side[y] != s:
                return None
    return [x for x in todo if not side[x]]


def is_cyclic(sub):
    G = sub.parent
    return any(G.order_of(m) == sub.order for m in sub.members)


@cache
def _sym4():
    return symmetric_group(4)


@dataclass(frozen=True)
class LawCheck:
    """Which branch of the structure law a map satisfies."""

    p: int
    k: int
    branch: str  # "normal" | "cyclic_by_z2" | "cyclic_by_klein" | "s4_quotient"
    odd_part_order: Optional[int] = None
    quotient_index: Optional[int] = None


def verify_classification_law(m) -> LawCheck:
    """Independently check the structure law on the group side: solvable,
    and if the Sylow p-subgroup is not normal then p in {2, 3} and the
    p-free quotient is odd-cyclic-by-(Z2 or Klein) resp. S4-shaped."""
    p, k = _p_map(m, "classified")
    G = m.group
    if not is_solvable(G):
        raise TheoremViolation(f"group of a {p}-map must be solvable")
    P = sylow_p(G, p)
    if is_normal(G, P):
        return LawCheck(p, k, "normal")
    Q, _ = quotient_group(G, o_p(G, p))
    if o_p(Q, p).order != 1:
        raise TheoremViolation("p-core failed to clear in the quotient")
    if p == 2:
        odd = [x for x in range(Q.order) if Q.order_of(x) % 2 == 1]
        try:
            C = Q.subgroup_from_members(odd)
        except ContractViolation as exc:
            raise TheoremViolation(
                "odd-order elements do not form a subgroup") from exc
        if not is_cyclic(C) or C.order % 2 == 0 or C.order < 3:
            raise TheoremViolation(
                f"odd part of order {C.order} is not cyclic of odd order >= 3")
        if not is_normal(Q, C):
            raise TheoremViolation("odd part is not normal")
        index = Q.order // C.order
        if index == 2:
            return LawCheck(p, k, "cyclic_by_z2", C.order, 2)
        if index == 4:
            # Q/C has order 4: it is a Klein group iff it has exponent 2.
            if any(Q.mul(x, x) not in C.members for x in range(Q.order)):
                raise TheoremViolation("index-4 quotient is not a Klein group")
            return LawCheck(p, k, "cyclic_by_klein", C.order, 4)
        raise TheoremViolation(
            f"odd part has index {index}, expected 2 or 4")
    if p == 3:
        if not isomorphism_search(Q, _sym4()):
            raise TheoremViolation(
                "3-free quotient is not the symmetric group of degree 4")
        return LawCheck(p, k, "s4_quotient")
    raise TheoremViolation(f"nonnormal p-map with p = {p}")
