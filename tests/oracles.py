"""Brute-force reference implementations.

Everything here is deliberately naive: plain BFS over raw permutation
tuples, quadratic scans, intersections over all conjugates.  No shared
shortcuts with the package, so the fast code has something honest to be
measured against.  The one exception is the full-scan census, which keys
classes by the package's standardized tables: it is the census before the
first entries were cut down to conjugacy-class minima.  So is the
reference coset enumerator, which standardizes its table the same way: it
is the row-per-coset HLT kernel from before the per-generator columns.
"""

from itertools import combinations, product

from regmaps.errors import ContractViolation, ResourceLimitExceeded
from regmaps.group import regenerated, small_generating_set, standard_table
from regmaps.maps import FlaggedMap, OrientedMap


# ---------------------------------------------------------------------------
# raw permutation tuples

def compose(p, q):
    """Apply p, then q (the package's left-to-right convention)."""
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
    ident = tuple(range(len(p)))
    q, k = p, 1
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
