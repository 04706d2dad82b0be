"""Finite permutation groups by full enumeration.

Groups here are small enough (a few thousand elements) that we list every
element, each as its image tuple: ``elements[k][x]`` is the image of point
x; a :class:`~regmaps.perm.Perm` is only the validated form of a generator.
Products read left to right, ``(g*h)(x) == h(g(x))``, so a word like
``t*r`` means "apply t, then r", as for group words everywhere else in the
package.

The closure is a breadth-first walk from the identity, multiplying by
generators in input order, which fixes a deterministic element numbering:
element 0 is always the identity, and elements are numbered as the walk
meets them.  The numbering depends only on the group and the order of its
generators, not on the points it acts on.  A group keeps its elements, the
indices of its generators and the base lookups below.  Inverses, element
orders and rows of the multiplication table (:meth:`FiniteGroup.row`) are
computed from those on first use and kept.

Products are read from base images.  A base is a short list of points
whose pointwise stabilizer is trivial, so an element is determined by where
it sends the base points.  ``mul(i, j)`` reads element j's images of
element i's base images and looks that tuple up in one dict, whatever the
degree.  The base is grown greedily from point 0 (:func:`_greedy_base`); a
regular group has base ``(0,)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iproduct
from math import lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import ContractViolation, ResourceLimitExceeded, TheoremViolation
from .perm import Perm

DEFAULT_MAX_ORDER = 10**6
# Closure holds one image tuple of `degree` entries per element, so it
# refuses a group before order * degree passes this many cells (about 160 MB
# of tuple slots), whatever the order bound.
MAX_CLOSURE_CELLS = 2 * 10**7


def closure(degree: int, generators: Sequence[Perm],
            max_order: int = DEFAULT_MAX_ORDER) -> "FiniteGroup":
    """Enumerate the group generated by `generators` inside Sym(degree).

    Refuses (ResourceLimitExceeded) a group of more than `max_order`
    elements, or of more than MAX_CLOSURE_CELLS // degree elements; a
    `max_order` below 1 is a ContractViolation.
    """
    gens = tuple(generators)
    if degree < 1:
        raise ContractViolation("a group acts on at least one point")
    if max_order < 1:
        raise ContractViolation(f"max_order must be at least 1, got {max_order}")
    for g in gens:
        if g.degree != degree:
            raise ContractViolation(
                f"generator degree {g.degree} does not match {degree}")
    # elements[k] * g is itemgetter(*elements[k])(g.images).  On one point
    # every image tuple is (0,).
    ident = tuple(range(degree))
    elements = [ident]
    seen = {ident: 0}
    gen_images = [g.images for g in gens]
    limit = min(max_order, MAX_CLOSURE_CELLS // degree)
    for ek in elements:
        times = itemgetter(*ek) if degree > 1 else tuple
        for g in gen_images:
            prod = times(g)
            if prod not in seen:
                j = len(elements)
                if j >= limit:
                    if limit == max_order:
                        raise ResourceLimitExceeded(
                            f"closure exceeded max_order={max_order}",
                            "max_order", max_order)
                    raise ResourceLimitExceeded(
                        f"closure exceeded max_cells={MAX_CLOSURE_CELLS}:"
                        f" {limit} elements on {degree} points",
                        "max_cells", MAX_CLOSURE_CELLS)
                elements.append(prod)
                seen[prod] = j
    return FiniteGroup(degree, elements, [seen[g] for g in gen_images])


def _greedy_base(elements: Sequence[tuple]) -> tuple:
    """A base grown greedily from point 0: while some non-identity element
    fixes every base point, append the least point the first such element
    moves.  The identity is elements[0]."""
    base = [0]
    fixing = [e for e in elements[1:] if e[0] == 0]
    while fixing:
        b = next(x for x, y in enumerate(fixing[0]) if x != y)
        base.append(b)
        fixing = [e for e in fixing if e[b] == b]
    return tuple(base)


class FiniteGroup:
    """A fully enumerated permutation group.  Use :func:`closure` to build one."""

    def __init__(self, degree, elements, gen_indices):
        self.degree = degree
        self.elements = elements
        self.gen_indices = gen_indices
        self.cache: dict = {}
        self._inv: list[Optional[int]] = [None] * len(elements)
        self._orders: list[Optional[int]] = [None] * len(elements)
        self._rows: list[Optional[list]] = [None] * len(elements)
        self.base = _greedy_base(elements)
        # _get[i] reads off, from the images of an element g, the images of
        # element i's base images: the base images of elements[i] * g.
        # Applied to the identity (elements[0]) it gives element i's own.
        self._get = [itemgetter(*(e[b] for b in self.base)) for e in elements]
        self._at = {get(elements[0]): k for k, get in enumerate(self._get)}

    # -- basic arithmetic on element indices ------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        return self._at[self._get[i](self.elements[j])]

    def inv(self, i: int) -> int:
        v = self._inv[i]
        if v is None:
            # The inverse sends base point b to elements[i].index(b); the key
            # is built as _get builds it, a bare int on a one-point base.
            key = tuple(map(self.elements[i].index, self.base))
            v = self._inv[i] = self._at[key if len(key) > 1 else key[0]]
        return v

    def row(self, g: int) -> list:
        """The row x -> x*g of the multiplication table, for tight loops.
        Each entry is :meth:`mul` inlined."""
        r = self._rows[g]
        if r is None:
            at, images = self._at, self.elements[g]
            r = self._rows[g] = [at[get(images)] for get in self._get]
        return r

    def conj(self, i: int, by: int) -> int:
        return self.mul(self.mul(self.inv(by), i), by)

    def comm(self, i: int, j: int) -> int:
        """Commutator i^-1 j^-1 i j."""
        return self.mul(self.mul(self.inv(i), self.inv(j)), self.mul(i, j))

    def power(self, i: int, e: int) -> int:
        if e < 0:
            return self.power(self.inv(i), -e)
        result, base = 0, i
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def order_of(self, i: int) -> int:
        v = self._orders[i]
        if v is None:
            # The base stabilizer is trivial, so g^k = 1 iff g^k fixes every
            # base point: the order is the lcm of the cycle lengths through
            # the base points.
            img = self.elements[i]
            v = 1
            for b in self.base:
                k, x = 1, img[b]
                while x != b:
                    x = img[x]
                    k += 1
                v = lcm(v, k)
            self._orders[i] = v
        return v

    def conjugacy_classes(self) -> tuple[list[int], list[int]]:
        """Return (class_id per element, class_size per element)."""
        cached = self.cache.get("classes")
        if cached is not None:
            return cached
        n = len(self.elements)
        class_id = [-1] * n
        sizes = [0] * n
        nclasses = 0
        gidx = self.gen_indices
        for start in range(n):
            if class_id[start] >= 0:
                continue
            orbit = [start]
            class_id[start] = nclasses
            qi = 0
            while qi < len(orbit):
                x = orbit[qi]
                qi += 1
                for g in gidx:
                    y = self.conj(x, g)
                    if class_id[y] < 0:
                        class_id[y] = nclasses
                        orbit.append(y)
            for x in orbit:
                sizes[x] = len(orbit)
            nclasses += 1
        self.cache["classes"] = (class_id, sizes)
        return class_id, sizes

    def centralizer(self, x: int) -> list[int]:
        """The members of C_G(x), in increasing order.  c commutes with x iff
        x*c and c*x have the same base images, which are read off the two
        image tuples without a lookup."""
        get_x, img_x, elements = self._get[x], self.elements[x], self.elements
        return [c for c, get_c in enumerate(self._get)
                if get_x(elements[c]) == get_c(img_x)]

    # -- subgroups ---------------------------------------------------------

    def _index_closure(self, gen_indices: Iterable[int]) -> list[int]:
        """Members (in discovery order) of the subgroup the indices generate."""
        members = {0}
        order = [0]
        gi = [g for g in gen_indices]
        qi = 0
        while qi < len(order):
            x = order[qi]
            qi += 1
            for g in gi:
                y = self.mul(x, g)
                if y not in members:
                    members.add(y)
                    order.append(y)
        return order

    def subgroup(self, gen_indices: Sequence[int]) -> "Subgroup":
        for g in gen_indices:
            if not (0 <= g < len(self.elements)):
                raise ContractViolation(f"element index {g} out of range")
        members = self._index_closure(gen_indices)
        return Subgroup(self, frozenset(members), tuple(gen_indices))

    def subgroup_from_members(self, members: Iterable[int]) -> "Subgroup":
        """Subgroup from a known-closed member set, with a greedy generating set."""
        mset = frozenset(members)
        gens: list[int] = []
        closed = {0}
        for m in sorted(mset):
            if m not in closed:
                gens.append(m)
                closed = set(self._index_closure(gens))
        if closed != mset:
            raise ContractViolation("member set is not closed under products")
        return Subgroup(self, mset, tuple(gens))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset([0]), ())

    def improper_subgroup(self) -> "Subgroup":
        sub = self.cache.get("improper")
        if sub is None:
            sub = Subgroup(self, frozenset(range(len(self.elements))),
                           tuple(self.gen_indices))
            self.cache["improper"] = sub
        return sub


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an enumerated group, stored by member indices."""

    parent: FiniteGroup
    members: frozenset
    gens: tuple

    @property
    def order(self) -> int:
        return len(self.members)

    def contains(self, i: int) -> bool:
        return i in self.members

    def sorted_members(self) -> list[int]:
        return sorted(self.members)

    def is_improper(self) -> bool:
        return len(self.members) == len(self.parent.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))


# -- subgroup and structure operations --------------------------------------


def right_coset_partition(G: FiniteGroup, sub: Subgroup) -> tuple[list[int], list[int]]:
    """Label every element with a coset id for the right cosets ``sub * x``.

    Coset ids are assigned in order of least member, so id 0 is the subgroup
    itself and representatives are the least element of each coset.
    """
    n = len(G.elements)
    coset_of = [-1] * n
    reps = []
    smem = sub.sorted_members()
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        cid = len(reps)
        reps.append(x)
        for s in smem:
            coset_of[G.mul(s, x)] = cid
    return coset_of, reps


def coset_action(G: FiniteGroup, sub: Subgroup) -> tuple[list[Perm], list[int]]:
    """Permutations induced by G's generators on the right cosets of sub.

    Returns (one permutation per generator, the coset label of every
    element), with cosets labelled as by :func:`right_coset_partition`.
    """
    coset_of, reps = right_coset_partition(G, sub)
    perms = []
    for gi in G.gen_indices:
        perms.append(Perm(tuple(coset_of[G.mul(r, gi)] for r in reps)))
    return perms, coset_of


def normal_core(G: FiniteGroup, sub: Subgroup) -> Subgroup:
    """Largest normal subgroup of G contained in sub.

    The core is the intersection of the conjugates of sub.  Each pass drops
    every member whose conjugate by some generator of G leaves the current
    set, which intersects it with its conjugates; a pass that drops nothing
    leaves a finite set mapped into itself by every generator, hence normal.
    """
    if sub.parent is not G:
        raise ContractViolation("subgroup does not belong to this group")
    if sub.order == 1 or sub.is_improper():
        return sub
    kept = set(sub.members)
    gens = G.gen_indices
    while True:
        drop = [m for m in kept if any(G.conj(m, g) not in kept for g in gens)]
        if not drop:
            return G.subgroup_from_members(kept)
        kept.difference_update(drop)


def is_normal(G: FiniteGroup, sub: Subgroup) -> bool:
    return all(G.conj(m, g) in sub.members
               for m in sub.gens for g in G.gen_indices)


def p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin with the primes up to 41 as bases, which no composite
    below 3,317,044,064,679,887,385,961,981 passes (Sorenson and Webster,
    2017), so the answer is exact; larger n are refused."""
    if n >= 3317044064679887385961981:
        raise ContractViolation(f"cannot decide whether {n} is prime")
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for a in bases:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sylow_p(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically.

    Starting from the trivial subgroup, scan elements in index order for a
    p-element outside the current subgroup P that normalizes it, and extend.
    Such an element always exists while |P| is short of the full p-part
    (P is proper in its normalizer inside any Sylow subgroup above it), so
    the loop provably reaches a Sylow subgroup.
    """
    key = ("sylow", p)
    if key in G.cache:
        return G.cache[key]
    if not is_prime(p):
        raise ContractViolation(f"{p} is not prime")
    target = p_part(len(G.elements), p)
    P = G.trivial_subgroup()
    n = len(G.elements)
    while P.order < target:
        found = -1
        for k in range(1, n):
            if k in P.members:
                continue
            o = G.order_of(k)
            if p_part(o, p) != o:
                continue
            if all(G.conj(m, k) in P.members for m in P.gens):
                found = k
                break
        if found < 0:
            raise TheoremViolation(
                f"Sylow search ended at order {P.order}, expected {target}")
        P = G.subgroup(P.gens + (found,))
    G.cache[key] = P
    return P


def o_p(G: FiniteGroup, p: int) -> Subgroup:
    """Largest normal p-subgroup: the core of any Sylow p-subgroup."""
    key = ("o_p", p)
    if key in G.cache:
        return G.cache[key]
    result = normal_core(G, sylow_p(G, p))
    G.cache[key] = result
    return result


def quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """The quotient Q = G/N on the cosets, and the projection: ``proj[x]``
    is the index in Q of the coset N*x.

    The projection is the coset labelling itself.  :func:`closure` walks
    G/N breadth-first over G's generators in order, as it walked G.  A
    coset first meets a new coset only through its least member m: for any
    other member x, x*g lies in N*(m*g), met when m was walked before x.
    So Q numbers the cosets in the order of their least members, which is
    the labelling of :func:`right_coset_partition`.  G/1 is G itself.
    """
    if N.parent is not G:
        raise ContractViolation("subgroup does not belong to this group")
    if not is_normal(G, N):
        raise ContractViolation("quotient by a non-normal subgroup")
    if N.order == 1:
        return G, list(range(len(G.elements)))
    perms, coset_of = coset_action(G, N)
    Q = closure(len(G.elements) // N.order, perms)
    if Q.order * N.order != len(G.elements):
        raise TheoremViolation("quotient order mismatch")
    return Q, coset_of


def derived_subgroup(G: FiniteGroup, sub: Optional[Subgroup] = None) -> Subgroup:
    """Commutator subgroup of `sub` (default: of G itself), as a subgroup of G."""
    S = sub if sub is not None else G.improper_subgroup()
    gens = S.gens
    seeds = {G.comm(a, b) for a in gens for b in gens if a != b}
    seeds.discard(0)
    return normal_closure(G, gens, seeds)


def normal_closure(G: FiniteGroup, ambient_gens: Sequence[int],
                   seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing `seeds` normalized by <ambient_gens>."""
    gens = sorted(set(seeds) - {0})
    while True:
        result = G.subgroup(gens)
        new = {c for m in gens for a in ambient_gens
               if (c := G.conj(m, a)) not in result.members}
        if not new:
            return result
        gens.extend(sorted(new))


def derived_series(G: FiniteGroup) -> list[Subgroup]:
    series = [G.improper_subgroup()]
    while True:
        nxt = derived_subgroup(G, series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return series


def is_solvable(G: FiniteGroup) -> bool:
    if "solvable" not in G.cache:
        G.cache["solvable"] = derived_series(G)[-1].order == 1
    return G.cache["solvable"]


def center(sub: Subgroup) -> Subgroup:
    """Center of a subgroup, as a subgroup of its parent."""
    G = sub.parent
    members = [x for x in sub.sorted_members()
               if all(G.mul(x, g) == G.mul(g, x) for g in sub.gens)]
    return G.subgroup_from_members(members)


def omega1(sub: Subgroup, p: int) -> Subgroup:
    """Subgroup generated by all elements of order dividing p."""
    G = sub.parent
    gens = [m for m in sub.sorted_members() if m != 0 and G.power(m, p) == 0]
    result = G.subgroup(gens)
    if not result.members <= sub.members:
        raise ContractViolation("omega1 escaped the subgroup; input not a group?")
    return result


def frattini_p(sub: Subgroup, p: int) -> Subgroup:
    """Frattini subgroup of a p-group: derived subgroup times p-th powers."""
    G = sub.parent
    if p_part(sub.order, p) != sub.order:
        raise ContractViolation("frattini_p requires a p-group")
    der = derived_subgroup(G, sub)
    gens = sorted(set(der.gens) | ({G.power(m, p) for m in sub.members} - {0}))
    return G.subgroup(gens)


def is_extraspecial(sub: Subgroup, p: int) -> bool:
    """Center, derived and Frattini subgroups coincide and have order p."""
    if p_part(sub.order, p) != sub.order or sub.order <= p:
        return False
    Z = center(sub)
    if Z.order != p:
        return False
    D = derived_subgroup(sub.parent, sub)
    F = frattini_p(sub, p)
    return Z.members == D.members == F.members


# -- homomorphisms ---------------------------------------------------------


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism recorded by generator images plus the full image
    table, as :func:`hom_extend` builds it for tests."""

    source: FiniteGroup
    target: FiniteGroup
    gen_images: tuple
    images: tuple = field(repr=False)

    def is_bijective(self) -> bool:
        return (len(self.source.elements) == len(self.target.elements)
                and len(set(self.images)) == len(self.target.elements))


def hom_extend(source: FiniteGroup, target: FiniteGroup,
               gen_images: Sequence[int]) -> Optional[GroupHom]:
    """Extend generator images to a homomorphism, or return None.

    No package code path calls this.  It stays because the benchmark wraps
    it as a span (perfbench/spans.py) and the tests use it as the reference
    that :func:`standardize` is checked against.  One breadth-first walk
    from the identity crosses every edge x -> x * g of the source's Cayley
    graph.  An element met for the first time gets the image
    ``img[x] * t``, where t is the image of g; on every other edge that
    product must equal the image already there, or no homomorphism with
    these generator images exists.
    """
    gen_images = tuple(gen_images)
    if len(gen_images) != len(source.gen_indices):
        raise ContractViolation("one image per generator required")
    for t in gen_images:
        if not (0 <= t < len(target.elements)):
            raise ContractViolation(f"image index {t} out of range")
    edges = list(zip(source.gen_indices, gen_images))
    img: list[Optional[int]] = [None] * len(source.elements)
    img[0] = 0
    order = [0]
    for x in order:
        for g, t in edges:
            y = source.mul(x, g)
            image = target.mul(img[x], t)
            if img[y] is None:
                img[y] = image
                order.append(y)
            elif img[y] != image:
                return None
    return GroupHom(source, target, gen_images, tuple(img))


def standard_table(rows: Sequence[Sequence[int]], n: int) -> Optional[tuple]:
    """Standardize a tuple given by its right-multiplication rows.

    A breadth-first walk from the identity multiplies on the right by the
    tuple's entries in order and numbers elements as it meets them.  Returns
    the relabelled table, flattened as a tuple, or None when fewer than n
    elements are reached.  Two generating tuples of isomorphic groups have
    equal tables iff some isomorphism maps one tuple to the other, and it
    sends the k-th element met in one walk to the k-th met in the other.
    """
    label = [-1] * n
    label[0] = 0
    order = [0]
    table: list = []
    append = table.append
    for x in order:
        for row in rows:
            y = row[x]
            k = label[y]
            if k < 0:
                k = label[y] = len(order)
                order.append(y)
            append(k)
    return tuple(table) if len(order) == n else None


def standardize(G: FiniteGroup, gen_indices: Sequence[int]) -> Optional[tuple]:
    """Standardized table of a generating tuple (hashable), or None when the
    tuple does not generate G.  See :func:`standard_table`."""
    return standard_table([G.row(g) for g in gen_indices], len(G.elements))


def regenerated(G: FiniteGroup, gen_indices: Sequence[int]) -> FiniteGroup:
    """The subgroup generated by the given elements, as its own FiniteGroup.

    Elements keep their permutation form and G's degree, which for a group
    realized from a presentation is that of its small coset action; the
    numbering changes to the BFS order of the new generating set, and the
    subgroup grows its own base.
    """
    key = ("regen", tuple(gen_indices))
    if key in G.cache:
        return G.cache[key]
    result = closure(G.degree, [Perm._raw(G.elements[i]) for i in gen_indices],
                     max_order=len(G.elements) + 1)
    G.cache[key] = result
    return result


def isomorphism_search(G1: FiniteGroup, G2: FiniteGroup) -> bool:
    """True iff G1 and G2 are isomorphic.

    Candidate images of a small generating tuple of G1 are pruned by element
    order and conjugacy class size, which keeps the search tiny for the group
    orders this package meets; an assignment is an isomorphism's image iff
    its standardized table equals that of the tuple.
    """
    n = len(G1.elements)
    if n != len(G2.elements):
        return False
    _, sizes1 = G1.conjugacy_classes()
    _, sizes2 = G2.conjugacy_classes()
    fp1 = sorted((G1.order_of(k), sizes1[k]) for k in range(n))
    fp2 = sorted((G2.order_of(k), sizes2[k]) for k in range(n))
    if fp1 != fp2:
        return False
    gens1 = small_generating_set(G1)
    key1 = standardize(G1, gens1)
    pools = [[k for k in range(n) if G2.order_of(k) == G1.order_of(g)
              and sizes2[k] == sizes1[g]] for g in gens1]
    return any(standard_table([G2.row(a) for a in assignment], n) == key1
               for assignment in iproduct(*pools))


def small_generating_set(G: FiniteGroup) -> tuple:
    """A short generating tuple found greedily in index order."""
    if "small_gens" not in G.cache:
        G.cache["small_gens"] = G.subgroup_from_members(range(len(G))).gens
    return G.cache["small_gens"]


# -- primitivity -----------------------------------------------------------


def _minimal_block_size(perms: Sequence[Perm], npoints: int, beta: int) -> int:
    parent = list(range(npoints))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = [(0, beta)]
    parent[find(beta)] = find(0)
    while pairs:
        a, b = pairs.pop()
        for g in perms:
            x, y = find(g.images[a]), find(g.images[b])
            if x != y:
                parent[y] = x
                pairs.append((x, y))
    root = find(0)
    return sum(1 for i in range(npoints) if find(i) == root)


def is_transitive(perms: Sequence[Perm], npoints: int) -> bool:
    if npoints == 0:
        return False
    seen = [False] * npoints
    seen[0] = True
    queue = [0]
    count = 1
    while queue:
        x = queue.pop()
        for g in perms:
            y = g.images[x]
            if not seen[y]:
                seen[y] = True
                count += 1
                queue.append(y)
    return count == npoints


def is_primitive(perms: Sequence[Perm], npoints: int) -> bool:
    """True iff the transitive action generated by `perms` has no proper blocks."""
    if not is_transitive(perms, npoints):
        raise ContractViolation("primitivity requires a transitive action")
    if npoints == 1:
        return True
    return all(_minimal_block_size(perms, npoints, beta) == npoints
               for beta in range(1, npoints))


# -- misc structure tests --------------------------------------------------


def is_cyclic(sub: Subgroup) -> bool:
    G = sub.parent
    return any(G.order_of(m) == sub.order for m in sub.members)
