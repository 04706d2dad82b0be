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
computed from those on first use and kept in lists; other per-group results
are kept by :func:`_kept`, and :func:`_orbits` labels classes and orbits.

Products are read from base images.  A base is a short list of points
whose pointwise stabilizer is trivial, so an element is determined by where
it sends the base points.  ``mul(i, j)`` reads element j's images of
element i's base images and looks that tuple up in one dict, whatever the
degree.  The base is grown greedily from point 0 (:func:`_greedy_base`); a
regular group has base ``(0,)``.  A caller that knows a base before the
group is listed passes it to :func:`closure`, which then looks products
up the same way; :func:`is_primitive` likewise takes the stabilizer of
point 0, if known, and tests one point of each of its orbits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from itertools import product as iproduct
from math import factorial, lcm
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import ContractViolation, ResourceLimitExceeded, TheoremViolation
from .perm import Perm

DEFAULT_MAX_ORDER = 10**6
# Closure refuses a group before the 8-byte cells it holds pass this many
# (about 160 MB), whatever the order bound.  Each listed element is a tuple
# of `degree` cells and costs ELEMENT_CELLS more: its tuple header, its
# entries in closure's `seen` (keyed by base images when the base is known,
# and freed before the group is built) and the group's `_at`, and its `_get`
# itemgetter (tracemalloc: 54 cells with a base of 6 or 7 points, 77 with
# a base of 16; a base of b points needs 2**b elements, so no group within
# the bound has a base of more than 17).  Each point costs up to
# POINT_CELLS more for every generator and for the identity (10 in all for
# one generator, 16 for two): its int object, a generator's tuple,
# closure's arguments.
MAX_CLOSURE_CELLS = 2 * 10**7
ELEMENT_CELLS = 80
POINT_CELLS = 6


def cell_limit(degree: int, ngens: int) -> int:
    """The most elements closure may list on `degree` points from `ngens`
    generators; refuses when not even the identity fits."""
    limit = ((MAX_CLOSURE_CELLS - POINT_CELLS * (ngens + 1) * degree)
             // (degree + ELEMENT_CELLS))
    if limit < 1:
        raise ResourceLimitExceeded(
            f"a group on {degree} points exceeds"
            f" max_cells={MAX_CLOSURE_CELLS}", "max_cells", MAX_CLOSURE_CELLS)
    return limit


def cells_exceeded(limit: int, degree: int) -> ResourceLimitExceeded:
    """The refusal of a group of more than `limit` elements on `degree`
    points, where ``limit == cell_limit(degree, ngens)``."""
    return ResourceLimitExceeded(
        f"closure exceeded max_cells={MAX_CLOSURE_CELLS}:"
        f" {limit} elements on {degree} points",
        "max_cells", MAX_CLOSURE_CELLS)


def closure_refusal(limit: int, max_order: int,
                    degree: int) -> ResourceLimitExceeded:
    """Closure's refusal of a group of more than `limit` elements on
    `degree` points, where ``limit == min(max_order, cell_limit(degree,
    ngens))``."""
    if limit == max_order:
        return ResourceLimitExceeded(
            f"closure exceeded max_order={max_order}",
            "max_order", max_order)
    return cells_exceeded(limit, degree)


def closure(degree: int, generators: Sequence[Perm],
            max_order: int = DEFAULT_MAX_ORDER,
            base: Sequence[int] = ()) -> "FiniteGroup":
    """Enumerate the group generated by `generators` inside Sym(degree).

    A caller that knows a `base` of the group, points whose pointwise
    stabilizer in it is trivial, passes it: each product is then looked
    up by its images of the base points, and its full image tuple is built
    only when it is new.  A wrong base merges distinct elements.  The
    numbering, the bounds and the refusals do not depend on the base.

    Refuses (ResourceLimitExceeded) a group of more than `max_order`
    elements, or of more than ``cell_limit(degree, len(generators))``
    elements; a `max_order` below 1 is a ContractViolation.
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
    limit = min(max_order, cell_limit(degree, len(gens)))
    # elements[k] * g is itemgetter(*elements[k])(g.images).  It is its own
    # key, or with a base, g.images read at elements[k]'s base images: a
    # bare int on a one-point base, as FiniteGroup._get reads it.  On one
    # point every image tuple is (0,).
    ident = tuple(range(degree))
    key = itemgetter(*base) if base else tuple
    elements = [ident]
    seen = {key(ident): 0}
    gen_images = [g.images for g in gens]
    for ek in elements:
        times = itemgetter(*ek) if degree > 1 else tuple
        look = itemgetter(*map(ek.__getitem__, base)) if base else times
        for g in gen_images:
            k = look(g)
            if k not in seen:
                j = len(elements)
                if j >= limit:
                    raise closure_refusal(limit, max_order, degree)
                elements.append(times(g) if base else k)
                seen[k] = j
    gen_indices = [seen[key(g)] for g in gen_images]
    del seen  # freed before the group builds its own lookup
    return FiniteGroup(degree, elements, gen_indices)


def _kept(fn):
    """Compute ``fn(G, *args)`` once per group and keep it in ``G.cache``
    under ``(fn.__name__, *args)``; arguments are positional and hashable."""
    @wraps(fn)
    def kept(G, *args):
        key = (fn.__name__, *args)
        if key not in G.cache:
            G.cache[key] = fn(G, *args)
        return G.cache[key]
    return kept


def _orbits(n: int, moves: Sequence[Sequence[int]]) -> list[int]:
    """Label each of 0..n-1 with its orbit under the index maps `moves`
    (x goes to ``move[x]``), numbering orbits in order of least member."""
    label = [-1] * n
    count = 0
    for start in range(n):
        if label[start] < 0:
            label[start] = count
            orbit = [start]
            for x in orbit:
                for move in moves:
                    y = move[x]
                    if label[y] < 0:
                        label[y] = count
                        orbit.append(y)
            count += 1
    return label


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

    @_kept
    def conjugacy_classes(self) -> tuple[list[int], list[int]]:
        """Return (class_id per element, class_size per element).  The
        conjugate g^-1 * x * g is entry g^-1 * x of g's row, and g^-1 * x
        is read as :meth:`mul` reads it."""
        at, elements = self._at, self.elements
        moves = []
        for g in self.gen_indices:
            get, row = self._get[self.inv(g)], self.row(g)
            moves.append([row[at[get(e)]] for e in elements])
        class_id = _orbits(len(elements), moves)
        size = Counter(class_id)
        return class_id, [size[c] for c in class_id]

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
        gi = list(gen_indices)
        members, order = {0}, [0]
        for x in order:
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

    @_kept
    def improper_subgroup(self) -> "Subgroup":
        return Subgroup(self, frozenset(range(len(self.elements))),
                        tuple(self.gen_indices))


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of an enumerated group, stored by member indices."""

    parent: FiniteGroup
    members: frozenset
    gens: tuple

    @property
    def order(self) -> int:
        return len(self.members)

    def is_improper(self) -> bool:
        return len(self.members) == len(self.parent.elements)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and self.parent is other.parent
                and self.members == other.members)

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))


# -- subgroup and structure operations --------------------------------------


def coset_action(G: FiniteGroup, sub: Subgroup) -> tuple[list[Perm], list[int]]:
    """Permutations induced by G's generators on the right cosets ``sub * x``.

    Returns (one permutation per generator, the coset label of every
    element).  Labels are assigned in order of least member, so label 0 is
    the subgroup itself and each coset is represented by its least element.
    """
    n = len(G.elements)
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] < 0:
            for s in sub.members:
                coset_of[G.mul(s, x)] = len(reps)
            reps.append(x)
    # a group permutes the cosets of a subgroup: each image is a bijection
    perms = [Perm._raw(tuple(coset_of[G.mul(r, gi)] for r in reps))
             for gi in G.gen_indices]
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


@_kept
def sylow_p(G: FiniteGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup, grown deterministically.

    Starting from the trivial subgroup, scan elements in index order for a
    p-element outside the current subgroup P that normalizes it, and extend.
    Such an element always exists while |P| is short of the full p-part
    (P is proper in its normalizer inside any Sylow subgroup above it), so
    the loop provably reaches a Sylow subgroup.
    """
    if not is_prime(p):
        raise ContractViolation(f"{p} is not prime")
    target = p_part(G.order, p)
    P = Subgroup(G, frozenset((0,)), ())
    while P.order < target:
        found = next((k for k in range(1, G.order) if k not in P.members
                      and p_part(G.order_of(k), p) == G.order_of(k)
                      and all(G.conj(m, k) in P.members for m in P.gens)),
                     None)
        if found is None:
            raise TheoremViolation(
                f"Sylow search ended at order {P.order}, expected {target}")
        P = G.subgroup(P.gens + (found,))
    return P


@_kept
def o_p(G: FiniteGroup, p: int) -> Subgroup:
    """Largest normal p-subgroup: the core of any Sylow p-subgroup."""
    return normal_core(G, sylow_p(G, p))


@_kept
def quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, list[int]]:
    """The quotient Q = G/N, and the projection: ``proj[x]`` is the index
    in Q of the coset N*x.

    The projection is the coset labelling itself.  :func:`closure` walks
    G/N breadth-first over G's generators in order, as it walked G.  A
    coset first meets a new coset only through its least member m: for any
    other member x, x*g lies in N*(m*g), met when m was walked before x.
    So Q numbers the cosets in the order of their least members, which is
    the labelling of :func:`coset_action`.  G/1 is G itself.  The result is
    kept per (G, N), so every caller shares one Q and one ``proj``.

    N is normal, so G permutes the N-orbits of its points, with N in the
    kernel: the action has order at most |G:N|, and exactly |G:N| iff its
    kernel is N.  On k < |G:N| orbits with |G:N| dividing k! (which a
    faithful action on k points needs), Q is this action when faithful,
    else the regular one; the walk above numbers both alike.
    """
    if N.parent is not G:
        raise ContractViolation("subgroup does not belong to this group")
    if not is_normal(G, N):
        raise ContractViolation("quotient by a non-normal subgroup")
    if N.order == 1:
        return G, list(range(len(G.elements)))
    perms, coset_of = coset_action(G, N)
    index = len(G.elements) // N.order
    orbit = _orbits(G.degree, [G.elements[m] for m in N.gens])
    reps = list(dict(zip(orbit, range(G.degree))).values())  # one per orbit
    Q = None
    if len(reps) < index and factorial(len(reps)) % index == 0:
        on_orbits = [Perm._raw(tuple(orbit[G.elements[g][x]] for x in reps))
                     for g in G.gen_indices]
        Q = closure(len(reps), on_orbits, max_order=index)
    if Q is None or Q.order < index:
        Q = closure(index, perms, base=(0,))  # a regular action
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


@_kept
def derived_series(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """G, G′, G″, ... down to the trivial group or to the first perfect
    term, each term once.  Kept, so the census's G′ and
    :func:`is_solvable` share one series."""
    series = [G.improper_subgroup()]
    while True:
        nxt = derived_subgroup(G, series[-1])
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
        if nxt.order == 1:
            break
    return tuple(series)


@_kept
def is_solvable(G: FiniteGroup) -> bool:
    return derived_series(G)[-1].order == 1


def center(sub: Subgroup) -> Subgroup:
    """Center of a subgroup, as a subgroup of its parent."""
    G = sub.parent
    members = [x for x in sorted(sub.members)
               if all(G.mul(x, g) == G.mul(g, x) for g in sub.gens)]
    return G.subgroup_from_members(members)


def omega1(sub: Subgroup, p: int) -> Subgroup:
    """Subgroup generated by all elements of order dividing p."""
    G = sub.parent
    gens = [m for m in sorted(sub.members) if m != 0 and G.power(m, p) == 0]
    result = G.subgroup(gens)
    if not result.members <= sub.members:
        raise ContractViolation("omega1 escaped the subgroup; input not a group?")
    return result


def is_extraspecial(sub: Subgroup, p: int) -> bool:
    """Whether `sub` is an extraspecial p-group: Z = P' = Phi, of order p.
    Phi = P'P^p in a p-group, and P^p lies in Z once P' = Z has order p:
    then [x^p, y] = [x, y]^p = 1.  So |Z| = p and P' = Z suffice."""
    if p_part(sub.order, p) != sub.order:
        return False
    Z = center(sub)
    return (Z.order == p
            and derived_subgroup(sub.parent, sub).members == Z.members)


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
    subgroup grows its own base.  The result is kept in ``G.cache`` here,
    not by :func:`_kept`, because callers may pass lists, which are no keys.
    """
    key = ("regen", tuple(gen_indices))
    if key not in G.cache:
        gens = [Perm._raw(G.elements[i]) for i in gen_indices]
        G.cache[key] = closure(G.degree, gens, max_order=len(G.elements) + 1,
                               base=G.base)
    return G.cache[key]


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


@_kept
def small_generating_set(G: FiniteGroup) -> tuple:
    """A short generating tuple found greedily in index order."""
    return G.subgroup_from_members(range(G.order)).gens


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
    return (npoints > 0
            and max(_orbits(npoints, [g.images for g in perms])) == 0)


def is_primitive(perms: Sequence[Perm], npoints: int,
                 stabilizer: Sequence[Perm] = ()) -> bool:
    """True iff the transitive action generated by `perms` has no proper blocks.

    `stabilizer` holds permutations of the group that fix point 0; one
    that moves it is a ContractViolation.  The least block through 0 and
    beta is tested for one beta in each orbit of `stabilizer` other than
    {0}: if h fixes 0 it maps a block B through 0 and beta to itself, so B
    holds beta^h too.  With no stabilizer, every beta is tested.
    """
    if not is_transitive(perms, npoints):
        raise ContractViolation("primitivity requires a transitive action")
    if any(h.images[0] != 0 for h in stabilizer):
        raise ContractViolation("a stabilizer permutation moves point 0")
    suborbit = _orbits(npoints, [h.images for h in stabilizer])
    betas = list(dict(zip(suborbit, range(npoints))).values())  # one an orbit
    return all(_minimal_block_size(perms, npoints, beta) == npoints
               for beta in betas[1:])


# -- misc structure tests --------------------------------------------------


def is_cyclic(sub: Subgroup) -> bool:
    G = sub.parent
    return any(G.order_of(m) == sub.order for m in sub.members)
