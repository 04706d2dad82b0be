"""Finite permutation groups by full enumeration.

Groups here are small enough (a few thousand elements) that we list every
element by its point images: ``elements[k][x]`` is the image of point x.
On at most 256 points an element is ``bytes``, so that a product is one
``bytes.translate`` in C and is its own dict key; on more it is a tuple.
Both are read alike, by indexing, ``itemgetter`` and ``.index``, and
:func:`element_arithmetic` is the one place that picks between them.  A
:class:`~regmaps.perm.Perm` is only the validated form of a generator.
Products read left to right, ``(g*h)(x) == h(g(x))``, so a word like
``t*r`` means "apply t, then r", as for group words everywhere else in the
package.

The closure is a breadth-first walk from the identity, multiplying by
generators in input order, which fixes a deterministic element numbering:
element 0 is always the identity, and elements are numbered as the walk
meets them.  The numbering depends only on the group and the order of its
generators, not on the points it acts on.  :func:`closure` builds every
group, and :func:`order_limit` is the one check of its size: a caller that
knows a least order asks it first, to be refused before any element is
built.  A group keeps its elements, the indices of its generators, its
base and the index below.  Inverses, element orders and rows of the
multiplication table (:meth:`FiniteGroup.row`) are computed from those on
first use and kept: orders and rows in dicts, so a group holds only those
it computed, and inverses in a list by element, since the census reads
every one.  Other per-group results are kept by :func:`_kept`, and
:func:`_orbits` labels classes and orbits.

Products are read from base images.  A base is a short list of points whose
pointwise stabilizer is trivial, so an element is determined by where it
sends them.  The index is one getter per element, ``itemgetter`` of its
base images, and one dict from those images, the key its getter holds, to
the element's number.  ``mul(i, j)`` applies i's getter to j's images,
which gives the key of i*j, whatever the degree.  :func:`closure` builds
the index in its walk on a base its caller knows, and the group keeps that
base; only a closure given none keys its walk by full images, then grows a
base greedily from point 0 (:func:`_greedy_base`; a regular group has base
``(0,)``) and indexes its elements on it.
:func:`is_primitive` takes the stabilizer of point 0, if known, and tests
one point of each of its orbits.  Rows, centralizers and class moves read
all products at once (:meth:`FiniteGroup._keys`): ``bytes`` columns of
base images, each ``translate``d by g and zipped, are the keys ``mul``
looks up for x*g.

Subgroups are grown in place, as in Dimino's algorithm:
:meth:`FiniteGroup._grow` adds one generator at a time to a closed member
set, skips a candidate that is a member already, and multiplies by the new
generator only the members it had.  ``subgroup``, ``subgroup_from_members``,
:func:`normal_closure`, :func:`sylow_p` and :func:`omega1` all grow
through it, so :func:`normal_closure` and :func:`omega1` keep irredundant
generators: each lies outside the subgroup the ones before it generate.
A core (:func:`normal_core`) is the union of the conjugacy classes inside
the subgroup H, since x^G lies in H iff x lies in every conjugate of H; it
is found by walking each class once, in at most |H| * |gens| conjugations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import wraps
from itertools import compress, product as iproduct, starmap
from math import factorial, lcm, prod
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Optional, Sequence

from .errors import ContractViolation, ResourceLimitExceeded
from .perm import Perm

DEFAULT_MAX_ORDER = 10**6
# Closure refuses a group before the 8-byte cells it holds pass this many
# (about 160 MB), whatever the order bound.  Each listed element is charged
# `degree` cells for its images and ELEMENT_CELLS more: its tuple header,
# its getter, its key (a tuple of its base images, which the getter and the
# index share), its entry in the index, its slot in the list of inverses
# and, with no base given, its entry in closure's `seen`, freed before the
# index is built (tracemalloc on tuple elements: 30 to 35 cells with a base
# of 2 to 5 points, 41 to 42 with a base of 12; each base point adds a cell
# to the key, and a base of b points needs 2**b elements, so no group
# within the bound has a base of more than 17).  Each point costs
# up to POINT_CELLS more for every generator and for the identity (10 in
# all for one generator, 16 for two): its int object, a generator's tuple,
# closure's arguments.  ELEMENT_CELLS was measured on tuple elements: a
# `bytes` element on at most 256 points holds a byte a point, not a cell,
# so the charge overstates it; the bound stays as it is until one byte
# budget replaces the cell count.
MAX_CLOSURE_CELLS = 2 * 10**7
ELEMENT_CELLS = 80
POINT_CELLS = 6
_BYTE_POINTS = bytes(range(256))


def element_arithmetic(degree: int) -> tuple:
    """How elements on `degree` points are stored and multiplied, as
    ``(pack, factor, times)``: ``pack(images)`` is an element as stored,
    ``factor(images)`` is a right factor g in the form ``times`` reads, and
    ``times(e)(factor(g))`` is the stored product e * g.  On at most 256
    points, as many as a byte can name, an element is ``bytes`` and e * g
    is one ``e.translate`` by g's images padded to 256 entries; on more it
    is a tuple and ``times(e)`` is ``itemgetter(*e)``.
    """
    if degree <= 256:
        tail = _BYTE_POINTS[degree:]
        return (bytes, lambda images: bytes(images) + tail,
                attrgetter("translate"))
    return tuple, tuple, lambda e: itemgetter(*e)


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


def order_limit(degree: int, ngens: int, max_order: int,
                least: int = 1) -> int:
    """The most elements closure may list on `degree` points from `ngens`
    generators, ``min(max_order, cell_limit(degree, ngens))``; raises
    closure's refusal if that is below `least`, a known lower bound on the
    order.  A `max_order` below 1 is a ContractViolation."""
    if max_order < 1:
        raise ContractViolation(f"max_order must be at least 1, got {max_order}")
    limit = min(max_order, cell_limit(degree, ngens))
    if least <= limit:
        return limit
    if limit == max_order:
        raise ResourceLimitExceeded(
            f"closure exceeded max_order={max_order}", "max_order", max_order)
    raise ResourceLimitExceeded(
        f"closure exceeded max_cells={MAX_CLOSURE_CELLS}:"
        f" {limit} elements on {degree} points",
        "max_cells", MAX_CLOSURE_CELLS)


def closure(degree: int, generators: Sequence[Perm],
            max_order: int = DEFAULT_MAX_ORDER,
            base: Sequence[int] = ()) -> "FiniteGroup":
    """Enumerate the group generated by `generators` inside Sym(degree).

    Each product is formed as :func:`element_arithmetic` gives it.  Given
    a `base` of the group, points whose pointwise stabilizer in it is
    trivial, the walk builds the index as it lists the elements: element
    k's getter applied to g's images is the key of ``elements[k] * g``,
    and only a new key gets its full images (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, ch. 4).  The group keeps that
    base; a wrong one merges distinct elements.  With none, each product
    is its own key, and the group is indexed on a greedy base.  The
    numbering, the bounds and the refusals do not depend on the base or on
    the element type.

    Refuses (ResourceLimitExceeded) a group of more than
    ``order_limit(degree, len(generators), max_order)`` elements, with the
    refusal :func:`order_limit` gives.
    """
    gens = tuple(generators)
    if degree < 1:
        raise ContractViolation("a group acts on at least one point")
    for g in gens:
        if g.degree != degree:
            raise ContractViolation(
                f"generator degree {g.degree} does not match {degree}")
    limit = order_limit(degree, len(gens), max_order)
    pack, factor, times_of = element_arithmetic(degree)
    elements = [pack(range(degree))]
    factors = [factor(g.images) for g in gens]
    if base:
        # on a one-point base a key is a bare int, as mul reads it
        one = len(base) == 1
        get = [itemgetter(*base)]
        at = {get[0](elements[0]): 0}
        for ek, look in zip(elements, get):
            times = times_of(ek)
            for g in factors:
                k = look(g)
                if k not in at:
                    j = len(elements)
                    if j >= limit:  # raises, as j + 1 > limit
                        order_limit(degree, len(gens), max_order, j + 1)
                    at[k] = j
                    get.append(itemgetter(k) if one else itemgetter(*k))
                    elements.append(times(g))
    else:
        seen = {elements[0]: 0}
        for ek in elements:
            times = times_of(ek)
            for g in factors:
                k = times(g)
                if k not in seen:
                    j = len(elements)
                    if j >= limit:  # raises, as j + 1 > limit
                        order_limit(degree, len(gens), max_order, j + 1)
                    seen[k] = j
                    elements.append(k)
        del seen  # freed before the index is built
        base = _greedy_base(elements)
        keys = list(map(itemgetter(*base), elements))
        get = list((starmap if len(base) > 1 else map)(itemgetter, keys))
        at = dict(zip(keys, range(len(elements))))
    gen_indices = [at[get[0](g)] for g in factors]
    return FiniteGroup(degree, elements, gen_indices, tuple(base), get, at)


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


def _lift(rows: Sequence[list], moves: Sequence[list], n: int,
          proved: bool = False) -> tuple:
    """Walk from 1 over generators' `rows`, labelling 1 with 0 and x*g, met
    first from x, with g's move (a row of labels) applied to x's label.
    Returns whether all n elements were met, whether no other edge
    disagrees (the labels are then a homomorphism sending each generator
    to its move), and the labels; if the rows are `proved` to generate,
    the walk stops at the first disagreement."""
    label = [-1] * n
    label[0] = 0
    order = [0]
    agree = True
    for x in order:
        u = label[x]
        for row, move in zip(rows, moves):
            y, v = row[x], move[u]
            w = label[y]
            if w < 0:
                label[y] = v
                order.append(y)
            elif w != v:
                if proved:
                    return True, False, label
                agree = False
    return len(order) == n, agree, label


def _greedy_base(elements: Sequence[Sequence[int]]) -> tuple:
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

    def __init__(self, degree, elements, gen_indices, base, get, at):
        self.degree = degree
        self.elements = elements
        self.gen_indices = gen_indices
        self.cache: dict = {}
        self._inv: list[Optional[int]] = [None] * len(elements)
        self._orders, self._rows = {}, {}
        self.base = base
        # _get[i] reads off, from the images of an element g, the images of
        # element i's base images: the base images of elements[i] * g, its
        # key in _at.  On a one-point base a key is a bare int.
        self._get = get
        self._at = at
        # the base's columns and all images joined, on first use (_keys)
        self._columns: Optional[list] = None
        self._flat: Optional[bytes] = None

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
        """The row x -> x*g of the multiplication table, for tight loops."""
        r = self._rows.get(g)
        if r is None:
            r = self._rows[g] = list(map(self._at.__getitem__,
                                         self._keys(post=g)))
        return r

    def _keys(self, pre: int = 0, post: int = 0) -> Iterable:
        """The ``_at`` keys of pre * c * post for each element c, read once:
        on bytes, the columns of the points pre(b) over all elements, each
        translated by post, zipped; on tuples, per entry."""
        images = self.elements[post]
        if not isinstance(images, bytes):
            get, at, pick = self._get, self._at, self._get[pre]
            if not pre:
                return [get_c(images) for get_c in get]
            return [get[at[pick(e)]](images) for e in self.elements]
        if pre:
            if self._flat is None:
                self._flat = b"".join(self.elements)
            img, d = self.elements[pre], self.degree
            cols = [self._flat[img[b]::d] for b in self.base]
        else:
            if self._columns is None:
                self._columns = ([bytes(self._at)] if len(self.base) == 1
                                 else [bytes(map(itemgetter(k), self._at))
                                       for k in range(len(self.base))])
            cols = self._columns
        if post:
            pad = images + _BYTE_POINTS[self.degree:]
            cols = [col.translate(pad) for col in cols]
        return cols[0] if len(cols) == 1 else zip(*cols)

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

    def order_of(self, i: int, bound: int = 0) -> int:
        """The order of i; unless kept, 0 once a base cycle passes `bound`."""
        v = self._orders.get(i)
        if v is None:
            # The base stabilizer is trivial, so g^k = 1 iff g^k fixes every
            # base point: the order is the lcm of the cycle lengths through
            # the base points.
            img = self.elements[i]
            v = 1
            for b in self.base:
                k, x = 1, img[b]
                while x != b and k != bound:
                    x, k = img[x], k + 1
                if x != b:
                    return 0
                v = lcm(v, k)
            self._orders[i] = v
        return v

    @_kept
    def conjugacy_classes(self) -> tuple[list[int], list[int]]:
        """Return (class_id per element, class_size per element), the
        orbits of conjugation x -> g^-1 * x * g by each generator g."""
        at = self._at.__getitem__
        moves = [list(map(at, self._keys(self.inv(g), g)))
                 for g in self.gen_indices]
        class_id = _orbits(len(self.elements), moves)
        size = Counter(class_id)
        return class_id, [size[c] for c in class_id]

    def centralizer(self, x: int) -> list[int]:
        """The members of C_G(x), in increasing order: the c whose keys of
        x*c and c*x are equal, compared without a lookup."""
        return list(compress(range(self.order),
                             map(eq, self._keys(pre=x), self._keys(post=x))))

    # -- subgroups ---------------------------------------------------------

    def _grow(self, members: set, gens: list, new: Iterable[int]) -> None:
        """Grow `members`, the subgroup generated by `gens`, in place by each
        element of `new` that is not yet a member.  Such an element s joins
        `gens`; the old members are multiplied by s alone, since their
        products by the old generators are members already, and only the
        members this makes are multiplied by every generator.  The result
        is closed under all of `gens`, hence the subgroup they generate.
        `new` is read lazily, against the members grown so far."""
        mul = self.mul
        for s in new:
            if s in members:
                continue
            gens.append(s)
            fresh = [y for m in members if (y := mul(m, s)) not in members]
            members.update(fresh)
            for x in fresh:
                for g in gens:
                    y = mul(x, g)
                    if y not in members:
                        members.add(y)
                        fresh.append(y)

    def subgroup(self, gen_indices: Sequence[int]) -> "Subgroup":
        for g in gen_indices:
            if not (0 <= g < len(self.elements)):
                raise ContractViolation(f"element index {g} out of range")
        members = {0}
        self._grow(members, [], gen_indices)
        return Subgroup(self, frozenset(members), tuple(gen_indices))

    def subgroup_from_members(self, members: Iterable[int]) -> "Subgroup":
        """Subgroup from a known-closed member set, with a greedy generating
        set: each member in increasing order not yet generated."""
        mset = frozenset(members)
        gens: list[int] = []
        closed = {0}
        self._grow(closed, gens, sorted(mset))
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
    """Largest normal subgroup of G contained in sub: the union of the
    conjugacy classes of G inside sub, since x^G lies in sub iff x^(g^-1)
    does for every g, that is, iff x lies in every conjugate sub^g.  Each
    undecided member's class is walked by conjugation with G's generators.
    A walk that meets a conjugate outside sub, or a member already out,
    puts out every member it met; a walk that ends puts its class in.  A
    member is met by one walk and conjugated once by each generator, so
    there are at most |sub| * |gens| conjugations.
    """
    if sub.parent is not G:
        raise ContractViolation("subgroup does not belong to this group")
    if sub.order == 1 or sub.is_improper():
        return sub
    # y^g = g^-1 * y * g by two lookups, as in mul: pre reads the base
    # images of g^-1 * y off y's images, and y^g's are read off g's
    get, at, elements = G._get, G._at, G.elements
    moves = [(get[G.inv(g)], elements[g]) for g in G.gen_indices]
    undecided, core = set(sub.members), []
    for x in sub.members:
        if x not in undecided:
            continue
        cls, met = [x], {x}
        for y in cls:
            images_y = elements[y]
            for pre, images in moves:
                z = at[get[at[pre(images_y)]](images)]
                if z not in met:
                    if z not in undecided:
                        break
                    met.add(z)
                    cls.append(z)
            else:
                continue
            break  # the class of x leaves sub
        else:
            core += cls
        undecided -= met
    return G.subgroup_from_members(core)


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
    members, gens = {0}, []
    while len(members) < target:
        found = next(k for k in range(1, G.order) if k not in members
                     and (o := G.order_of(k, target)) and target % o == 0
                     and all(G.conj(m, k) in members for m in gens))
        G._grow(members, gens, (found,))
    return Subgroup(G, frozenset(members), tuple(gens))


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
        Q = closure(index, perms, base=(0,))  # G/N, acting regularly
    return Q, coset_of


def derived_subgroup(G: FiniteGroup,
                     sub: Optional[Subgroup] = None) -> Subgroup:
    """Commutator subgroup of `sub` (default: of G itself), as a subgroup of
    G."""
    gens = (sub if sub is not None else G.improper_subgroup()).gens
    seeds = {G.comm(a, b) for a in gens for b in gens if a != b} - {0}
    return normal_closure(G, gens, seeds)


def normal_closure(G: FiniteGroup, ambient_gens: Sequence[int],
                   seeds: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing `seeds` normalized by <ambient_gens>.

    The seeds, in increasing order, and then the conjugates of each
    generator by each ambient generator, are taken from one queue; only a
    candidate outside the subgroup grown so far becomes a generator.  Once
    the queue is empty, H^a lies in H for each generator a of the ambient
    group, so a finite H is normalized by it."""
    members, gens = {0}, []
    queue = sorted(set(seeds))
    for s in queue:
        if s not in members:
            G._grow(members, gens, (s,))
            queue.extend(G.conj(s, a) for a in ambient_gens)
    return Subgroup(G, frozenset(members), tuple(gens))


@_kept
def derived_series(G: FiniteGroup) -> tuple[Subgroup, ...]:
    """G, G′, G″, ... down to the trivial group or to the first perfect
    term, each term once, kept per group: the series stops at the first
    term whose derived subgroup has its order, hence is that term."""
    series = [G.improper_subgroup()]
    while series[-1].order > 1 and (
            S := derived_subgroup(G, series[-1])).order < series[-1].order:
        series.append(S)
    return tuple(series)


@_kept
def is_solvable(G: FiniteGroup) -> bool:
    """Whether the derived series reaches 1.

    A group of odd order is solvable (Feit and Thompson, 1963), and so is
    one whose order has at most two prime divisors (Burnside's p^a q^b
    theorem, 1904).  For the other orders the p-cores, kept per group and
    read by every report, come next.  Their product is the Fitting
    subgroup F, the largest nilpotent normal subgroup, and |F| is the
    product of their orders.  If |F| = |G|, G is nilpotent, hence
    solvable.  In a solvable group C_G(F) lies in F (Fitting's theorem;
    Huppert, Endliche Gruppen I, III.4.2).  So if every generator of every
    core commutes with every generator of G, then C_G(F) = G, and |F| <
    |G| shows G is not solvable.  Only a group that neither settles reads
    the series.
    """
    n = G.order
    primes = prime_factors(n)
    if n % 2 == 1 or len(primes) <= 2:
        return True
    cores = [o_p(G, p) for p in primes]
    if prod(N.order for N in cores) == n:
        return True
    mul = G.mul
    if all(mul(x, g) == mul(g, x)
           for N in cores for x in N.gens for g in G.gen_indices):
        return False
    return derived_series(G)[-1].order == 1


def center(sub: Subgroup) -> Subgroup:
    """Center of a subgroup, as a subgroup of its parent."""
    G = sub.parent
    members = [x for x in sorted(sub.members)
               if all(G.mul(x, g) == G.mul(g, x) for g in sub.gens)]
    return G.subgroup_from_members(members)


def omega1(sub: Subgroup, p: int) -> Subgroup:
    """Subgroup generated by all elements of order dividing p, with the
    generators that are not generated by the ones before them."""
    G = sub.parent
    members, gens = {0}, []
    G._grow(members, gens,
            (m for m in sorted(sub.members) if G.power(m, p) == 0))
    if not members <= sub.members:
        raise ContractViolation("omega1 escaped the subgroup; input not a group?")
    return Subgroup(G, frozenset(members), tuple(gens))


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
    that :func:`standardize` is checked against.  It is :func:`_lift` over
    the source's generators, whose moves are the rows of their images.
    """
    gen_images = tuple(gen_images)
    if len(gen_images) != len(source.gen_indices):
        raise ContractViolation("one image per generator required")
    for t in gen_images:
        if not (0 <= t < len(target.elements)):
            raise ContractViolation(f"image index {t} out of range")
    _, agree, img = _lift([source.row(g) for g in source.gen_indices],
                          [target.row(t) for t in gen_images],
                          len(source.elements), True)
    return GroupHom(source, target, gen_images, tuple(img)) if agree else None


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
        gens = [Perm._raw(tuple(G.elements[i])) for i in gen_indices]
        G.cache[key] = closure(G.degree, gens, max_order=len(G.elements) + 1,
                               base=G.base)
    return G.cache[key]


def isomorphism_search(G1: FiniteGroup, G2: FiniteGroup) -> bool:
    """True iff G1 and G2 are isomorphic.

    Candidate images of a small generating tuple of G1 are pruned by element
    order and conjugacy class size, which keeps the search tiny for the group
    orders this package meets.  An assignment is an isomorphism's image iff
    :func:`_lift` over the tuple's rows, with the assignment's rows as
    moves, finds a homomorphism that is one-to-one.
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
    rows1 = [G1.row(g) for g in gens1]
    pools = [[k for k in range(n) if G2.order_of(k) == G1.order_of(g)
              and sizes2[k] == sizes1[g]] for g in gens1]
    for assignment in iproduct(*pools):
        _, hom, img = _lift(rows1, [G2.row(a) for a in assignment], n, True)
        if hom and len(set(img)) == n:
            return True
    return False


@_kept
def small_generating_set(G: FiniteGroup) -> tuple:
    """A short generating tuple found greedily in index order."""
    return G.subgroup_from_members(range(G.order)).gens


# -- primitivity -----------------------------------------------------------


def _minimal_block_size(perms: Sequence[Perm], npoints: int, beta: int) -> int:
    parent = list(range(npoints))
    size = [1] * npoints  # of each class, at its root

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pairs = [(0, beta)]
    parent[beta] = 0
    size[0] = 2
    while pairs:
        a, b = pairs.pop()
        for g in perms:
            x, y = find(g.images[a]), find(g.images[b])
            if x != y:
                parent[y] = x
                size[x] += size[y]
                # the classes end as blocks, whose size divides npoints
                if size[x] > npoints // 2:
                    return npoints
                pairs.append((x, y))
    return size[find(0)]


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
    Orbits are tried smallest first, ties by least member, up to the first
    proper block: the stabilizer's fixed points form a block, so unless it
    fixes every point, a fixed point other than 0 settles the question.
    """
    if not is_transitive(perms, npoints):
        raise ContractViolation("primitivity requires a transitive action")
    if any(h.images[0] != 0 for h in stabilizer):
        raise ContractViolation("a stabilizer permutation moves point 0")
    suborbit = _orbits(npoints, [h.images for h in stabilizer])
    betas = dict(zip(suborbit, range(npoints)))  # one point an orbit
    sizes = Counter(suborbit)
    return all(_minimal_block_size(perms, npoints, betas[k]) == npoints
               for k in sorted(range(1, len(betas)), key=sizes.__getitem__))
