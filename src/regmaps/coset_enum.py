"""Coset enumeration over a finite presentation (HLT strategy).

In the returned table cosets are numbered from 0, with coset 0 the
subgroup itself.  During the run the subgroup is coset 1 and coset 0 is a
sink that every column maps to itself, so an undefined entry holds 0 and a
walk that meets one stays at 0.  A relator is therefore first walked bare
from a coset, and traced and filled in only when the walk does not come
back.  New cosets are created strictly in definition order while relators
are traced, which makes the whole run deterministic.  Coincidences are
merged through a union-find representative array; the surviving table is
compacted and then standardized (:func:`regmaps.group.standard_table`): a
breadth-first renumbering from the subgroup's coset.

Symbols interleave generators and inverses: generator i is symbol 2i and
its inverse is 2i + 1, so ``x ^ 1`` flips a symbol.  The table is one list
per symbol, indexed by coset, and each relator is turned once into the
lists of its letters' columns and of their inverses' columns, so tracing a
letter is one subscript.  A relator ``x^2`` or ``x^-2`` gives x and x^-1 one
shared column, which holds that relator by itself, so it is not traced.
The columns grow by blocks of undefined entries, never past
``max_cosets + 1`` entries, the sink included.

:func:`presentation_group` realizes a presentation as a permutation group,
and one enumeration, over the trivial subgroup, is its whole cost.  The
table is the regular representation: the cosets of the cyclic subgroup <g>
of a generator are the cycles of left multiplication by g, read off the
table, and the smallest such action that is faithful gives the group, else
the regular one.  The kernel core(<g>) lies in the cyclic <g>, so the
action is faithful iff g acts on the cosets with the order it has in the
group.  Elements are numbered by a breadth-first walk over the table, the
numbering :func:`regmaps.group.closure` would give, without a closure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import lcm
from operator import itemgetter
from typing import Optional, Sequence

from .errors import ContractViolation, ResourceLimitExceeded
from .group import (DEFAULT_MAX_ORDER, FiniteGroup, _orbits, cell_limit,
                    cells_exceeded, standard_table)
from .perm import Perm
from .words import Presentation, Word

DEFAULT_MAX_COSETS = 200_000
# The table grows by blocks of an eighth of its size, at least this many
# rows, up to max_cosets + 1 rows in all.
_BLOCK_MIN = 64


def _to_symbols(word: Word) -> list[int]:
    return [2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1 for x in word.letters]


@dataclass
class CosetTable:
    """A completed enumeration: `n` cosets; ``cols[x][k]`` is coset k * x."""

    ngens: int
    n: int
    cols: list

    @property
    def rows(self) -> list:
        return [[col[k] for col in self.cols] for k in range(self.n)]

    def gen_perms(self) -> list[Perm]:
        return [Perm(col) for col in self.cols[::2]]


def todd_coxeter(pres: Presentation, subgroup_words: Sequence[Word] = (),
                 max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_words`.

    With no subgroup words this enumerates the whole group.  Raises a
    resource error naming `max_cosets` if the table grows past the limit
    (which is also what a presentation of an infinite group runs into).
    A `max_cosets` below 1 is a ContractViolation.
    """
    if max_cosets < 1:
        raise ContractViolation(
            f"max_cosets must be at least 1, got {max_cosets}")
    ngens = pres.ngens
    nsym = 2 * ngens
    relators = [_to_symbols(r) for r in pres.relators]
    # x^2 or x^-2 gives x and x^-1 one column, which holds it untraced
    invol = {w[0] >> 1 for w in relators if len(w) == 2 and w[0] == w[1]}
    cols = [[0, 0] for _ in range(nsym)]
    for i in invol:
        cols[2 * i + 1] = cols[2 * i]
    # (column, inverse column) of each symbol with a column of its own
    pairs = [(cols[x], cols[x ^ 1]) for x in range(nsym)
             if x % 2 == 0 or cols[x] is not cols[x ^ 1]]
    owned = [fc for fc, _ in pairs]
    p = [0, 1]
    dead = 0

    def rep(k: int) -> int:
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def merge(a: int, b: int, queue: list) -> None:
        # a is a root: between coincidences every table entry is live, and
        # inside one, a is mu or nu; rep is called only on a dead coset
        b = b if p[b] == b else rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            p[hi] = lo
            queue.append(hi)

    def coincidence(alpha: int, beta: int) -> None:
        nonlocal dead
        queue: list = []
        merge(alpha, beta, queue)
        for gamma in queue:
            for fc, ic in pairs:
                if not (delta := fc[gamma]):
                    continue
                ic[delta] = 0
                mu = rep(gamma)  # gamma is dead
                nu = delta if p[delta] == delta else rep(delta)
                if g := fc[mu]:
                    merge(nu, g, queue)
                elif g := ic[nu]:
                    merge(mu, g, queue)
                else:
                    fc[mu] = nu
                    ic[nu] = mu
        dead += len(queue)

    def grow(size: int) -> None:
        # the table is full: add a block of undefined rows, or refuse
        if size > max_cosets:
            raise ResourceLimitExceeded(
                f"coset table exceeded max_cosets={max_cosets}"
                f" ({size - 1 - dead} live)", "max_cosets", max_cosets)
        block = [0] * min(max(size >> 3, _BLOCK_MIN), max_cosets + 1 - size)
        for col in owned:
            col.extend(block)

    def scan_and_fill(alpha: int, fw: list, bw: list) -> None:
        # fw[i] is the column of the word's i-th symbol, bw[i] of its inverse
        f, i = alpha, 0
        b, j = alpha, len(fw) - 1
        while True:
            while i <= j and (g := fw[i][f]):
                f, i = g, i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and (g := bw[j][b]):
                b, j = g, j - 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                fw[i][f] = b
                bw[i][b] = f
                return
            beta = len(p)  # define f * word[i] as a new coset
            if beta == len(fw[i]):
                grow(beta)
            p.append(beta)
            fw[i][f] = beta
            bw[i][beta] = f

    def scan(word: list) -> tuple:
        return [cols[x] for x in word], [cols[x ^ 1] for x in word]

    scans = [scan(w) for w in relators if len(w) != 2 or w[0] != w[1]]
    for w in subgroup_words:
        scan_and_fill(1, *scan(_to_symbols(w)))
    alpha = 1
    while alpha < len(p):
        if p[alpha] == alpha:
            for fw, bw in scans:
                # a walk that meets an undefined entry ends in the sink, so
                # it ends at alpha iff the relator already holds there
                f = alpha
                for c in fw:
                    f = c[f]
                if f != alpha:
                    scan_and_fill(alpha, fw, bw)
                    if p[alpha] != alpha:
                        break
            else:
                for fc, ic in pairs:
                    if not fc[alpha]:
                        beta = len(p)
                        if beta == len(fc):
                            grow(beta)
                        p.append(beta)
                        fc[alpha] = beta
                        ic[beta] = alpha
        alpha += 1

    # Compact to live cosets, then standardize, so the final table does not
    # depend on the history of dead definitions.  p[k] <= k, so one
    # increasing pass sends every coset to its root.
    live = []
    squash = [0] * len(p)
    for k in range(1, len(p)):
        if p[k] == k:
            squash[k] = len(live)
            live.append(k)
        else:
            squash[k] = squash[p[k]]
    squashed = [[squash[col[k]] for k in live] for col in cols]
    flat = standard_table(squashed, len(live))
    if flat is None:
        raise ContractViolation("coset table is not connected")
    return CosetTable(ngens, len(live), [flat[x::nsym] for x in range(nsym)])


def _realize(ct: CosetTable, images: Sequence[Sequence[int]],
             degree: int) -> FiniteGroup:
    """The group of the regular table `ct`, acting on `degree` points where
    generator i acts as ``images[i]``, numbered as :func:`closure` numbers
    it.

    A breadth-first walk over the table's generator columns meets the
    elements in closure's order, and each new element's image tuple is one
    product from the element it was met from.  Closure's cell bound applies
    before any tuple is built.
    """
    n = ct.n
    limit = cell_limit(degree, ct.ngens)
    if n > limit:
        raise cells_exceeded(limit, degree)
    gen_cols = ct.cols[::2]
    num = [-1] * n
    num[0] = 0
    order = [0]
    elements = [tuple(range(degree))]
    # A product is only ever taken in a group of order n > 1, which acts on
    # at least two points, so itemgetter returns a tuple.
    for i, x in enumerate(order):
        times = itemgetter(*elements[i])
        for col, img in zip(gen_cols, images):
            y = col[x]
            if num[y] < 0:
                num[y] = len(order)
                order.append(y)
                elements.append(times(img))
    return FiniteGroup(degree, elements, [num[col[0]] for col in gen_cols])


def _cyclic_coset_action(ct: CosetTable, i: int, m: int) -> Optional[list]:
    """The images of the generators on the right cosets of <g>, g =
    generator i of order m, with the cosets numbered as
    ``todd_coxeter(pres, (g,))`` numbers them; None when that action is not
    faithful.

    <g>x is the cycle through x of left multiplication by g, which is
    walked from ``g * 1 = g`` along the table: ``g(xs) = (gx)s``.  The
    kernel core(<g>) lies in the cyclic <g>, so it is trivial iff g acts
    with order m.
    """
    n, cols, gen_cols = ct.n, ct.cols, ct.cols[::2]
    left = [-1] * n
    left[0] = cols[2 * i][0]
    walk = [0]
    for x in walk:
        for col in gen_cols:
            y = col[x]
            if left[y] < 0:
                left[y] = col[left[x]]
                walk.append(y)
    coset = _orbits(n, [left])  # <g> itself, through 0, is coset 0
    reps = list(dict(zip(coset, range(n))).values())  # one per coset
    act = [[coset[col[r]] for r in reps] for col in cols]
    if lcm(*Counter(_orbits(len(reps), [act[2 * i]])).values()) != m:
        return None
    flat = standard_table(act, len(reps))
    return [flat[x::len(cols)] for x in range(0, len(cols), 2)]


def _check_order(n: int, max_order: int) -> None:
    if n > max_order:
        raise ResourceLimitExceeded(
            f"group order {n} exceeds max_order={max_order}",
            "max_order", max_order)


def perms_from_table(ct: CosetTable, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """The regular representation of the group whose table `ct` is.

    `ct` must come from an enumeration over the trivial subgroup, so that
    its cosets are the group's elements and the group order equals the
    coset count.  :func:`presentation_group` falls back to it when no
    smaller action of the presentation is faithful.
    """
    _check_order(ct.n, max_order)
    return _realize(ct, ct.cols[::2], ct.n)


def presentation_group(pres: Presentation,
                       max_cosets: int = DEFAULT_MAX_COSETS,
                       max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """The group a presentation defines, on a small faithful coset action.

    One enumeration, over the trivial subgroup, is the whole cost: it fixes
    the order n, it is the run that `max_cosets` bounds, and every action
    below is read off its table.  A generator g of order m (the length of
    its cycle through coset 0) offers the action on the n / m cosets of
    <g>.  The generators are tried by increasing n / m, ties by position.
    The kernel core(<g>) lies in the cyclic <g>, so the action is faithful
    iff g acts on those cosets with order m, and the first faithful one
    gives the group; when none is, it is the regular representation
    (:func:`perms_from_table`).  Elements are numbered as :func:`closure`
    numbers them, by the group and the order of its generators alone, so
    every faithful action gives the same element indices.
    """
    ct = todd_coxeter(pres, (), max_cosets=max_cosets)
    _check_order(ct.n, max_order)
    degrees = []
    for col in ct.cols[::2]:
        m, x = 1, col[0]
        while x != 0:
            m, x = m + 1, col[x]
        degrees.append(ct.n // m)
    # sorted() is stable, so ties keep generator order
    for i in sorted(range(ct.ngens), key=degrees.__getitem__):
        if degrees[i] == ct.n:
            break  # <g> is trivial: its cosets give the regular action
        images = _cyclic_coset_action(ct, i, ct.n // degrees[i])
        if images is not None:
            return _realize(ct, images, degrees[i])
    return perms_from_table(ct, max_order=max_order)
