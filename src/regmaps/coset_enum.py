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

:func:`group_order` skips the regular table where the presentation proves
the group's order, for :func:`presentation_group` and for the CLI's ``tc``
count alike.  A generator g with a power relator g^k acts on the cosets of
<g>, an image of the group whose point stabilizer has order L, the lcm of
g's cycle lengths; L = k makes the action faithful and the order k * index
(Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, ch. 5).
A group on one generator is cyclic, of order n = |G/G'|, which
:func:`group_order` reads off the exponent sums with no table.  Wherever a
table is wanted, in :func:`presentation_group` and ``tc --export-perms``,
it is the n-cycle (0 1 ... n-1), built directly.
Every table, faithful or regular, is closed by :func:`regmaps.group.closure`,
so elements are numbered by the group and its generators alone.

Before any enumeration :func:`admit_presentation`, the presentation-side
twin of :func:`regmaps.group.order_limit`, refuses a presentation whose
relators prove the group infinite, with limit ``max_cosets``, the bound the
enumeration would run into.  It has two certificates:

* The relators split the generators into free factors: a union-find joins
  the generators of each relator, and each class with its relators
  presents a factor of a free product.  A free product of two nontrivial
  groups is infinite (Lyndon and Schupp, *Combinatorial Group Theory*,
  ch. IV), and a factor with a nontrivial abelianization is nontrivial, so
  two such factors refuse.
* G/G' is Z^n modulo the rows of the relators' exponent sums (Holt, Eick
  and O'Brien, ch. 9).  Its free rank, and when that is 0 its order, the
  product of the Smith invariants, are read off an echelon form of those
  rows in Python ints.  A free rank above 0 makes G/G', and so G, infinite.

Given ``max_order`` it also refuses, with that limit, a group with
|G/G'| > max_order, since |G/G'| divides |G|.  Every presentation's
exponent sums are reduced, one free factor at a time; a connected
presentation is one factor.  :func:`group_order` calls the check, and so
:func:`presentation_group` and the CLI's ``tc``, and ``tc --export-perms``
on several generators calls it before its regular table.
:func:`todd_coxeter` does not, since a subgroup of finite index in an
infinite group has a finite table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Sequence

from .errors import ContractViolation, ResourceLimitExceeded
from .group import (DEFAULT_MAX_ORDER, FiniteGroup, closure, order_limit,
                    standard_table)
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
    # The per-coset loop reads these ints, not len(): cap is the rows of
    # every column, the sink's included, and top the cosets defined so far,
    # len(p).  A new coset fills row top, so the table is full at top == cap.
    cap = top = 2

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

    def grow() -> None:
        # the table is full: add a block of undefined rows, or refuse
        nonlocal cap
        if cap > max_cosets:
            raise ResourceLimitExceeded(
                f"coset table exceeded max_cosets={max_cosets}"
                f" ({cap - 1 - dead} live)", "max_cosets", max_cosets)
        block = [0] * min(max(cap >> 3, _BLOCK_MIN), max_cosets + 1 - cap)
        for col in owned:
            col.extend(block)
        cap += len(block)

    def scan_and_fill(alpha: int, fw: list, bw: list, j: int) -> None:
        # fw[i] is the column of the word's i-th symbol, bw[i] of its
        # inverse, and j the word's last index
        nonlocal top
        f, i = alpha, 0
        b = alpha
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
            beta = top  # define f * word[i] as a new coset
            if beta == cap:
                grow()
            p.append(beta)
            top += 1
            fw[i][f] = beta
            bw[i][beta] = f

    def scan(word: list) -> tuple:
        return ([cols[x] for x in word], [cols[x ^ 1] for x in word],
                len(word) - 1)

    scans = [scan(w) for w in relators if len(w) != 2 or w[0] != w[1]]
    for w in subgroup_words:
        scan_and_fill(1, *scan(_to_symbols(w)))
    alpha = 1
    while alpha < top:
        if p[alpha] == alpha:
            for fw, bw, last in scans:
                # a walk that meets an undefined entry ends in the sink, so
                # it ends at alpha iff the relator already holds there
                f = alpha
                for c in fw:
                    f = c[f]
                if f != alpha:
                    scan_and_fill(alpha, fw, bw, last)
                    if p[alpha] != alpha:
                        break
            else:
                for fc, ic in pairs:
                    if not fc[alpha]:
                        beta = top
                        if beta == cap:
                            grow()
                        p.append(beta)
                        top += 1
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


def _cycles(ct: CosetTable, i: int) -> tuple:
    """The order L of generator i on the cosets of `ct`, the lcm of its
    cycle lengths, and coset 0 with the first coset of each cycle whose
    length raises the lcm so far.  On the table over <g>, g = generator i,
    g^j fixes those cosets iff L divides j, since g fixes coset 0: on a
    faithful action they are a base.
    """
    col = ct.cols[2 * i]
    seen = [False] * ct.n
    order, base = 1, []
    for x in range(ct.n):
        if not seen[x]:
            c, y = 0, x
            while not seen[y]:
                seen[y] = True
                c, y = c + 1, col[y]
            if order % c or not base:
                order = lcm(order, c)
                base.append(x)
    return order, tuple(base)


def _check_order(n: int, max_order: int) -> None:
    if n > max_order:
        raise ResourceLimitExceeded(
            f"group order {n} exceeds max_order={max_order}",
            "max_order", max_order)


def _cyclic_cosets(pres: Presentation, i: int, max_cosets: int,
                   tables: dict) -> CosetTable:
    """The table over <g>, g = generator i, enumerated once per `tables`."""
    if i not in tables:
        tables[i] = todd_coxeter(pres, (Word.gen(i),), max_cosets=max_cosets)
    return tables[i]


def _abelian(relators: Sequence[Word],
             gens: Sequence[int]) -> tuple[int, int]:
    """`(r, m)`: the group on the generators `gens`, numbered from 1, with
    `relators` has an abelianization of free rank r, and when r = 0 of
    order m.

    Its rows are the relators' exponent sums, a column a generator.
    Euclid's algorithm down each column in turn, by row operations alone,
    leaves them in echelon form: r counts the columns without a pivot, and
    m, the product of the Smith invariants, is that of the pivots.
    """
    col = {g: j for j, g in enumerate(gens)}
    n = len(col)
    rows = []
    for rel in relators:
        letters = rel.letters
        row = [0] * n
        for x in set(letters):
            if x > 0:
                row[col[x]] += letters.count(x)
            else:
                row[col[-x]] -= letters.count(x)
        if any(row):
            rows.append(row)
    free, order = 0, 1
    for j in range(n):
        live = [row for row in rows if row[j]]
        while len(live) > 1:
            pivot = min(live, key=lambda row: abs(row[j]))
            for row in live:
                if row is not pivot:
                    q = row[j] // pivot[j]
                    for i in range(j, n):
                        row[i] -= q * pivot[i]
            live = [row for row in live if row[j]]
        if live:
            order *= abs(live[0][j])
            rows.remove(live[0])
        else:
            free += 1
    return free, order


def admit_presentation(pres: Presentation,
                       max_cosets: int = DEFAULT_MAX_COSETS,
                       max_order: int | None = None) -> dict:
    """Refuse a presentation whose relators prove its group infinite, or,
    given `max_order`, larger than that; else return the least k of each
    generator i's power relator g^k, as ``{i: k}``.

    The certificates are the module docstring's.  An infinite group is
    refused with limit `max_cosets`, the bound it would have run into.
    """
    powers: dict = {}
    # factor[i] is the set of generators joined to generator i (1-based),
    # one set object per factor
    factor = [{i} for i in range(pres.ngens + 1)]
    for r in pres.relators:
        letters = r.letters
        gens = set(map(abs, letters))
        if len(gens) == 1:  # a reduced word on one generator is a power
            g = abs(letters[0]) - 1
            powers[g] = min(len(letters), powers.get(g, len(letters)))
            continue
        joined = factor[gens.pop()]
        for i in gens:
            if (other := factor[i]) is not joined:
                joined |= other
                for h in other:
                    factor[h] = joined
    # G is the free product of the factors' groups, and G/G' the direct
    # product of their abelianizations; a connected presentation is one
    # factor
    factors = {id(f): (sorted(f), []) for f in factor[1:]}
    for r in pres.relators:
        factors[id(factor[abs(r.letters[0])])][1].append(r)
    free, order, nontrivial = 0, 1, []
    for gens, rels in factors.values():
        r, m = _abelian(rels, gens)
        free, order = free + r, order * m
        if r or m > 1:
            nontrivial.append(gens)
    if len(nontrivial) > 1:
        a, b = (", ".join(pres.gen_names[i - 1] for i in gens)
                for gens in nontrivial[:2])
        raise ResourceLimitExceeded(
            f"presentation of an infinite group: free factors <{a}> and"
            f" <{b}> both have a nontrivial abelianization",
            "max_cosets", max_cosets)
    if free:
        raise ResourceLimitExceeded(
            f"presentation of an infinite group: its abelianization has free"
            f" rank {free}", "max_cosets", max_cosets)
    if max_order is not None and order > max_order:
        raise ResourceLimitExceeded(
            f"group order is a multiple of {order}, the order of its"
            f" abelianization, and exceeds max_order={max_order}",
            "max_order", max_order)
    return powers


def group_order(pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS,
                tables: dict | None = None,
                max_order: int | None = None
                ) -> tuple[CosetTable | None, int]:
    """The group's order n, with the table that proves it: `(table, n)`.

    On one generator the group is cyclic and n is |G/G'|, read off the
    exponent sums with no table, so the table is None and `max_cosets`
    does not bound n.  Otherwise the generators g with a relator g^k, k
    least, are tried by decreasing k, ties by position: g acts on the
    cosets of <g> with order L, so L = k certifies n = k * index, and the
    table over the first such <g> is returned.  Without a certificate the
    table is the regular one and n its size.  Each enumeration is bounded
    by `max_cosets`, and its refusal is the run's.
    The tables over the cyclic subgroups are kept in `tables`, by
    generator index, for a caller that goes on to use them.  First,
    :func:`admit_presentation` refuses a group its relators prove
    infinite, or with `max_order`, larger than that.
    """
    powers = admit_presentation(pres, max_cosets, max_order)
    if pres.ngens == 1:
        return None, _abelian(pres.relators, (1,))[1]
    tables = {} if tables is None else tables
    for i in sorted(powers, key=lambda i: (-powers[i], i)):
        ct = _cyclic_cosets(pres, i, max_cosets, tables)
        if _cycles(ct, i)[0] == powers[i]:
            return ct, powers[i] * ct.n
    regular = todd_coxeter(pres, (), max_cosets=max_cosets)
    return regular, regular.n


def presentation_group(pres: Presentation,
                       max_cosets: int = DEFAULT_MAX_COSETS,
                       max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """The group a presentation defines, on a small faithful coset action.

    The order n comes from :func:`group_order`, whose tables over cyclic
    subgroups are reused here, so no table is enumerated twice, and whose
    admission check is given `max_order`.  Each
    enumeration is bounded by `max_cosets`, and its refusal is the run's.
    On one generator the table is the n-cycle, put to
    :func:`regmaps.group.order_limit` before it is built.
    With n known, the generators are tried by increasing n / m, m the
    order of g, ties by position: core(<g>) lies in <g>, so the action on
    the cosets of <g> is faithful iff g acts there with order m.  The first
    faithful one is closed on the base :func:`_cycles` reads off it; with
    none, the regular table is, on the base (0,).  Either is first put to
    :func:`regmaps.group.order_limit`, which refuses a group past the cell
    bound at once; the regular table, had it been enumerated, would find
    the same first faithful <g> and give the same refusal.
    """
    tables: dict = {}
    ct, n = group_order(pres, max_cosets, tables, max_order)
    _check_order(n, max_order)
    if ct is None:  # one generator: the regular table is the n-cycle
        order_limit(n, 1, max_order, n)
        return closure(n, [Perm([*range(1, n), 0])], max_order=n, base=(0,))
    orders = [_cycles(ct, i)[0] for i in range(pres.ngens)]
    base = (0,)  # a regular table's, if no <g> below is faithful
    # sorted() is stable, so ties keep generator order
    for i in sorted(range(pres.ngens), key=lambda i: -orders[i]):
        if orders[i] == 1:
            break  # <g> is trivial: its cosets give the regular action
        if orders[i] == n:
            continue  # <g> is G, on one coset: not faithful, as n > 1
        cyclic = _cyclic_cosets(pres, i, max_cosets, tables)
        m, cyclic_base = _cycles(cyclic, i)
        if m == orders[i]:
            ct, base = cyclic, cyclic_base
            break
    order_limit(ct.n, pres.ngens, max_order, n)
    return closure(ct.n, ct.gen_perms(), max_order=n, base=base)
