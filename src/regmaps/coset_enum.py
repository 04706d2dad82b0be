"""Coset enumeration over a finite presentation (HLT strategy).

Cosets are numbered from 0, with coset 0 the subgroup itself.  New cosets
are created strictly in definition order while relators are traced, which
makes the whole run deterministic.  Coincidences are merged through a
union-find representative array; the surviving table is compacted and then
standardized (:func:`regmaps.group.standard_table`): a breadth-first
renumbering from coset 0.

Symbols interleave generators and inverses: generator i is symbol 2i and
its inverse is 2i + 1, so ``x ^ 1`` flips a symbol.  The table is one list
per symbol, indexed by coset, and each relator is turned once into the
lists of its letters' columns and of their inverses' columns, so tracing a
letter is one subscript.  A relator ``x^2`` or ``x^-2`` gives x and x^-1 one
shared column, which holds that relator by itself, so it is not traced.

:func:`presentation_group` realizes a presentation as a permutation group:
on the cosets of the cyclic subgroup of one generator, the smallest such
action that is faithful, else on the cosets of the trivial subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ContractViolation, ResourceLimitExceeded
from .group import DEFAULT_MAX_ORDER, FiniteGroup, closure, standard_table
from .perm import Perm
from .words import Presentation, Word

DEFAULT_MAX_COSETS = 200_000


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
    cols = [[None] for _ in range(nsym)]
    for i in invol:
        cols[2 * i + 1] = cols[2 * i]
    # (column, inverse column) of each symbol with a column of its own
    pairs = [(cols[x], cols[x ^ 1]) for x in range(nsym)
             if x % 2 == 0 or cols[x] is not cols[x ^ 1]]
    owned = [fc for fc, _ in pairs]
    p = [0]

    def rep(k: int) -> int:
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def merge(a: int, b: int, queue: list) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            p[hi] = lo
            queue.append(hi)

    def coincidence(alpha: int, beta: int) -> None:
        queue: list = []
        merge(alpha, beta, queue)
        for gamma in queue:
            for fc, ic in pairs:
                if (delta := fc[gamma]) is None:
                    continue
                ic[delta] = None
                mu, nu = rep(gamma), rep(delta)
                if fc[mu] is not None:
                    merge(nu, fc[mu], queue)
                elif ic[nu] is not None:
                    merge(mu, ic[nu], queue)
                else:
                    fc[mu] = nu
                    ic[nu] = mu

    def refusal() -> ResourceLimitExceeded:
        live = sum(k == r for k, r in enumerate(p))
        return ResourceLimitExceeded(
            f"coset table exceeded max_cosets={max_cosets} ({live} live)",
            "max_cosets", max_cosets)

    def scan_and_fill(alpha: int, fw: list, bw: list) -> None:
        # fw[i] is the column of the word's i-th symbol, bw[i] of its inverse
        f, i = alpha, 0
        b, j = alpha, len(fw) - 1
        while True:
            while i <= j and (g := fw[i][f]) is not None:
                f, i = g, i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and (g := bw[j][b]) is not None:
                b, j = g, j - 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                fw[i][f] = b
                bw[i][b] = f
                return
            beta = len(p)  # define f * word[i] as a new coset
            if beta == max_cosets:
                raise refusal()
            p.append(beta)
            for col in owned:
                col.append(None)
            fw[i][f] = beta
            bw[i][beta] = f

    def scan(word: list) -> tuple:
        return [cols[x] for x in word], [cols[x ^ 1] for x in word]

    scans = [scan(w) for w in relators if len(w) != 2 or w[0] != w[1]]
    for w in subgroup_words:
        scan_and_fill(0, *scan(_to_symbols(w)))
    alpha = 0
    while alpha < len(p):
        if p[alpha] == alpha:
            for fw, bw in scans:
                scan_and_fill(alpha, fw, bw)
                if p[alpha] != alpha:
                    break
            else:
                for fc, ic in pairs:
                    if fc[alpha] is None:
                        beta = len(p)
                        if beta == max_cosets:
                            raise refusal()
                        p.append(beta)
                        for col in owned:
                            col.append(None)
                        fc[alpha] = beta
                        ic[beta] = alpha
        alpha += 1

    # Compact to live cosets, then standardize, so the final table does not
    # depend on the history of dead definitions.
    live = [k for k, r in enumerate(p) if k == r]
    squash = {k: i for i, k in enumerate(live)}
    squashed = [[squash[rep(col[k])] for k in live] for col in cols]
    flat = standard_table(squashed, len(live))
    if flat is None:
        raise ContractViolation("coset table is not connected")
    return CosetTable(ngens, len(live), [flat[x::nsym] for x in range(nsym)])


def perms_from_table(ct: CosetTable, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """The permutation group the table induces on its cosets.

    For an enumeration over the trivial subgroup this is the regular
    representation, so the group order equals the coset count.
    :func:`presentation_group` falls back to it when no smaller action of
    the presentation is faithful.
    """
    return closure(ct.n, ct.gen_perms(), max_order=max_order)


def presentation_group(pres: Presentation,
                       max_cosets: int = DEFAULT_MAX_COSETS,
                       max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """The group a presentation defines, on a small faithful coset action.

    The enumeration over the trivial subgroup fixes the order n, and it is
    the run that `max_cosets` bounds.  A generator g of order m (the length
    of its cycle through coset 0 of that table) offers the action on the
    n / m cosets of <g>.  The generators are tried by increasing n / m, ties
    by position, and the first action whose closure has order n is faithful
    and gives the group; when none is, it is the regular representation
    (:func:`perms_from_table`).  Closure numbers elements by the group and
    the order of its generators alone, so every faithful action gives the
    same element indices and the same generator table.
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
    return perms_from_table(ct, max_order=max_order)
