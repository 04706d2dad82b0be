"""Coset enumeration over a finite presentation (HLT strategy).

Cosets are numbered from 0, with coset 0 the subgroup itself.  New cosets
are created strictly in definition order while relators are traced, which
makes the whole run deterministic.  Coincidences are merged through a
union-find representative array; the surviving table is compacted and then
standardized (:func:`regmaps.group.standard_table`): a breadth-first
renumbering from coset 0.

Symbols interleave generators and inverses: generator i is symbol 2i and
its inverse is 2i + 1, so ``x ^ 1`` flips a symbol.

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
    """A completed enumeration: `n` cosets, one row of 2*ngens entries each."""

    ngens: int
    n: int
    rows: list

    def gen_perms(self) -> list[Perm]:
        return [Perm(tuple(row[2 * i] for row in self.rows))
                for i in range(self.ngens)]


def todd_coxeter(pres: Presentation, subgroup_words: Sequence[Word] = (),
                 max_cosets: int = DEFAULT_MAX_COSETS) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_words`.

    With no subgroup words this enumerates the whole group.  Raises a
    resource error naming `max_cosets` if the table grows past the limit
    (which is also what a presentation of an infinite group runs into).
    """
    ngens = pres.ngens
    if ngens == 0:
        return CosetTable(0, 1, [[]])
    nsym = 2 * ngens
    table: list[list] = [[None] * nsym]
    p = [0]

    def rep(k: int) -> int:
        root = k
        while p[root] != root:
            root = p[root]
        while p[k] != root:
            p[k], k = root, p[k]
        return root

    def define(alpha: int, x: int) -> int:
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

    def merge(a: int, b: int, queue: list) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            lo, hi = (a, b) if a < b else (b, a)
            p[hi] = lo
            queue.append(hi)

    def coincidence(alpha: int, beta: int) -> None:
        queue: list = []
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

    def scan_and_fill(alpha: int, word: list) -> None:
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

    relators = [_to_symbols(r) for r in pres.relators]
    for w in subgroup_words:
        scan_and_fill(0, _to_symbols(w))
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

    # Compact to live cosets, then standardize: renumber in BFS order from
    # coset 0, so the final table does not depend on the history of dead
    # definitions.
    live = [k for k in range(len(table)) if p[k] == k]
    squash = {k: i for i, k in enumerate(live)}
    cols = [[squash[rep(table[k][x])] for k in live] for x in range(nsym)]
    std = standard_table(cols, len(live))
    if std is None:
        raise ContractViolation("coset table is not connected")
    flat = std[0]
    final = [list(flat[c:c + nsym]) for c in range(0, len(flat), nsym)]
    return CosetTable(ngens, len(final), final)


def perms_from_table(ct: CosetTable, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """The permutation group the table induces on its cosets.

    For an enumeration over the trivial subgroup this is the regular
    representation, so the group order equals the coset count.
    :func:`presentation_group` falls back to it when no smaller action of
    the presentation is faithful.
    """
    if ct.ngens == 0:
        return closure(1, [], max_order=max_order)
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
    for i in range(ct.ngens):
        m, x = 1, ct.rows[0][2 * i]
        while x != 0:
            m, x = m + 1, ct.rows[x][2 * i]
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
