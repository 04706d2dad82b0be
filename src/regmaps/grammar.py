"""The group-file format: parsing, printing, and realization.

A group file is line oriented, with ``#`` starting a comment.  It opens with
``group <name>``, declares generators in exactly one of three modes
(``gens`` for a presentation, ``perm`` for explicit permutations, ``mat``
for 2x2 matrices over a prime field), and then lists maps whose defining
words are written over the declared generators:

    group example
    gens a, b
    rel a^4
    rel b^2
    rel (a*b)^3
    map m : oriented r=a l=b

Words support ``*`` products, integer powers ``w^3``, conjugation by an
atom ``w^v`` (meaning v^-1 w v) and commutators ``[a, b]``.

A token is lexed when the parser reaches it, so a line is read only up to
its first error, the one reported; a product is reduced on one list as its
factors arrive, so a word parses in time linear in its letters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import lcm
from typing import Optional

from .coset_enum import DEFAULT_MAX_COSETS, presentation_group
from .errors import ContractViolation, ParseError, ResourceLimitExceeded
from .group import (DEFAULT_MAX_ORDER, FiniteGroup, closure, is_prime,
                    order_limit)
from .maps import MAP_TYPES
from .perm import Perm
from .words import Presentation, Word, relator_from_equality


@dataclass(frozen=True)
class MapDecl:
    name: str
    kind: str
    words: tuple  # ((field, Word), ...) in declaration order

    def word(self, field: str) -> Word:
        for f, w in self.words:
            if f == field:
                return w
        raise ContractViolation(f"map {self.name!r} has no field {field!r}")


@dataclass(frozen=True)
class GroupFile:
    name: str
    mode: str  # "gens" | "perm" | "mat"
    gen_names: tuple
    presentation: Optional[Presentation]
    perm_cycles: tuple  # per generator: 0-based cycles, tuples or ranges
    matrices: tuple     # per generator: ((a, b), (c, d))
    modulus: Optional[int]
    maps: tuple


# -- lexer -----------------------------------------------------------------


def _lex_line(line: str, lineno: int):
    """Tokens as (kind, value, column), kind in {ident, int, sym}, lexed
    one at a time as the parser asks for them."""
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == "#":
            return
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] == "_"):
                j += 1
            yield "ident", line[i:j], col
            i = j
        elif "0" <= ch <= "9" or (ch == "-" and "0" <= line[i + 1:i + 2] <= "9"):
            j = i + 1
            while j < n and "0" <= line[j] <= "9":
                j += 1
            try:
                yield "int", int(line[i:j]), col
            except ValueError:  # past the interpreter's digit limit
                raise ParseError("integer literal too long", lineno, col) from None
            i = j
        elif ch in "*^()[],=:":
            yield "sym", ch, col
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", lineno, col)


class _Cursor:
    """The tokens of one line, lexed as the parser peeks at or takes them."""

    def __init__(self, line: str, lineno: int):
        self.toks = _lex_line(line, lineno)
        self.lineno = lineno
        self.tok = None  # the next token, once peeked at
        self.col = 1  # column of the last token taken
        self.depth = 0  # brackets and parentheses open at the cursor

    def peek(self):
        if self.tok is None:
            self.tok = next(self.toks, None)
        return self.tok

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of line", self.lineno, self.col)
        self.tok = None
        self.col = t[2]
        return t

    def expect_sym(self, ch: str):
        t = self.next()
        if t[0] != "sym" or t[1] != ch:
            raise ParseError(f"expected {ch!r}", self.lineno, t[2])
        return t

    def expect_ident(self) -> str:
        t = self.next()
        if t[0] != "ident":
            raise ParseError("expected an identifier", self.lineno, t[2])
        return t[1]

    def accept(self, ch: str) -> bool:
        """Step past the symbol `ch` if it comes next; say whether it did."""
        t = self.peek()
        if t is not None and t[0] == "sym" and t[1] == ch:
            self.next()
            return True
        return False

    def done(self) -> bool:
        return self.peek() is None

    def require_done(self):
        t = self.peek()
        if t is not None:
            raise ParseError(f"unexpected trailing {t[1]!r}", self.lineno, t[2])


# -- word parsing ----------------------------------------------------------

MAX_EXPONENT = 10**6
# Deepest nesting of brackets and parentheses in one word; the parser
# recurses once per level, and lexing stops there too.
MAX_NESTING = 100


def _parse_word(cur: _Cursor, names: dict) -> Word:
    word = _parse_factor(cur, names)
    # a single factor is the word as parsed, not a copy of it
    return word.times(_factors(cur, names)) if cur.accept("*") else word


def _factors(cur: _Cursor, names: dict):
    """The factors after a product's first '*', parsed as they are read."""
    yield _parse_factor(cur, names)
    while cur.accept("*"):
        yield _parse_factor(cur, names)


def _parse_factor(cur: _Cursor, names: dict) -> Word:
    atom = _parse_atom(cur, names)
    if not cur.accept("^"):
        return atom
    t = cur.peek()
    if t is None:  # the '^' ends the line
        raise ParseError("expected an exponent", cur.lineno, cur.col)
    if t[0] == "int":
        cur.next()
        e = t[1]
        if abs(e) > MAX_EXPONENT:
            raise ParseError("exponent overflow", cur.lineno, t[2])
        try:
            return atom ** e
        except ContractViolation:
            raise ParseError("exponent overflow", cur.lineno, t[2]) from None
    return atom.conj(_parse_atom(cur, names))


def _parse_atom(cur: _Cursor, names: dict) -> Word:
    t = cur.next()
    if t[0] == "ident":
        if t[1] not in names:
            raise ParseError(f"unknown identifier {t[1]!r}", cur.lineno, t[2])
        return names[t[1]]
    if t[0] != "sym" or t[1] not in ("(", "["):
        raise ParseError(f"unexpected {t[1]!r} in word", cur.lineno, t[2])
    cur.depth += 1
    if cur.depth > MAX_NESTING:
        raise ParseError(f"brackets nested deeper than {MAX_NESTING}",
                         cur.lineno, t[2])
    if t[1] == "(":
        w = _parse_word(cur, names)
        cur.expect_sym(")")
    else:
        a = _parse_word(cur, names)
        cur.expect_sym(",")
        b = _parse_word(cur, names)
        cur.expect_sym("]")
        w = Word.commutator(a, b)
    cur.depth -= 1
    return w


# -- statement parsing -----------------------------------------------------


def parse_group_file(text: str) -> GroupFile:
    name: Optional[str] = None
    mode: Optional[str] = None
    names: dict = {}  # generator name -> its Word, in declaration order
    relators: list = []
    perm_cycles: list = []
    matrices: list = []
    modulus: Optional[int] = None
    maps: dict = {}  # map name -> MapDecl, in declaration order

    def set_mode(m: str, lineno: int, col: int):
        nonlocal mode
        if mode not in (None, m):
            raise ParseError(
                f"{m!r} declarations cannot be mixed with {mode!r}", lineno, col)
        mode = m

    # registers a generator; `taken` is what a repeat's refusal calls it
    def declare(gname: str, lineno: int, col: int, taken: str):
        if gname in names:
            raise ParseError(f"duplicate {taken} {gname!r}", lineno, col)
        names[gname] = Word.gen(len(names))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.lstrip()[:1] in ("", "#"):  # a blank or comment line
            continue
        cur = _Cursor(raw, lineno)
        kind, head, col = cur.next()
        if kind != "ident":
            raise ParseError("expected a keyword", lineno, col)
        if name is None and head != "group":
            raise ParseError("file must start with a 'group' line", lineno, col)

        if head == "group":
            if name is not None:
                raise ParseError("duplicate 'group' line", lineno, col)
            name = cur.expect_ident()
        elif head == "gens":
            set_mode("gens", lineno, col)
            if names:
                raise ParseError("duplicate 'gens' line", lineno, col)
            while True:
                t = cur.next()
                if t[0] != "ident":
                    raise ParseError("expected a generator name", lineno, t[2])
                declare(t[1], lineno, t[2], "generator")
                if cur.done():
                    break
                cur.expect_sym(",")
        elif head == "rel":
            if mode != "gens":
                raise ParseError("'rel' requires a 'gens' declaration", lineno, col)
            try:
                rel = _parse_word(cur, names)
                if cur.accept("="):
                    rel = relator_from_equality(rel, _parse_word(cur, names))
            except ContractViolation as exc:  # a word past MAX_WORD_LETTERS
                raise ParseError(str(exc), lineno, col) from None
            if not rel.is_empty():
                relators.append(rel)
        elif head == "perm":
            set_mode("perm", lineno, col)
            declare(cur.expect_ident(), lineno, col, "name")
            cur.expect_sym("=")
            cycles = []
            seen: set = set()
            while not cur.done():
                cur.expect_sym("(")
                cyc = []
                while not cur.accept(")"):
                    t = cur.next()
                    if t[0] != "int" or t[1] < 1:
                        raise ParseError("cycle points are positive integers",
                                         lineno, t[2])
                    pt = t[1] - 1
                    if pt in seen:
                        raise ParseError(f"point {t[1]} repeated", lineno, t[2])
                    seen.add(pt)
                    cyc.append(pt)
                if cyc:
                    cycles.append(tuple(cyc))
            perm_cycles.append(tuple(cycles))
        elif head == "mat":
            set_mode("mat", lineno, col)
            declare(cur.expect_ident(), lineno, col, "name")
            entries = []
            for ch in "=[[#,#],[#,#]]":  # '#' is an entry
                if ch == "#":
                    t = cur.next()
                    if t[0] != "int":
                        raise ParseError("expected a matrix entry", lineno, t[2])
                    entries.append(t[1])
                else:
                    cur.expect_sym(ch)
            if cur.expect_ident() != "mod":
                raise ParseError("expected 'mod'", lineno, col)
            t = cur.next()
            try:
                if t[0] != "int" or not is_prime(t[1]):
                    raise ParseError("modulus must be a prime", lineno, t[2])
            except ContractViolation as exc:  # too large to decide
                raise ParseError(str(exc), lineno, t[2]) from None
            if modulus is not None and modulus != t[1]:
                raise ParseError("all matrices must share one modulus", lineno, t[2])
            modulus = t[1]
            matrices.append((tuple(entries[:2]), tuple(entries[2:])))
        elif head == "map":
            if mode is None:
                raise ParseError("maps need a generator declaration first",
                                 lineno, col)
            mapname = cur.expect_ident()
            if mapname in maps:
                raise ParseError(f"duplicate map {mapname!r}", lineno, col)
            cur.expect_sym(":")
            kind, mkind, kcol = cur.next()
            if kind != "ident" or mkind not in MAP_TYPES:
                raise ParseError("expected 'oriented' or 'flagged'", lineno, kcol)
            fields = []
            for fname in MAP_TYPES[mkind].fields:
                t = cur.next()
                if t[0] != "ident" or t[1] != fname:
                    raise ParseError(f"expected {fname}=<word>", lineno, t[2])
                cur.expect_sym("=")
                try:
                    fields.append((fname, _parse_word(cur, names)))
                except ContractViolation as exc:  # as for 'rel'
                    raise ParseError(str(exc), lineno, col) from None
            maps[mapname] = MapDecl(mapname, mkind, tuple(fields))
        else:
            raise ParseError(f"unknown keyword {head!r}", lineno, col)
        cur.require_done()

    if name is None:
        raise ParseError("empty file: missing 'group' line", 1, 1)
    if mode is None:
        raise ParseError("no generator declarations", 1, 1)
    return GroupFile(
        name=name, mode=mode, gen_names=tuple(names),
        presentation=(Presentation(tuple(names), tuple(relators))
                      if mode == "gens" else None),
        perm_cycles=tuple(perm_cycles), matrices=tuple(matrices),
        modulus=modulus, maps=tuple(maps.values()))


# -- canonical printer -----------------------------------------------------


def format_word(w: Word, gen_names) -> str:
    if w.is_empty():
        return f"{gen_names[0]}^0"  # parses back to the empty word
    parts = []
    i = 0
    letters = w.letters
    while i < len(letters):
        x = letters[i]
        j = i
        while j < len(letters) and letters[j] == x:
            j += 1
        e = (j - i) if x > 0 else -(j - i)
        base = gen_names[abs(x) - 1]
        parts.append(base if e == 1 else f"{base}^{e}")
        i = j
    return "*".join(parts)


def format_group_file(gf: GroupFile) -> str:
    """The text of `gf`, joined once from pieces; a cycle is written 64
    points a piece, which the interpreter's own allocator gives back."""
    out = [f"group {gf.name}\n"]
    if gf.mode == "gens":
        out.append("gens " + ", ".join(gf.gen_names) + "\n")
        for rel in gf.presentation.relators:
            out.append("rel " + format_word(rel, gf.gen_names) + "\n")
    elif gf.mode == "perm":
        for gname, cycles in zip(gf.gen_names, gf.perm_cycles):
            out.append(f"perm {gname} = " if cycles else f"perm {gname} = ()")
            for cyc in cycles:
                for i in range(0, len(cyc), 64):
                    out += " " if i else "(", " ".join(
                        map(str, map((1).__add__, cyc[i:i + 64])))
                out.append(")")
            out.append("\n")
    else:
        for gname, rows in zip(gf.gen_names, gf.matrices):
            body = "[[{},{}],[{},{}]]".format(rows[0][0], rows[0][1],
                                              rows[1][0], rows[1][1])
            out.append(f"mat {gname} = {body} mod {gf.modulus}\n")
    for md in gf.maps:
        fields = " ".join(f"{f}={format_word(w, gf.gen_names)}"
                          for f, w in md.words)
        out.append(f"map {md.name} : {md.kind} {fields}\n")
    return "".join(out)


# -- realization -----------------------------------------------------------


def _matrix_order(rows, p: int, limit: int) -> int:
    """The order mod p of the invertible 2x2 matrix `rows`, the least k
    with M^k the identity, or ``limit + 1`` if it is more than `limit`."""
    (a, b), (c, d) = rows
    w, x, y, z = 1, 0, 0, 1  # M^k, row by row
    for k in range(1, limit + 1):
        w, x, y, z = ((w * a + x * c) % p, (w * b + x * d) % p,
                      (y * a + z * c) % p, (y * b + z * d) % p)
        if (w, x, y, z) == (1, 0, 0, 1):
            return k
    return limit + 1


def matrix_group(p: int, matrices, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Group generated by invertible 2x2 matrices over GF(p), acting on the
    p^2 - 1 nonzero column vectors (in lexicographic order).

    `max_order` bounds the number of points as well as the order: an action
    on more than `max_order` points is refused before p is tested for
    primality.
    """
    degree = p * p - 1
    if degree > max_order:
        raise ResourceLimitExceeded(
            f"matrix action on {degree} points exceeds"
            f" max_order={max_order}", "max_order", max_order)
    if not is_prime(p):
        raise ContractViolation(f"{p} is not prime")
    for rows in matrices:
        (a, b), (c, d) = rows
        if (a * d - b * c) % p == 0:
            raise ContractViolation(f"singular matrix {rows!r} mod {p}")
    # a generator of order above `limit` makes closure refuse: refuse as
    # it would, before any image is built
    limit = order_limit(degree, len(matrices), max_order)
    for rows in matrices:
        order_limit(degree, len(matrices), max_order,
                    _matrix_order(rows, p, limit))
    perms = []
    for (a, b), (c, d) in matrices:
        # vector (x, y) is point x*p + y - 1
        images = tuple(((a * x + b * y) % p) * p + (c * x + d * y) % p - 1
                       for x, y in map(divmod, range(1, p * p), repeat(p)))
        perms.append(Perm(images))
    # only the identity fixes the vectors (0, 1) and (1, 0), points 0 and p - 1
    return closure(degree, perms, max_order=max_order, base=(0, p - 1))


@dataclass
class Realization:
    """A group file turned into an enumerated group plus its declared maps."""

    gf: GroupFile
    group: FiniteGroup
    maps: dict


def realize_group_file(gf: GroupFile, max_cosets: int = DEFAULT_MAX_COSETS,
                       max_order: int = DEFAULT_MAX_ORDER) -> Realization:
    """Enumerate the file's group and evaluate its maps in it.

    A presentation is realized on a small faithful coset action
    (:func:`regmaps.coset_enum.presentation_group`), permutations on the
    points their cycles name, matrices on the nonzero vectors.  Generator
    i is element ``group.gen_indices[i]`` in every mode.
    """
    if gf.mode == "gens":
        G = presentation_group(gf.presentation, max_cosets, max_order)
    elif gf.mode == "perm":
        degree = 1
        for cycles in gf.perm_cycles:
            for cyc in cycles:
                degree = max(degree, max(cyc) + 1)
        # refuse as closure would, before any image is built: points too
        # many for even the identity, or a generator's order, the lcm of its
        # cycle lengths, above the limit
        order_limit(degree, len(gf.perm_cycles), max_order,
                    max((lcm(*map(len, cycles)) for cycles in gf.perm_cycles),
                        default=1))
        perms = [Perm.from_cycles(cycles, degree) for cycles in gf.perm_cycles]
        G = closure(degree, perms, max_order=max_order)
    elif gf.mode == "mat":
        G = matrix_group(gf.modulus, gf.matrices, max_order=max_order)
    else:
        raise ContractViolation(f"unknown mode {gf.mode!r}")

    realized_maps = {}
    for md in gf.maps:
        cls = MAP_TYPES[md.kind]
        vals = [md.word(f).evaluate(G, G.gen_indices) for f in cls.fields]
        try:
            realized_maps[md.name] = cls(G, *vals)
        except ContractViolation as exc:
            raise ContractViolation(f"map {md.name!r}: {exc}") from exc
    return Realization(gf, G, realized_maps)


def read_group_text(path) -> str:
    """The text of a group file; a file that cannot be opened or is not
    UTF-8 is a :class:`ContractViolation` naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ContractViolation(f"cannot read {path}: {exc}") from exc
