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
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

from .coset_enum import DEFAULT_MAX_COSETS, presentation_group
from .errors import ContractViolation, ParseError, ResourceLimitExceeded
from .group import (DEFAULT_MAX_ORDER, MAX_CLOSURE_CELLS, FiniteGroup,
                    closure, is_prime)
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
    perm_cycles: tuple  # per generator: tuple of 0-based cycles
    matrices: tuple     # per generator: ((a, b), (c, d))
    modulus: Optional[int]
    maps: tuple


# -- lexer -----------------------------------------------------------------


def _lex_line(line: str, lineno: int) -> list:
    """Tokens as (kind, value, column); kind in {ident, int, sym}."""
    toks = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] == "_"):
                j += 1
            toks.append(("ident", line[i:j], col))
            i = j
        elif "0" <= ch <= "9" or (ch == "-" and "0" <= line[i + 1:i + 2] <= "9"):
            j = i + 1
            while j < n and "0" <= line[j] <= "9":
                j += 1
            try:
                toks.append(("int", int(line[i:j]), col))
            except ValueError:  # past the interpreter's digit limit
                raise ParseError("integer literal too long", lineno, col) from None
            i = j
        elif ch in "*^()[],=:":
            toks.append(("sym", ch, col))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", lineno, col)
    return toks


class _Cursor:
    def __init__(self, toks: list, lineno: int):
        self.toks = toks
        self.lineno = lineno
        self.pos = 0
        self.depth = 0  # brackets and parentheses open at the cursor

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of line", self.lineno,
                             (self.toks[-1][2] if self.toks else 1))
        self.pos += 1
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

    def done(self) -> bool:
        return self.pos >= len(self.toks)

    def require_done(self):
        t = self.peek()
        if t is not None:
            raise ParseError(f"unexpected trailing {t[1]!r}", self.lineno, t[2])


# -- word parsing ----------------------------------------------------------

MAX_EXPONENT = 10**6
# Deepest nesting of brackets and parentheses in one word; the parser
# recurses once per level.
MAX_NESTING = 100


def _parse_word(cur: _Cursor, names: dict) -> Word:
    word = _parse_factor(cur, names)
    while True:
        t = cur.peek()
        if t is not None and t[0] == "sym" and t[1] == "*":
            cur.next()
            word = word * _parse_factor(cur, names)
        else:
            return word


def _parse_factor(cur: _Cursor, names: dict) -> Word:
    atom = _parse_atom(cur, names)
    t = cur.peek()
    if t is not None and t[0] == "sym" and t[1] == "^":
        cur.next()
    else:
        return atom
    t = cur.peek()
    if t is None:
        raise ParseError("expected an exponent", cur.lineno, 1)
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
        return Word.gen(names[t[1]])
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


@contextmanager
def _word_length_checked(lineno: int, col: int):
    """Report a word that outgrows ``MAX_WORD_LETTERS`` (raised by a product
    in :class:`Word`) as a parse error of the statement."""
    try:
        yield
    except ContractViolation as exc:
        raise ParseError(str(exc), lineno, col) from None


# -- statement parsing -----------------------------------------------------


def parse_group_file(text: str) -> GroupFile:
    name: Optional[str] = None
    mode: Optional[str] = None
    gen_names: list = []
    names: dict = {}
    relators: list = []
    perm_cycles: list = []
    matrices: list = []
    modulus: Optional[int] = None
    maps: list = []
    map_names: set = set()

    def set_mode(m: str, lineno: int, col: int):
        nonlocal mode
        if mode is None:
            mode = m
        elif mode != m:
            raise ParseError(
                f"{m!r} declarations cannot be mixed with {mode!r}", lineno, col)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _lex_line(raw, lineno)
        if not toks:
            continue
        cur = _Cursor(toks, lineno)
        kind, head, col = cur.next()
        if kind != "ident":
            raise ParseError("expected a keyword", lineno, col)
        if name is None and head != "group":
            raise ParseError("file must start with a 'group' line", lineno, col)

        if head == "group":
            if name is not None:
                raise ParseError("duplicate 'group' line", lineno, col)
            name = cur.expect_ident()
            cur.require_done()
        elif head == "gens":
            set_mode("gens", lineno, col)
            if gen_names:
                raise ParseError("duplicate 'gens' line", lineno, col)
            while True:
                t = cur.next()
                if t[0] != "ident":
                    raise ParseError("expected a generator name", lineno, t[2])
                if t[1] in names:
                    raise ParseError(f"duplicate generator {t[1]!r}", lineno, t[2])
                names[t[1]] = len(gen_names)
                gen_names.append(t[1])
                if cur.done():
                    break
                cur.expect_sym(",")
        elif head == "rel":
            if mode != "gens":
                raise ParseError("'rel' requires a 'gens' declaration", lineno, col)
            with _word_length_checked(lineno, col):
                lhs = _parse_word(cur, names)
                t = cur.peek()
                if t is not None and t[0] == "sym" and t[1] == "=":
                    cur.next()
                    rhs = _parse_word(cur, names)
                    rel = relator_from_equality(lhs, rhs)
                else:
                    rel = lhs
            cur.require_done()
            if not rel.is_empty():
                relators.append(rel)
        elif head == "perm":
            set_mode("perm", lineno, col)
            pname = cur.expect_ident()
            if pname in names:
                raise ParseError(f"duplicate name {pname!r}", lineno, col)
            cur.expect_sym("=")
            cycles = []
            seen: set = set()
            while not cur.done():
                cur.expect_sym("(")
                cyc = []
                while True:
                    t = cur.next()
                    if t[0] == "sym" and t[1] == ")":
                        break
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
            names[pname] = len(gen_names)
            gen_names.append(pname)
            perm_cycles.append(tuple(cycles))
        elif head == "mat":
            set_mode("mat", lineno, col)
            mname = cur.expect_ident()
            if mname in names:
                raise ParseError(f"duplicate name {mname!r}", lineno, col)
            cur.expect_sym("=")
            rows = []
            cur.expect_sym("[")
            for ri in range(2):
                cur.expect_sym("[")
                entries = []
                for ci in range(2):
                    t = cur.next()
                    if t[0] != "int":
                        raise ParseError("expected a matrix entry", lineno, t[2])
                    entries.append(t[1])
                    if ci == 0:
                        cur.expect_sym(",")
                cur.expect_sym("]")
                if ri == 0:
                    cur.expect_sym(",")
                rows.append(tuple(entries))
            cur.expect_sym("]")
            kw = cur.expect_ident()
            if kw != "mod":
                raise ParseError("expected 'mod'", lineno, col)
            t = cur.next()
            if t[0] != "int" or not is_prime(t[1]):
                raise ParseError("modulus must be a prime", lineno, t[2])
            if modulus is not None and modulus != t[1]:
                raise ParseError("all matrices must share one modulus", lineno, t[2])
            modulus = t[1]
            cur.require_done()
            names[mname] = len(gen_names)
            gen_names.append(mname)
            matrices.append(tuple(rows))
        elif head == "map":
            if mode is None:
                raise ParseError("maps need a generator declaration first",
                                 lineno, col)
            mapname = cur.expect_ident()
            if mapname in map_names:
                raise ParseError(f"duplicate map {mapname!r}", lineno, col)
            map_names.add(mapname)
            cur.expect_sym(":")
            t = cur.next()
            if t[0] != "ident" or t[1] not in MAP_TYPES:
                raise ParseError("expected 'oriented' or 'flagged'", lineno, t[2])
            mkind = t[1]
            fields = []
            for fname in MAP_TYPES[mkind].fields:
                t = cur.next()
                if t[0] != "ident" or t[1] != fname:
                    raise ParseError(f"expected {fname}=<word>", lineno, t[2])
                cur.expect_sym("=")
                with _word_length_checked(lineno, col):
                    fields.append((fname, _parse_word(cur, names)))
            cur.require_done()
            maps.append(MapDecl(mapname, mkind, tuple(fields)))
        else:
            raise ParseError(f"unknown keyword {head!r}", lineno, col)

    if name is None:
        raise ParseError("empty file: missing 'group' line", 1, 1)
    if mode is None:
        raise ParseError("no generator declarations", 1, 1)
    return GroupFile(
        name=name, mode=mode, gen_names=tuple(gen_names),
        presentation=(Presentation(tuple(gen_names), tuple(relators))
                      if mode == "gens" else None),
        perm_cycles=tuple(perm_cycles), matrices=tuple(matrices),
        modulus=modulus, maps=tuple(maps))


# -- canonical printer -----------------------------------------------------


def format_word(w: Word, gen_names) -> str:
    if w.is_empty():
        raise ContractViolation("cannot print the empty word")
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
    out = [f"group {gf.name}"]
    if gf.mode == "gens":
        out.append("gens " + ", ".join(gf.gen_names))
        for rel in gf.presentation.relators:
            out.append("rel " + format_word(rel, gf.gen_names))
    elif gf.mode == "perm":
        for gname, cycles in zip(gf.gen_names, gf.perm_cycles):
            body = "".join("(" + " ".join(str(p + 1) for p in cyc) + ")"
                           for cyc in cycles) or "()"
            out.append(f"perm {gname} = {body}")
    else:
        for gname, rows in zip(gf.gen_names, gf.matrices):
            body = "[[{},{}],[{},{}]]".format(rows[0][0], rows[0][1],
                                              rows[1][0], rows[1][1])
            out.append(f"mat {gname} = {body} mod {gf.modulus}")
    for md in gf.maps:
        fields = " ".join(f"{f}={format_word(w, gf.gen_names)}"
                          for f, w in md.words)
        out.append(f"map {md.name} : {md.kind} {fields}")
    return "\n".join(out) + "\n"


# -- realization -----------------------------------------------------------


def matrix_group(p: int, matrices, max_order: int = DEFAULT_MAX_ORDER) -> FiniteGroup:
    """Group generated by invertible 2x2 matrices over GF(p), acting on the
    p^2 - 1 nonzero column vectors (in lexicographic order).

    `max_order` bounds the number of points as well as the order: an action
    on more than `max_order` points is refused before p is tested for
    primality or any vector is listed.
    """
    if p * p - 1 > max_order:
        raise ResourceLimitExceeded(
            f"matrix action on {p * p - 1} points exceeds"
            f" max_order={max_order}", "max_order", max_order)
    if not is_prime(p):
        raise ContractViolation(f"{p} is not prime")
    vecs = [(x, y) for x in range(p) for y in range(p)][1:]
    vindex = {v: i for i, v in enumerate(vecs)}
    perms = []
    for rows in matrices:
        (a, b), (c, d) = rows
        if (a * d - b * c) % p == 0:
            raise ContractViolation(f"singular matrix {rows!r} mod {p}")
        images = tuple(vindex[((a * x + b * y) % p, (c * x + d * y) % p)]
                       for x, y in vecs)
        perms.append(Perm(images))
    return closure(p * p - 1, perms, max_order=max_order)


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
        if degree > MAX_CLOSURE_CELLS:  # not even the identity would fit
            raise ResourceLimitExceeded(
                f"perm degree {degree} exceeds max_cells={MAX_CLOSURE_CELLS}",
                "max_cells", MAX_CLOSURE_CELLS)
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


def load_group_file(path) -> GroupFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_file(fh.read())
