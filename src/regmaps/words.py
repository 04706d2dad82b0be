"""Free-group words over a named generator list.

A word is a flat, freely reduced tuple of nonzero letters: letter ``g > 0``
means generator ``g - 1``, and ``-g`` its inverse.  Powers, conjugations
``w^v = v^-1 w v`` and commutators ``[a, b] = a^-1 b^-1 a b`` are expanded
eagerly, so downstream consumers (coset enumeration, evaluation in a group)
only ever see plain letter strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ContractViolation

# Hard cap on expanded word length, checked by every product and power;
# generous for any sane presentation.
MAX_WORD_LETTERS = 10**6


def _reduce(letters: Sequence[int]) -> tuple:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Word:
    letters: tuple = ()

    def __post_init__(self):
        for x in self.letters:
            if not isinstance(x, int) or x == 0:
                raise ContractViolation(f"invalid letter {x!r}")
        reduced = _reduce(self.letters)
        if reduced != tuple(self.letters):
            object.__setattr__(self, "letters", reduced)

    @classmethod
    def gen(cls, i: int) -> "Word":
        return cls._reduced((i + 1,))

    @classmethod
    def _reduced(cls, letters: tuple) -> "Word":
        # Internal fast path: caller guarantees letters are valid and
        # freely reduced.
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    def __mul__(self, other: "Word") -> "Word":
        return self.times((other,))

    def times(self, factors: Iterable["Word"]) -> "Word":
        """This word times each of `factors` in turn, in time linear in the
        letters: each factor is cancelled at the seam against one list."""
        out = list(self.letters)
        for w in factors:
            b = w.letters
            if len(out) + len(b) > MAX_WORD_LETTERS:
                raise ContractViolation(
                    f"word longer than {MAX_WORD_LETTERS} letters")
            k = 0  # both are reduced, so letters cancel only at the seam
            while k < len(b) and out and out[-1] == -b[k]:
                out.pop()
                k += 1
            out += b[k:]
        return Word._reduced(tuple(out))

    def inverse(self) -> "Word":
        return Word._reduced(tuple(-x for x in reversed(self.letters)))

    def __pow__(self, e: int) -> "Word":
        if abs(e) * len(self.letters) > MAX_WORD_LETTERS:
            raise ContractViolation("word power exceeds the expansion limit")
        letters = (self if e >= 0 else self.inverse()).letters
        if not e or not letters:
            return Word()
        # w = u v u^-1, v cyclically reduced: w^e = u v^e u^-1 is reduced as
        # it stands and built as one tuple (w is reduced, so u < half of w)
        k = 0
        while letters[k] == -letters[-1 - k]:
            k += 1
        return Word._reduced(letters[:k] + letters[k:len(letters) - k] * abs(e)
                             + letters[len(letters) - k:])

    def conj(self, by: "Word") -> "Word":
        return by.inverse().times((self, by))

    @staticmethod
    def commutator(a: "Word", b: "Word") -> "Word":
        return a.inverse().times((b.inverse(), a, b))

    def is_empty(self) -> bool:
        return not self.letters

    def max_generator(self) -> int:
        """Largest 0-based generator index used, or -1 for the empty word."""
        return max((abs(x) for x in self.letters), default=0) - 1

    def evaluate(self, G, gen_elements: Sequence[int]) -> int:
        """Element index of this word in an enumerated group."""
        out = 0
        for x in self.letters:
            g = gen_elements[abs(x) - 1]
            out = G.mul(out, g if x > 0 else G.inv(g))
        return out


@dataclass(frozen=True)
class Presentation:
    """Generator names plus relators; equalities are already folded in."""

    gen_names: tuple
    relators: tuple

    def __post_init__(self):
        if len(set(self.gen_names)) != len(self.gen_names):
            raise ContractViolation("duplicate generator names")
        ngens = len(self.gen_names)
        for rel in self.relators:
            if rel.is_empty():
                raise ContractViolation("empty relator survived normalization")
            if rel.max_generator() >= ngens:
                raise ContractViolation("relator uses an undeclared generator")

    @property
    def ngens(self) -> int:
        return len(self.gen_names)


def relator_from_equality(lhs: Word, rhs: Word) -> Word:
    return lhs * rhs.inverse()
