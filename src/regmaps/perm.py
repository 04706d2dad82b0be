"""Permutations of {0, ..., n-1} as immutable image tuples.

Products read left to right: ``(p * q)(x) == q(p(x))``, so a word like
``t*r`` means "apply t, then r".  This matches the convention used for
group words everywhere else in the package.  External notation (cycle
strings in group files) is 1-based; the conversion happens at parse and
print time only.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Sequence

from .errors import ContractViolation


class Perm:
    __slots__ = ("images", "_hash")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not (0 <= v < n) or seen[v]:
                raise ContractViolation(f"not a bijection on 0..{n - 1}: {images!r}")
            seen[v] = True
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _raw(cls, images: tuple) -> "Perm":
        # Internal fast path: caller guarantees images is a bijection tuple.
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Perm":
        """Build a permutation from disjoint 0-based cycles."""
        images = list(range(degree))
        touched = set()
        for cyc in cycles:
            for a in cyc:
                if not (0 <= a < degree):
                    raise ContractViolation(f"cycle point {a} outside 0..{degree - 1}")
                if a in touched:
                    raise ContractViolation(f"point {a} appears in two cycles")
                touched.add(a)
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        return cls._raw(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Perm") -> "Perm":
        if len(self.images) != len(other.images):
            raise ContractViolation("degree mismatch in product")
        return Perm._raw(tuple(map(other.images.__getitem__, self.images)))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return Perm._raw(tuple(inv))

    def __pow__(self, e: int) -> "Perm":
        if e < 0:
            return self.inverse() ** (-e)
        result = Perm.identity(len(self.images))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self, by: "Perm") -> "Perm":
        """self conjugated by `by`: by^-1 * self * by."""
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.images))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        out = []
        seen = [False] * len(self.images)
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1 or include_fixed:
                out.append(tuple(cyc))
        return out

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Perm({cycle_string(self)})"


def cycle_string(p: Perm) -> str:
    """1-based cycle notation, ``()`` for the identity."""
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(a + 1) for a in c) + ")" for c in cycs)
