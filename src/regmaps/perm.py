"""Permutations of {0, ..., n-1}: the validated input type of the kernel.

A :class:`Perm` wraps an image tuple that has been checked to be a
bijection.  Generators reach :func:`regmaps.group.closure` as Perms; the
group then stores and multiplies bare images, as ``bytes`` on at most 256
points and as tuples above (:func:`regmaps.group.element_arithmetic`), so
products live in :mod:`regmaps.group`, not here.  ``Perm.images`` is a
tuple whatever the degree.  External notation (cycle strings in group
files) is 1-based; the conversion happens at parse and print time only.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ContractViolation


class Perm:
    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        n = len(images)
        seen = [False] * n
        for v in images:
            if not (0 <= v < n) or seen[v]:
                raise ContractViolation(f"not a bijection on 0..{n - 1}: {images!r}")
            seen[v] = True
        self.images = images

    @classmethod
    def _raw(cls, images: tuple) -> "Perm":
        # Internal fast path: caller guarantees images is a bijection tuple.
        p = object.__new__(cls)
        p.images = images
        return p

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

    def cycles(self) -> list[tuple[int, ...]]:
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
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out
