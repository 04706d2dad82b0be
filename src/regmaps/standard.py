"""Small standard groups as permutation groups, for tests and for the
reference groups the classifier compares against."""

from __future__ import annotations

from .errors import ContractViolation
from .group import FiniteGroup, closure
from .perm import Perm


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ContractViolation("order must be positive")
    if n == 1:
        return closure(1, [])
    rot = Perm(tuple((i + 1) % n for i in range(n)))
    return closure(n, [rot])


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n acting on n points (n >= 3); for n = 2
    the Klein four-group on 4 points."""
    if n < 2:
        raise ContractViolation("dihedral group needs n >= 2")
    if n == 2:
        a = Perm.from_cycles(((0, 1),), 4)
        b = Perm.from_cycles(((2, 3),), 4)
        return closure(4, [a, b])
    rot = Perm(tuple((i + 1) % n for i in range(n)))
    flip = Perm(tuple((n - i) % n for i in range(n)))
    return closure(n, [rot, flip])


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ContractViolation("degree must be positive")
    if n == 1:
        return closure(1, [])
    swap = Perm.from_cycles(((0, 1),), n)
    if n == 2:
        return closure(2, [swap])
    rot = Perm(tuple((i + 1) % n for i in range(n)))
    return closure(n, [swap, rot])


def alternating_group(n: int) -> FiniteGroup:
    if n < 3:
        raise ContractViolation("alternating group needs n >= 3")
    three = Perm.from_cycles(((0, 1, 2),), n)
    if n == 3:
        return closure(3, [three])
    if n % 2 == 1:
        rot = Perm(tuple((i + 1) % n for i in range(n)))
        return closure(n, [three, rot])
    rot = Perm(tuple(0 if i == 0 else (i % (n - 1)) + 1 for i in range(n)))
    return closure(n, [three, rot])


def quaternion_group() -> FiniteGroup:
    """Q8 as 2x2 matrices over GF(3) acting on the 8 nonzero vectors."""
    from .grammar import matrix_group

    return matrix_group(3, (((0, 2), (1, 0)), ((1, 1), (1, 2))))


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z_p)^k acting regularly on p^k points (points = base-p digit
    strings, generator i adds 1 to digit i)."""
    if k < 1:
        raise ContractViolation("rank must be positive")
    n = p ** k
    gens = []
    for i in range(k):
        step = p ** i
        images = []
        for x in range(n):
            digit = (x // step) % p
            images.append(x + step if digit < p - 1 else x - (p - 1) * step)
        gens.append(Perm(tuple(images)))
    return closure(n, gens)


def klein_four_group() -> FiniteGroup:
    return dihedral_group(2)
