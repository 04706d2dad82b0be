"""Small standard groups as permutation groups: the reference groups the
classifier and the corpus checks compare against."""

from __future__ import annotations

from .errors import ContractViolation
from .group import FiniteGroup, closure
from .perm import Perm


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
