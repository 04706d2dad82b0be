"""Small standard groups as permutation groups, built by closure, for the
tests: cyclic, dihedral, elementary abelian, quaternion and the Klein
four-group, and the zoo of small groups whose censuses the tests sweep."""

from regmaps.errors import ContractViolation
from regmaps.group import FiniteGroup, closure
from regmaps.perm import Perm
from regmaps.standard import alternating_group, symmetric_group


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


def quaternion_group() -> FiniteGroup:
    """Q8 acting regularly on 8 points."""
    i = Perm.from_cycles(((0, 1, 3, 6), (2, 5, 7, 4)), 8)
    j = Perm.from_cycles(((0, 2, 3, 7), (1, 4, 6, 5)), 8)
    return closure(8, [i, j])


def census_zoo(corpus: dict) -> list:
    """D3-D20, C2-C16, C2^2, C2^3, A4, S4 and the groups of the realized
    `corpus` of order at most 400."""
    groups = [dihedral_group(n) for n in range(3, 21)]
    groups += [cyclic_group(n) for n in range(2, 17)]
    groups += [klein_four_group(), elementary_abelian(2, 3),
               alternating_group(4), symmetric_group(4)]
    groups += [rz.group for rz in corpus.values() if rz.group.order <= 400]
    return groups
