import pytest
from hypothesis import given
from hypothesis import strategies as st

from regmaps.errors import ContractViolation
from regmaps.grammar import GroupFile, format_group_file
from regmaps.group import closure
from regmaps.perm import Perm

from oracles import compose, tuple_order

perms = st.integers(3, 8).flatmap(
    lambda n: st.permutations(list(range(n))).map(Perm))
# two permutations of one degree, few enough points to close <p, q>
pairs = st.integers(3, 5).flatmap(
    lambda n: st.tuples(*[st.permutations(list(range(n))).map(Perm)] * 2))

# A Perm carries no arithmetic: the laws of products below are checked on
# the elements that closure builds from Perm generators.


def _cyclic(p):
    """The group <p> and the index of p in it."""
    G = closure(p.degree, [p])
    return G, G.gen_indices[0]


def test_composition_reads_left_to_right():
    p = Perm.from_cycles([(0, 1)], 3)
    q = Perm.from_cycles([(1, 2)], 3)
    G = closure(3, [p, q])
    a, b = G.gen_indices
    # apply p first: 0 -> 1, then q: 1 -> 2
    assert G.elements[G.mul(a, b)][0] == 2
    assert G.elements[G.mul(b, a)][0] == 1


def _cycle_text(p):
    """p's 1-based cycle notation, as a group file prints it."""
    gf = GroupFile(name="t", mode="perm", gen_names=("a",), presentation=None,
                   perm_cycles=(tuple(p.cycles()),), matrices=(),
                   modulus=None, maps=())
    head, text = "group t\nperm a = ", format_group_file(gf)
    assert text.startswith(head) and text.endswith(")\n")
    return text[len(head):-1]


def test_from_cycles_and_back():
    p = Perm.from_cycles([(0, 2, 4), (1, 3)], 6)
    assert p.cycles() == [(0, 2, 4), (1, 3)]
    assert p.images == (2, 3, 4, 1, 0, 5)
    assert _cycle_text(p) == "(1 3 5)(2 4)"
    assert _cycle_text(Perm(range(4))) == "()"


def test_from_cycles_rejects_repeats_and_range():
    with pytest.raises(ContractViolation):
        Perm.from_cycles([(0, 1), (1, 2)], 4)
    with pytest.raises(ContractViolation):
        Perm.from_cycles([(0, 9)], 4)


def test_not_a_bijection():
    with pytest.raises(ContractViolation):
        Perm((0, 0, 1))


def test_pow_negative_is_inverse_power():
    G, i = _cyclic(Perm.from_cycles([(0, 1, 2, 3)], 4))
    assert G.power(i, -1) == G.inv(i)
    assert G.power(i, -3) == G.inv(G.power(i, 3))
    assert G.power(i, 4) == 0


@given(perms)
def test_inverse_law(p):
    G, i = _cyclic(p)
    assert G.mul(i, G.inv(i)) == 0
    assert G.inv(G.inv(i)) == i


@given(pairs)
def test_product_matches_oracle(pq):
    p, q = pq
    G = closure(p.degree, [p, q])
    a, b = G.gen_indices
    ab = G.mul(a, b)
    assert tuple(G.elements[ab]) == compose(p.images, q.images)
    assert G.inv(ab) == G.mul(G.inv(b), G.inv(a))


@given(perms)
def test_order_matches_oracle(p):
    G, i = _cyclic(p)
    assert G.order_of(i) == tuple_order(p.images)
    assert G.power(i, G.order_of(i)) == 0
