import pytest
from hypothesis import given
from hypothesis import strategies as st

from regmaps.errors import ContractViolation
from regmaps.standard import symmetric_group
from regmaps.words import (MAX_WORD_LETTERS, Presentation, Word,
                           relator_from_equality)

letters = st.integers(-3, 3).filter(lambda x: x != 0)
words = st.lists(letters, max_size=12).map(lambda ls: Word(tuple(ls)))


def test_free_reduction():
    assert Word((1, -1)).is_empty()
    assert Word((1, 2, -2, -1, 3)).letters == (3,)
    assert Word((1, 2, -2, 1)).letters == (1, 1)


def test_gen_and_building_blocks():
    a, b = Word.gen(0), Word.gen(1)
    assert (a * b).letters == (1, 2)
    assert a.inverse().letters == (-1,)
    assert (a ** 3).letters == (1, 1, 1)
    assert (a ** -2).letters == (-1, -1)
    assert a.conj(b).letters == (-2, 1, 2)
    assert Word.commutator(a, b).letters == (-1, -2, 1, 2)


def test_rejects_zero_letter():
    with pytest.raises(ContractViolation):
        Word((1, 0))


def test_power_expansion_limit():
    a = Word.gen(0)
    with pytest.raises(ContractViolation):
        a ** (MAX_WORD_LETTERS + 1)


def test_relator_from_equality():
    a, b = Word.gen(0), Word.gen(1)
    assert relator_from_equality(a * b, b).letters == (1, 2, -2) or \
        relator_from_equality(a * b, b).letters == (1,)
    assert relator_from_equality(a, a).is_empty()


def test_presentation_validation():
    a = Word.gen(0)
    with pytest.raises(ContractViolation):
        Presentation(("x", "x"), (a ** 2,))
    with pytest.raises(ContractViolation):
        Presentation(("x",), (Word.gen(1),))
    with pytest.raises(ContractViolation):
        Presentation(("x",), (Word(()),))
    pres = Presentation(("x", "y"), (a ** 2,))
    assert pres.ngens == 2


def test_evaluate_in_group():
    G = symmetric_group(4)
    a, b = G.gen_indices
    w = Word.commutator(Word.gen(0), Word.gen(1))
    assert w.evaluate(G, [a, b]) == G.comm(a, b)
    assert (Word.gen(0) ** G.order_of(a)).evaluate(G, [a, b]) == 0


@given(words, words)
def test_product_reduces_to_concatenation(u, v):
    w = u * v
    assert w == Word(u.letters + v.letters)
    # reduction only cancels at the seam
    assert len(w.letters) >= abs(len(u.letters) - len(v.letters))
    assert (u * u.inverse()).is_empty()


@given(words)
def test_inverse_involution(w):
    assert w.inverse().inverse() == w
    assert (w * w.inverse()).is_empty()


@given(words, st.integers(-5, 5))
def test_power_evaluates_consistently(w, e):
    G = symmetric_group(4)
    gens = [G.gen_indices[0], G.gen_indices[1], G.mul(*G.gen_indices)]
    val = w.evaluate(G, gens)
    assert (w ** e).evaluate(G, gens) == G.power(val, e)


@given(words, st.integers(-5, 5))
def test_power_is_the_reduced_repetition(w, e):
    base = w if e >= 0 else w.inverse()
    assert w ** e == Word(base.letters * abs(e))


def test_product_expansion_limit():
    half = Word.gen(0) ** (MAX_WORD_LETTERS // 2)
    assert len((half * half).letters) == 2 * (MAX_WORD_LETTERS // 2)
    with pytest.raises(ContractViolation):
        half * half * Word.gen(1) * Word.gen(1)
    with pytest.raises(ContractViolation):
        Word.commutator(half, Word.gen(1))
    with pytest.raises(ContractViolation):
        Word.gen(1).conj(half)
