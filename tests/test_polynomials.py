import pytest

from anickres.fields import PrimeField
from anickres.polynomials import Polynomial
from anickres.words import Alphabet


@pytest.fixture
def setup():
    alphabet = Alphabet.from_names([("a", 1), ("b", 1)])
    return alphabet, PrimeField(3)


def test_canonical_form(setup):
    alphabet, F = setup
    w = alphabet.word("a")
    f = Polynomial(F, alphabet, {w: 3})
    assert f.is_zero()
    g = Polynomial(F, alphabet, {w: 4})
    assert g.terms == {w: 1}


def test_from_terms_merges(setup):
    alphabet, F = setup
    w = alphabet.word("a", "b")
    f = Polynomial.from_terms(F, alphabet, [(1, w), (2, w)])
    assert f.is_zero()
    g = Polynomial.from_terms(F, alphabet, [(1, w), (1, w)])
    assert g.terms.get(w, 0) == 2


def test_addition_subtraction(setup):
    alphabet, F = setup
    u, v = alphabet.word("a"), alphabet.word("b")
    f = Polynomial.from_terms(F, alphabet, [(1, u), (1, v)])
    g = Polynomial.monomial(F, alphabet, v)
    assert f.combine(-1, g).terms == {u: 1}
    assert f.combine(1, f).terms.get(u, 0) == 2
    assert f.combine(2, g).terms.get(v, 0) == 0


def test_mixed_fields_rejected(setup):
    alphabet, F = setup
    f = Polynomial.monomial(F, alphabet, alphabet.word("a"))
    g = Polynomial.monomial(PrimeField(5), alphabet, alphabet.word("a"))
    with pytest.raises(ValueError):
        f.combine(1, g)


def test_leading_term(setup):
    alphabet, F = setup
    w = alphabet.word
    f = Polynomial.from_terms(F, alphabet, [(1, w("a")), (2, w("b", "a")), (1, w("a", "b"))])
    lm, lc = f.leading_term()
    assert lm == alphabet.word("b", "a")
    assert lc == 2
    with pytest.raises(ValueError):
        Polynomial(F, alphabet).leading_term()


def test_sandwich(setup):
    alphabet, F = setup
    f = Polynomial.from_terms(F, alphabet, [(1, alphabet.word("a")), (2, alphabet.word("b"))])
    g = f.sandwich(alphabet.word("b"), alphabet.word("a"))
    assert g.terms.get(alphabet.word("b", "a", "a"), 0) == 1
    assert g.terms.get(alphabet.word("b", "b", "a"), 0) == 2


def test_scale(setup):
    alphabet, F = setup
    f = Polynomial.monomial(F, alphabet, alphabet.word("a"), 2)
    assert f.scale(2).terms.get(alphabet.word("a"), 0) == 1
    assert f.scale(0).is_zero()


def test_str(setup):
    alphabet, F = setup
    f = Polynomial.from_terms(
        F, alphabet, [(1, alphabet.word("a")), (2, alphabet.word("b", "a")), (1, ())]
    )
    assert str(f) == "2 b a + a + 1"
    assert str(Polynomial(F, alphabet)) == "0"


def test_equality_and_hash(setup):
    alphabet, F = setup
    w = alphabet.word("a")
    assert Polynomial.monomial(F, alphabet, w) == Polynomial.from_terms(F, alphabet, [(4, w)])
    f = Polynomial.monomial(F, alphabet, w)
    assert hash(f) == hash(Polynomial.from_terms(F, alphabet, [(4, w)]))
