"""Polynomials of the free associative algebra F_p<X*>, and `accumulate`,
the one in-place sum of term dicts over F_p.

A polynomial is a finite mapping from words to nonzero field elements.
Zero coefficients are dropped eagerly, so equality of the term dicts is
equality of polynomials.  A polynomial also holds the alphabet of its
words, which orders them (leading term, support) and names their letters.
It is the API's type only (rules, normal forms, pair obstructions, parsing
and printing): below it, terms are canonical {key: c} dicts, {word: c} in
the normal-form memo and {(m, t): c} for module elements.
"""

from __future__ import annotations

from typing import Iterable

from .fields import PrimeField
from .words import Alphabet, Word


def accumulate(acc: dict, coeff: int, terms: dict, p: int) -> None:
    """acc += coeff * terms in place over F_p, for term dicts of module
    elements or of polynomials.  A key that reaches zero is removed, so acc
    stays canonical."""
    for key, c in terms.items():
        x = (acc.get(key, 0) + coeff * c) % p
        if x:
            acc[key] = x
        else:
            acc.pop(key, None)


class Polynomial:
    __slots__ = ("field", "alphabet", "terms")

    def __init__(
        self, field: PrimeField, alphabet: Alphabet, terms: dict[Word, int] | None = None
    ):
        self.field = field
        self.alphabet = alphabet
        self.terms: dict[Word, int] = {}
        if terms:
            for w, c in terms.items():
                c %= field.p
                if c:
                    self.terms[w] = c

    # constructors -----------------------------------------------------
    @classmethod
    def from_canonical(
        cls, field: PrimeField, alphabet: Alphabet, terms: dict[Word, int]
    ) -> "Polynomial":
        """Wrap a term dict that is already canonical (every coefficient a
        residue in 1..p-1); the dict is taken over, not copied or reduced."""
        poly = cls.__new__(cls)
        poly.field = field
        poly.alphabet = alphabet
        poly.terms = terms
        return poly

    @classmethod
    def monomial(
        cls, field: PrimeField, alphabet: Alphabet, word: Word, coeff: int = 1
    ) -> "Polynomial":
        return cls(field, alphabet, {word: coeff})

    @classmethod
    def from_terms(
        cls, field: PrimeField, alphabet: Alphabet, terms: Iterable[tuple[int, Word]]
    ) -> "Polynomial":
        acc: dict[Word, int] = {}
        for coeff, word in terms:
            acc[word] = (acc.get(word, 0) + coeff) % field.p
        return cls(field, alphabet, acc)

    # structure --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def leading_monomial(self) -> Word:
        if not self.terms:
            raise ValueError("leading monomial of the zero polynomial")
        return max(self.terms, key=self.alphabet.sort_key)

    def leading_term(self) -> tuple[Word, int]:
        lm = self.leading_monomial()
        return lm, self.terms[lm]

    # arithmetic -------------------------------------------------------
    def combine(self, coeff: int, other: "Polynomial") -> "Polynomial":
        """self + coeff * other, in canonical form."""
        if self.field != other.field:
            raise ValueError("mixed coefficient fields")
        acc = dict(self.terms)
        accumulate(acc, coeff, other.terms, self.field.p)
        return Polynomial.from_canonical(self.field, self.alphabet, acc)

    def scale(self, coeff: int) -> "Polynomial":
        return Polynomial(self.field, self.alphabet, {w: c * coeff for w, c in self.terms.items()})

    def sandwich(self, left: Word, right: Word) -> "Polynomial":
        """left * self * right: every support word w becomes left w right."""
        # w -> left w right is injective, so the coefficients stay canonical
        return Polynomial.from_canonical(
            self.field, self.alphabet, {left + w + right: c for w, c in self.terms.items()}
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        fmt = self.alphabet.format
        for w in sorted(self.terms, key=self.alphabet.sort_key, reverse=True):
            c = self.terms[w]
            if not w:
                parts.append(str(c))
            elif c == 1:
                parts.append(fmt(w))
            else:
                parts.append(f"{c} {fmt(w)}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self})"
