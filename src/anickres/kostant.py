"""Presentations of the divided-power enveloping algebra of strictly
upper-triangular matrices over a prime field.

Three flavors are constructed:

* the big system over generators e_ij^(k) (all divided powers up to an
  exponent bound), whose rules multiply equal positions and straighten any
  other two by one rule, whose s = 0 term is the swap;
* the n = 3 simple-root system over a_k = e_12^(p^k), b_k = e_23^(p^k),
  written once: its p = 2 case with the equal-position commutators is the
  small system, a finite reduced Groebner basis per index bound, and its
  odd-p case without them is the experimental conjectural odd_p_n3;
* the experimental conjectural system at p = 2 and general n.

Each builder returns the rewriting system of its relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import PrimeField, binomial_mod_p
from .polynomials import Polynomial
from .rewriting import RewritingSystem
from .words import Alphabet, Generator, Word


class AlphabetTooSmallError(ValueError):
    """A product of divided powers leaves the bounded alphabet with a
    nonzero coefficient; raise the exponent bound (a p-power minus one
    makes the truncation close)."""


@dataclass(frozen=True)
class Position:
    """A matrix position (i, j) with 1 <= i < j <= n."""

    i: int
    j: int

    def __post_init__(self):
        if not 1 <= self.i < self.j:
            raise ValueError(f"bad position ({self.i}, {self.j})")

    @property
    def span(self) -> int:
        return self.j - self.i


def all_positions(n: int) -> list[Position]:
    return [Position(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def default_position_order(n: int) -> list[Position]:
    """Positions in ascending order: longer spans first (smaller), then
    larger i first among equal spans."""
    if n < 2:
        raise ValueError("need n >= 2")
    return sorted(all_positions(n), key=lambda q: (-q.span, -q.i))


# ---------------------------------------------------------------------
# big system
# ---------------------------------------------------------------------

def big_system(n: int, p: int, exponent_bound: int) -> RewritingSystem:
    """All straightening rules on divided powers e_ij^(k), k <= exponent_bound.

    Equal positions multiply, e^(k) e^(r) = C(k+r, k) e^(k+r).  For P after
    Q in the order and M the position they span, e_P^(k) e_Q^(r) = sum over
    s <= min(k, r) of sign^s e_Q^(r-s) e_M^(s) e_P^(k-s), sign +1 when Q
    starts where P ends and -1 when Q ends where P starts; its s = 0 term
    is the swap, all that positions that do not meet keep.

    With exponent_bound = p^l - 1 the equal-position products close up
    (binomials across a p-power boundary vanish); any other bound that
    produces an out-of-alphabet product with nonzero coefficient raises
    AlphabetTooSmallError.
    """
    if n < 2 or exponent_bound < 1:
        raise ValueError("need n >= 2 and exponent_bound >= 1")
    field = PrimeField(p)
    order = default_position_order(n)
    # descending exponent within a position: larger k, smaller rank, and
    # the ranks run 0..N-1, so a letter's rank is its index
    letter = {
        (pos, k): pidx * exponent_bound + exponent_bound - k
        for pidx, pos in enumerate(order)
        for k in range(1, exponent_bound + 1)
    }
    alphabet = Alphabet(
        Generator(f"e{pos.i}{pos.j}_{k}", k * pos.span, rank)
        for (pos, k), rank in letter.items()
    )

    def e(pos: Position | None, k: int) -> Word:
        """The word e_pos^(k); exponent 0 is the empty word."""
        return (letter[(pos, k)],) if k else ()

    relations: list[Polynomial] = []
    exps = range(1, exponent_bound + 1)

    # equal positions: e^(k) e^(r) -> C(k+r, k) e^(k+r)
    for pos in order:
        for k in exps:
            for r in exps:
                coeff = binomial_mod_p(k + r, k, p)
                lhs = e(pos, k) + e(pos, r)
                if k + r > exponent_bound:
                    if coeff:
                        raise AlphabetTooSmallError(
                            f"product e{pos.i}{pos.j}^({k})e{pos.i}{pos.j}^({r}) needs "
                            f"exponent {k + r} > bound {exponent_bound} with unit "
                            f"coefficient; use a bound of the form p^l - 1 or raise it"
                        )
                    relations.append(Polynomial.monomial(field, alphabet, lhs))
                else:
                    relations.append(
                        Polynomial.from_terms(
                            field, alphabet, [(1, lhs), (-coeff, e(pos, k + r))]
                        )
                    )

    # mixed positions: the straightening rule, P after Q in the order
    for a, P in enumerate(order):
        for Q in order[:a]:
            if Q.i == P.j:
                sign, M = 1, Position(P.i, Q.j)
            elif Q.j == P.i:
                sign, M = -1, Position(Q.i, P.j)
            else:
                sign, M = 1, None
            for k in exps:
                for r in exps:
                    terms = [(1, e(P, k) + e(Q, r))]
                    for s in range(min(k, r) + 1 if M else 1):
                        terms.append((-(sign**s), e(Q, r - s) + e(M, s) + e(P, k - s)))
                    relations.append(Polynomial.from_terms(field, alphabet, terms))

    return RewritingSystem.from_relations(alphabet, field, relations)


# ---------------------------------------------------------------------
# dimension formulas
# ---------------------------------------------------------------------

def pbw_dimension(n: int, p: int, l: int) -> int:
    """Total dimension of the exponent-bounded subalgebra: (p^l)^(n(n-1)/2)."""
    if l < 1:
        raise ValueError("need l >= 1")
    return (p**l) ** (n * (n - 1) // 2)


def graded_pbw_dimensions(n: int, p: int, l: int, max_degree: int) -> dict[int, int]:
    """Number of exponent tuples (k_ij), 0 <= k_ij <= p^l - 1, with
    sum k_ij (j - i) = d, for each d <= max_degree."""
    if l < 1:
        raise ValueError("need l >= 1")
    bound = p**l - 1
    counts = {0: 1}
    for pos in all_positions(n):
        nxt: dict[int, int] = {}
        for d, c in counts.items():
            for k in range(bound + 1):
                nd = d + k * pos.span
                if nd <= max_degree:
                    nxt[nd] = nxt.get(nd, 0) + c
        counts = nxt
    return counts


# ---------------------------------------------------------------------
# the n = 3 simple-root presentation: small (p = 2) and odd_p_n3
# ---------------------------------------------------------------------

def _simple_root_alphabet(prefixes: Sequence[str], p: int, index_bound: int) -> Alphabet:
    """One letter prefix+k of degree p^k for each prefix and each index
    k <= index_bound, ordered by index, then as the prefixes are."""
    return Alphabet.from_names(
        [(f"{x}{k}", p**k) for k in range(index_bound + 1) for x in prefixes]
    )


def _simple_root_system(
    prefixes: tuple[str, str], field: PrimeField, index_bound: int, commute: bool
) -> RewritingSystem:
    """The n = 3 relations over a_0 < b_0 < a_1 < ... < b_{index_bound}, the
    letters named by the two prefixes, a_k and b_k standing for e_12^(p^k)
    and e_23^(p^k).  Per index k: a_k^p, b_k^p, the two Serre relations
    when p > 2 (at p = 2 their place is taken by the cross-index relations
    with a_{k+1}) and (b_k a_k)^p - (a_k b_k)^p.  Then per l > k:
    a_l a_k - a_k a_l and b_l b_k - b_k b_l when `commute` is set, and
    a_l b_k - b_k a_l - a_k b_k a_k^(p-1) ... a_{l-1}^(p-1) with its mirror
    b_l a_k - a_k b_l - b_k a_k b_k^(p-1) ... b_{l-1}^(p-1)."""
    p = field.p
    alphabet = _simple_root_alphabet(prefixes, p, index_bound)
    a = [(x,) for x in range(0, len(alphabet), 2)]
    b = [(x,) for x in range(1, len(alphabet), 2)]

    def rel(*terms: tuple[int, Word]) -> Polynomial:
        return Polynomial.from_terms(field, alphabet, terms)

    rels = []
    for k in range(len(a)):
        x, y = a[k], b[k]
        rels += [rel((1, x * p)), rel((1, y * p))]
        if p > 2:
            rels.append(rel((1, y + y + x), (-2, y + x + y), (1, x + y + y)))
            rels.append(rel((1, y + x + x), (-2, x + y + x), (1, x + x + y)))
        rels.append(rel((1, (y + x) * p), (-1, (x + y) * p)))
        for l in range(k + 1, len(a)):
            if commute:
                rels.append(rel((1, a[l] + x), (-1, x + a[l])))
                rels.append(rel((1, b[l] + y), (-1, y + b[l])))
            tail_a = x + y + sum((a[m] * (p - 1) for m in range(k, l)), ())
            tail_b = y + x + sum((b[m] * (p - 1) for m in range(k, l)), ())
            rels.append(rel((1, a[l] + y), (-1, y + a[l]), (-1, tail_a)))
            rels.append(rel((1, b[l] + x), (-1, x + b[l]), (-1, tail_b)))
    return RewritingSystem.from_relations(alphabet, field, rels)


def small_system(l: int) -> RewritingSystem:
    """The finite reduced Groebner basis S_l over indices 0..l (p = 2,
    n = 3): the simple-root relations with the equal-position commutators,
    over a0 < b0 < a1 < b1 < ... < al < bl with deg ak = deg bk = 2^k."""
    if l < 0:
        raise ValueError("need l >= 0")
    return _simple_root_system(("a", "b"), PrimeField(2), l, commute=True)


def _image_check(
    src: RewritingSystem, dst: RewritingSystem, letter: Sequence[int]
) -> tuple[bool, list[Polynomial]]:
    """Map each rule's relation lhs - rhs of src along the letter map (src
    letter index -> dst letter index) and reduce it by dst; the nonzero
    normal forms are the failures."""
    failures = []
    for rule in src.rules:
        terms = [(c, tuple(letter[x] for x in w)) for w, c in rule.polynomial().terms.items()]
        nf = dst.normal_form(Polynomial.from_terms(dst.field, dst.alphabet, terms))
        if not nf.is_zero():
            failures.append(nf)
    return (not failures, failures)


def verify_small_against_big(l: int) -> tuple[bool, list[Polynomial]]:
    """Map a_k -> e_12^(2^k), b_k -> e_23^(2^k) and check that every small
    relation reduces to zero in the big system with bound 2^(l+1) - 1."""
    small = small_system(l)
    big = big_system(3, 2, 2 ** (l + 1) - 1)
    letter = [
        big.alphabet.index(f"{'e12' if g.name[0] == 'a' else 'e23'}_{2 ** int(g.name[1:])}")
        for g in small.alphabet
    ]
    return _image_check(small, big, letter)


def frobenius_shift_check(l: int, j: int) -> tuple[bool, list[Polynomial]]:
    """Shift a_k -> a_{k+j}, b_k -> b_{k+j} on the relations of the index-l
    small system and reduce the images by the index-(l+j) system."""
    if j < 1:
        raise ValueError("need j >= 1")
    src = small_system(l)
    dst = small_system(l + j)
    letter = [dst.alphabet.index(f"{g.name[0]}{int(g.name[1:]) + j}") for g in src.alphabet]
    return _image_check(src, dst, letter)


# ---------------------------------------------------------------------
# conjectural systems (experimental)
# ---------------------------------------------------------------------

def descent_or_step_permutations(l: int) -> list[tuple[int, ...]]:
    """Permutations (i_1..i_l) of (1..l) where each successor either drops
    or rises by exactly one, sorted.  Each is a run of consecutive values
    ascending to l, followed by such a permutation of the values below the
    run: one per composition of l."""

    def below(top: int):
        if top == 0:
            yield ()
        for start in range(1, top + 1):
            for rest in below(start - 1):
                yield tuple(range(start, top + 1)) + rest

    return sorted(below(l))


def conjectural_system(
    variant: str, n: int, p: int, index_bound: int
) -> RewritingSystem:
    """Experimental relation sets over the simple-root divided powers
    a_{ik} = e_{i,i+1}^(p^k), for indices k <= index_bound.

    In p2_general_n the two middle words of an m = 1 commutator are equal
    and cancel mod 2, so its n - 2 rules per index, a_{i+1,k} a_{ik} a_{ik}
    -> a_{ik} a_{ik} a_{i+1,k}, reduce to 0 modulo the square rules alone."""
    if index_bound < 0:
        raise ValueError("need index_bound >= 0")
    field = PrimeField(p)
    if variant == "odd_p_n3":
        if p <= 2 or n != 3:
            raise ValueError("odd_p_n3 requires p > 2 and n = 3")
        return _simple_root_system(("a1_", "a2_"), field, index_bound, commute=False)
    if variant != "p2_general_n":
        raise ValueError(f"unknown variant {variant!r}")
    if p != 2 or n < 4:
        raise ValueError("p2_general_n requires p = 2 and n >= 4")
    alphabet = _simple_root_alphabet([f"a{i}_" for i in range(1, n)], 2, index_bound)
    perms = {l: descent_or_step_permutations(l) for l in range(2, n)}

    def prod(seq, k):
        return alphabet.word(*(f"a{i}_{k}" for i in seq))

    rels = []
    for k in range(index_bound + 1):
        for i in range(1, n):
            rels.append(Polynomial.monomial(field, alphabet, prod([i, i], k)))
        # squared staircase products, summed over the admissible orderings
        for l in range(2, n):
            for m in range(0, n - l):
                terms = []
                for perm in perms[l]:
                    shifted = [idx + m for idx in perm]
                    terms.append((1, prod(shifted + shifted, k)))
                rels.append(Polynomial.from_terms(field, alphabet, terms))
        # commutator relations against the interval products
        for m in range(1, n - 1):
            for i in range(1, n - m):
                x = prod([i + m - 1], k)
                up = prod(range(i, i + m + 1), k)
                down = prod(range(i + m, i - 1, -1), k)
                rels.append(
                    Polynomial.from_terms(
                        field,
                        alphabet,
                        [(1, x + up), (1, up + x), (1, x + down), (1, down + x)],
                    )
                )
    return RewritingSystem.from_relations(alphabet, field, rels)
