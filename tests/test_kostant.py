import hashlib
import itertools

import pytest

from anickres.kostant import (
    AlphabetTooSmallError,
    Position,
    big_system,
    conjectural_system,
    default_position_order,
    descent_or_step_permutations,
    frobenius_shift_check,
    graded_pbw_dimensions,
    pbw_dimension,
    small_system,
    verify_small_against_big,
)
from anickres.polynomials import Polynomial


def test_default_position_order_n3():
    order = default_position_order(3)
    assert [(q.i, q.j) for q in order] == [(1, 3), (2, 3), (1, 2)]


def test_default_position_order_n2():
    assert [(q.i, q.j) for q in default_position_order(2)] == [(1, 2)]


def test_position_validation():
    with pytest.raises(ValueError):
        Position(2, 2)


def test_exponent_rank_descending():
    system = big_system(3, 2, 3)
    # same position: larger exponent has smaller rank
    assert system.alphabet.generator("e12_2").rank < system.alphabet.generator("e12_1").rank


def test_big_system_base_swap():
    system = big_system(3, 2, 3)
    f = Polynomial.monomial(system.field, system.alphabet, system.alphabet.word("e12_1", "e23_1"))
    nf = system.normal_form(f)
    expected = Polynomial.from_terms(
        system.field,
        system.alphabet,
        [(1, system.alphabet.word("e23_1", "e12_1")), (1, system.alphabet.word("e13_1",))],
    )
    assert nf == expected


def test_big_system_square_vanishes():
    system = big_system(3, 2, 1)
    f = Polynomial.monomial(system.field, system.alphabet, system.alphabet.word("e12_1", "e12_1"))
    assert system.normal_form(f).is_zero()


def test_big_system_bad_bound_raises():
    # bound 2 at p=2: e^(1)e^(2) needs exponent 3 with coefficient C(3,1)=1
    with pytest.raises(AlphabetTooSmallError):
        big_system(3, 2, 2)


@pytest.mark.parametrize("n,p,l", [(3, 2, 1), (3, 3, 1), (4, 2, 1)])
def test_big_system_complete_and_counts(n, p, l):
    system = big_system(n, p, p**l - 1)
    assert system.is_complete()[0]
    assert len(system.irreducible_words()) == pbw_dimension(n, p, l)


# the rules of big_system over a grid of (n, p, exponent bound), lhs and
# rhs terms in order, hashed; any change to a relation, its orientation,
# the rule order or a rule's term order changes the digest
BIG_GRID = [
    (n, p, b)
    for n in (2, 3, 4)
    for p, bounds in ((2, (1, 3, 7)), (3, (2, 8)), (5, (4,)))
    for b in bounds
]
BIG_RULES_DIGEST = "55cc66739fce1ca1c4b819439149736bf4a0f0ab774c21a94fed44af7e7db1e4"


def test_big_system_rules_are_pinned():
    h = hashlib.sha256()
    for n, p, b in BIG_GRID:
        rules = [(r.lhs, list(r.rhs.terms.items())) for r in big_system(n, p, b).rules]
        h.update(repr(rules).encode())
    assert h.hexdigest() == BIG_RULES_DIGEST


# the alphabets (name, degree, rank per letter) and rules of big_system over
# seven (n, p, exponent bound), hashed as above; recorded before the builder
# indexed its letters by rank instead of looking them up by name
BIG_SAMPLE = [(3, 2, 1), (3, 3, 2), (4, 3, 2), (3, 3, 8), (4, 2, 3), (5, 2, 1), (3, 5, 4)]
BIG_ALPHABETS_AND_RULES_DIGEST = (
    "1c9b715195d298a2dfc9c01c51212e3d47b74e1cdf251407e4162d2763beaab3"
)


def test_big_system_alphabets_and_rules_are_pinned():
    h = hashlib.sha256()
    for n, p, b in BIG_SAMPLE:
        system = big_system(n, p, b)
        h.update(repr([(g.name, g.degree, g.rank) for g in system.alphabet]).encode())
        h.update(repr([(r.lhs, list(r.rhs.terms.items())) for r in system.rules]).encode())
    assert h.hexdigest() == BIG_ALPHABETS_AND_RULES_DIGEST


# the rules of the n = 3 simple-root presentations, pinned as big_system's
# are: small_system(l) for l <= 5 and odd_p_n3 for p in {3, 5, 7} and
# index <= 3, recorded before both were built by one builder
SIMPLE_ROOT_RULES_DIGEST = "3e8eb80274e7c2e72ee3c8c80598fe9fdb47e09e2386ec6d8db98b7be4c65632"


def test_simple_root_rules_are_pinned():
    systems = [small_system(l) for l in range(6)] + [
        conjectural_system("odd_p_n3", 3, p, index) for p in (3, 5, 7) for index in range(4)
    ]
    h = hashlib.sha256()
    for system in systems:
        rules = [(r.lhs, list(r.rhs.terms.items())) for r in system.rules]
        h.update(repr(rules).encode())
    assert h.hexdigest() == SIMPLE_ROOT_RULES_DIGEST


def _odd_p_n3_images(p, index, signed):
    """The nonzero normal forms in big(3, p, p^(index+1) - 1) of the
    odd_p_n3 relations under a_{ik} -> s^k e_{i,i+1}^(p^k), s = -1 when
    signed and 1 otherwise."""
    system = conjectural_system("odd_p_n3", 3, p, index)
    big = big_system(3, p, p ** (index + 1) - 1)
    sign = -1 if signed else 1
    letter, scale = [], []
    for g in system.alphabet:
        i, k = map(int, g.name[1:].split("_"))
        letter.append(big.alphabet.index(f"e{i}{i + 1}_{p ** k}"))
        scale.append(sign**k)
    failures = []
    for rule in system.rules:
        terms = []
        for w, c in rule.polynomial().terms.items():
            for x in w:
                c *= scale[x]
            terms.append((c, tuple(letter[x] for x in w)))
        nf = big.normal_form(Polynomial.from_terms(big.field, big.alphabet, terms))
        if not nf.is_zero():
            failures.append(nf)
    return failures


@pytest.mark.parametrize("p,index,unsigned_failures", [(3, 1, 2), (3, 2, 4), (5, 1, 2)])
def test_odd_p_n3_relations_hold_in_big_under_the_signed_map(p, index, unsigned_failures):
    # the signed map a_{ik} -> (-1)^k e_{i,i+1}^(p^k) kills every relation;
    # the unsigned one leaves nonzero the mixed-index relations a_l b_k and
    # b_l a_k with l - k odd, whose lhs and tail differ in sign by (-1)^(l-k)
    assert _odd_p_n3_images(p, index, signed=True) == []
    assert len(_odd_p_n3_images(p, index, signed=False)) == unsigned_failures


def test_pbw_dimension():
    assert pbw_dimension(3, 2, 1) == 8
    assert pbw_dimension(3, 2, 2) == 64
    assert pbw_dimension(4, 2, 1) == 64


def test_graded_pbw_dimension():
    assert graded_pbw_dimensions(3, 2, 1, 0) == {0: 1}
    # n=3, l=1: generating function (1+x)^2 (1+x^2)
    assert graded_pbw_dimensions(3, 2, 1, 4) == {0: 1, 1: 2, 2: 2, 3: 2, 4: 1}


def test_small_system_l0():
    system = small_system(0)
    lhss = {system.alphabet.format(r.lhs) for r in system.rules}
    assert lhss == {"a0 a0", "b0 b0", "b0 a0 b0 a0"}
    assert system.is_complete()[0]
    assert system.is_reduced()


def test_small_system_skew_l1():
    system = small_system(1)
    rule = next(r for r in system.rules if system.alphabet.format(r.lhs) == "a1 b0")
    assert str(rule.rhs) in ("a0 b0 a0 + b0 a1", "b0 a1 + a0 b0 a0")
    assert set(map(system.alphabet.format, rule.rhs.terms)) == {"b0 a1", "a0 b0 a0"}


def test_small_system_graded_counts_match():
    for l in (0, 1, 2):
        counts = small_system(l).irreducible_counts_by_degree()
        assert counts == graded_pbw_dimensions(3, 2, l + 1, max(counts))


@pytest.mark.parametrize("l", [0, 1, 2])
def test_verify_small_against_big(l):
    ok, failures = verify_small_against_big(l)
    assert ok, failures


@pytest.mark.parametrize("l,j", [(0, 1), (1, 1), (2, 2)])
def test_frobenius_shift(l, j):
    ok, failures = frobenius_shift_check(l, j)
    assert ok, failures


@pytest.mark.parametrize("l", range(9))
def test_descent_or_step_permutations_match_the_filter(l):
    # the reference: filter all l! permutations, in itertools' (sorted) order
    expected = [
        perm
        for perm in itertools.permutations(range(1, l + 1))
        if all(perm[s + 1] < perm[s] or perm[s + 1] == perm[s] + 1 for s in range(l - 1))
    ]
    assert descent_or_step_permutations(l) == expected
    assert len(expected) == 2 ** max(l - 1, 0)


def test_descent_or_step_permutations():
    assert descent_or_step_permutations(2) == [(1, 2), (2, 1)]
    assert set(descent_or_step_permutations(3)) == {
        (1, 2, 3),
        (2, 3, 1),
        (3, 1, 2),
        (3, 2, 1),
    }


def test_conjectural_parameter_validation():
    with pytest.raises(ValueError):
        conjectural_system("odd_p_n3", 3, 2, 1)
    with pytest.raises(ValueError):
        conjectural_system("p2_general_n", 3, 2, 1)
    with pytest.raises(ValueError):
        conjectural_system("bogus", 3, 2, 1)


def test_conjectural_systems_build_and_are_experimental():
    odd = conjectural_system("odd_p_n3", 3, 3, 1)
    assert any(odd.alphabet.format(r.lhs) == "a1_0 a1_0 a1_0" for r in odd.rules)
    gen = conjectural_system("p2_general_n", 4, 2, 0)
    assert any(gen.alphabet.format(r.lhs) == "a1_0 a1_0" for r in gen.rules)


@pytest.mark.parametrize("n, index", [(4, 0), (4, 1), (5, 0), (5, 1)])
def test_p2_general_n_commutators_of_one_letter_are_degenerate(n, index):
    # for m = 1 the two middle words of a commutator are equal and cancel
    # mod 2, so its rule a_{i+1} a_i a_i -> a_i a_i a_{i+1} reduces to 0
    # modulo the square rules alone: n - 2 such rules per index
    system = conjectural_system("p2_general_n", n, 2, index)
    squares = [r for r in system.rules if len(r.lhs) == 2 and r.lhs[0] == r.lhs[1]]
    assert all(r.rhs.is_zero() for r in squares)
    by_squares = system.with_rules(squares)
    degenerate = [
        str(r)
        for r in system.rules
        if r not in squares and by_squares.normal_form(r.polynomial()).is_zero()
    ]
    assert degenerate == [
        f"a{i + 1}_{k} a{i}_{k} a{i}_{k} -> a{i}_{k} a{i}_{k} a{i + 1}_{k}"
        for k in range(index + 1)
        for i in range(1, n - 1)
    ]


def test_conjectural_relations_hold_in_big_algebra():
    # every input relation of the p=2, n=4 conjecture maps to zero under
    # a_{ik} -> e_{i,i+1}^(2^k)
    system = conjectural_system("p2_general_n", 4, 2, 1)
    big = big_system(4, 2, 7)
    gen = {
        (i, k): big.alphabet.index(f"e{i}{i+1}_{2**k}")
        for k in range(2)
        for i in range(1, 4)
    }

    def image(w):
        names = [system.alphabet[x].name for x in w]
        return tuple(gen[(int(n[1]), int(n[3:]))] for n in names)

    for rule in system.rules:
        f = rule.polynomial()
        terms = [(c, image(w)) for w, c in f.terms.items()]
        img = Polynomial.from_terms(big.field, big.alphabet, terms)
        assert big.normal_form(img).is_zero(), str(rule)
