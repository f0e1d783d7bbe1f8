import pytest

from anickres.anick import LiftError, ResolutionPrefix, extend_chains, format_terms
from anickres.fields import PrimeField
from anickres.kostant import big_system, conjectural_system, small_system
from anickres.polynomials import Polynomial, accumulate
from anickres.rewriting import RewritingSystem
from anickres.words import Alphabet, contains

F2 = PrimeField(2)


@pytest.fixture(scope="module")
def prefix3():
    return ResolutionPrefix(small_system(3))


def single_rule_system():
    alphabet = Alphabet.from_names([("a", 1)])
    rel = Polynomial.monomial(F2, alphabet, alphabet.word("a", "a"))
    return RewritingSystem.from_relations(alphabet, F2, [rel])


def test_chains_single_rule():
    system = single_rule_system()
    prefix = ResolutionPrefix(system)
    fmt = system.alphabet.format
    assert [fmt(t) for t in prefix.chains[1]] == ["a a"]
    assert [fmt(t) for t in prefix.chains[2]] == ["a a a"]


def _chain_levels(system, top):
    """Chain words of levels -1..top: level 1 the lhs with their tails,
    each level above by extend_chains."""
    key = system.alphabet.sort_key
    level = sorted(((L, L[1:]) for L in system.lhs_words()), key=lambda tu: key(tu[0]))
    chains = {-1: [()], 0: [(x,) for x in range(len(system.alphabet))], 1: [t for t, _u in level]}
    for n in range(2, top + 1):
        level = extend_chains(system, level)
        chains[n] = [t for t, _u in level]
    return chains


EULER_SYSTEMS = {
    "small3": lambda: small_system(3),
    "big332": lambda: big_system(3, 3, 2).interreduce(),
    "big432": lambda: big_system(4, 3, 2).interreduce(),
}


@pytest.mark.parametrize("name", EULER_SYSTEMS)
def test_euler_characteristic_holds_below_the_next_chain_level(name):
    # (sum over n = -1..top of (-1)^(n+1) C_n(t)) H_A(t) = 1 exactly below
    # the lowest degree of a level top+1 chain, and fails there
    system = EULER_SYSTEMS[name]()
    D = 14
    degree = system.alphabet.degree
    chains = _chain_levels(system, 4)
    assert chains[2] == ResolutionPrefix(system).chains[2]
    hilbert = system.irreducible_counts_by_degree(D)
    for top in (1, 2, 3):
        series = [0] * (D + 1)
        for n in range(-1, top + 1):
            for t in chains[n]:
                if degree(t) <= D:
                    series[degree(t)] += (-1) ** (n + 1)
        product = [
            sum(series[k] * hilbert.get(d - k, 0) for k in range(d + 1)) for d in range(D + 1)
        ]
        first_failure = next(d for d in range(D + 1) if product[d] != (d == 0))
        assert first_failure == min(map(degree, chains[top + 1])) == top + 2


def test_T2_families(prefix3):
    tips = {prefix3.alphabet.format(t) for t in prefix3.chains[2]}
    assert "b0 a0 b0 a0 b0 a0" in tips
    assert "a2 a1 a0" in tips  # m > l > k commuting triple
    assert "a1 a1 a1" in tips  # m = l = k
    assert "a1 b0 a0 b0 a0" in tips  # skew against the braid word
    assert "b1 a1 b1 a1 a0" in tips  # braid against the skew word
    assert len(prefix3.chains[2]) == 124


def test_chain_extension_drops_overhangs_that_meet_another_lhs():
    # odd_p_n3 (p=3, index 1) completed to degree 12: of its 69 level-1
    # overhangs within the bound, 23 meet a second lhs before their last
    # letter and are no chains; no small or big builtin has such an
    # overhang, so this pins extend_chains' irreducibility test
    system = conjectural_system("odd_p_n3", 3, 3, 1).complete(12).interreduce()
    degree = system.alphabet.degree
    overhangs = [
        L + v
        for L in system.lhs_words()
        for v in system.lhs_overhangs(L[1:])
        if degree(L + v) <= 12
    ]
    assert len(overhangs) == 69
    assert len(ResolutionPrefix(system, 12).chains[2]) == 46


def test_T2_minimality(prefix3):
    tips = prefix3.chains[2]
    for w in tips:
        assert not any(t != w and contains(w, t) for t in tips)


def test_T1_antichain(prefix3):
    t1 = prefix3.chains[1]
    for u in t1:
        for v in t1:
            if u != v:
                assert not contains(u, v)


def test_delta0(prefix3):
    A = prefix3.system.alphabet
    e = A.empty_word
    val = prefix3.delta(0, A.word("a0"))
    assert val == {(A.word("a0"), e): 1}


def test_j1_braid(prefix3):
    A = prefix3.system.alphabet
    val = prefix3.j_map(1, A.word("b0", "a0", "b0"), A.word("a0"))
    assert val == (A.empty_word, A.word("b0", "a0", "b0", "a0"))


def test_j1_no_factorization(prefix3):
    A = prefix3.system.alphabet
    assert prefix3.j_map(1, A.word("a0"), A.word("b1")) is None


def test_golden_d1(prefix3):
    A = prefix3.system.alphabet
    w = A.word

    def d1(*names):
        return format_terms(A, prefix3.diff[1][w(*names)])

    assert d1("a1", "a0") == "a1 . a0 + a0 . a1"
    assert d1("a0", "a0") == "a0 . a0"
    assert d1("a1", "b0") == "a1 . b0 + b0 . a1 + a0 b0 . a0"
    assert d1("a2", "b0") == "a2 . b0 + b0 . a2 + a0 b0 a0 . a1"
    assert d1("b0", "a0", "b0", "a0") == "b0 a0 b0 . a0 + a0 b0 a0 . b0"


def test_golden_d2(prefix3):
    A = prefix3.system.alphabet
    w = A.word

    def d2(*names):
        return format_terms(A, prefix3.diff[2][w(*names)])

    assert d2("a1", "a0", "a0") == "a1 . a0 a0 + a0 . a1 a0"
    assert d2("a1", "b0", "b0") == "a1 . b0 b0 + b0 . a1 b0 + . b0 a0 b0 a0"
    assert (
        d2("a2", "b0", "a0", "b0", "a0")
        == "a2 . b0 a0 b0 a0 + b0 a0 b0 . a2 a0 + a0 b0 a0 . a2 b0"
    )


def test_complex_identities(prefix3):
    ok, problems = prefix3.verify_complex()
    assert ok, problems


def test_degree_preservation(prefix3):
    # homogeneous relations: every term m.t' of d(.t) has deg(m t') = deg(t)
    degree = prefix3.alphabet.degree
    assert all(
        degree(m + t2) == degree(t)
        for level, t in prefix3.generators()
        for m, t2 in prefix3.diff[level][t]
    )


def test_lift_roundtrip(prefix3):
    # d(i(f)) = f for boundaries f = d(.t)
    for t in prefix3.chains[1][:10]:
        f = prefix3.diff[1][t]
        lifted = prefix3.lift_i(1, f)
        assert prefix3.boundary(1, lifted) == f


def test_lift_rejects_noncycles(prefix3):
    from anickres.anick import LiftError

    A = prefix3.system.alphabet
    e = A.empty_word
    bad = {(A.word("a0"), e): 1, (e, e): 1}
    with pytest.raises(LiftError):
        prefix3.lift_i(0, bad)


def test_act_reexpands():
    system = small_system(0)
    prefix = ResolutionPrefix(system)
    A = system.alphabet
    f = {(A.word("a0"), A.word("a0")): 1}
    # a0 * (a0 . a0) = (a0 a0) . a0 -> 0
    assert prefix.act(A.word("a0"), f) == {}


def test_act_drops_terms_that_cancel():
    # over F_3 with b a -> a b + a a: b * (a b . b) = a b b + a a b and
    # b * (a a . b) = a a b + 2 a a a, so b * (a b - a a) . b cancels a a b
    F3 = PrimeField(3)
    A = Alphabet.from_names([("a", 1), ("b", 1)])
    a, b = A.word("a"), A.word("b")
    rel = Polynomial(F3, A, {b + a: 1, a + b: -1, a + a: -1})
    prefix = ResolutionPrefix(RewritingSystem.from_relations(A, F3, [rel]))
    f = {(a + b, b): 1, (a + a, b): 2}
    assert prefix.act(b, f) == {(a + b + b, b): 1, (a + a + a, b): 1}


def test_act_into_removes_a_sum_that_cancels():
    # over F_3 with b a -> a b + a a: b * (a b . b) = a b b + a a b, so
    # adding 2 b * (a b . b) to a b b + a a b leaves nothing, and
    # subtracting it from a b b + 2 a a b leaves a a b alone
    F3 = PrimeField(3)
    A = Alphabet.from_names([("a", 1), ("b", 1)])
    a, b = A.word("a"), A.word("b")
    rel = Polynomial(F3, A, {b + a: 1, a + b: -1, a + a: -1})
    prefix = ResolutionPrefix(RewritingSystem.from_relations(A, F3, [rel]))
    f = {(a + b, b): 1}
    acc = {(a + b + b, b): 1, (a + a + b, b): 1}
    prefix.act_into(acc, 2, b, f)
    assert acc == {}
    acc = {(a + b + b, b): 1, (a + a + b, b): 2}
    prefix.act_into(acc, -1, b, f)
    assert list(acc.items()) == [((a + a + b, b), 1)]


def test_act_into_over_f2_cancels_a_product_into_an_element():
    # a0 * (a0 . a0) = 0 in small(0) (the test_act_reexpands case), so
    # adding it leaves a non-empty acc as it was; adding a product that
    # does not vanish into an element holding it cancels it over F_2
    system = small_system(0)
    prefix = ResolutionPrefix(system)
    A = system.alphabet
    a0, e = A.word("a0"), A.empty_word
    acc = {(a0, a0): 1}
    prefix.act_into(acc, 1, a0, {(a0, a0): 1})
    assert acc == {(a0, a0): 1}
    image = prefix.act(a0, {(e, a0): 1})
    assert image
    acc = dict(image)
    prefix.act_into(acc, 1, a0, {(e, a0): 1})
    assert acc == {}


@pytest.mark.parametrize("p", [2, 3])
def test_act_into_by_the_empty_word_adds_the_element(p):
    # m = e: acc += c terms, as `accumulate` would, and terms is not changed
    field = PrimeField(p)
    A = Alphabet.from_names([("a", 1), ("b", 1)])
    a, b = A.word("a"), A.word("b")
    rel = Polynomial(field, A, {b + a: 1, a + b: -1})
    prefix = ResolutionPrefix(RewritingSystem.from_relations(A, field, [rel]))
    terms = {(a, b): 1, (a + a, a): p - 1}
    acc = {(a, b): 1, (b, b): 1}
    expected = dict(acc)
    accumulate(expected, p - 1, terms, p)
    prefix.act_into(acc, p - 1, A.empty_word, terms)
    assert acc == expected
    assert terms == {(a, b): 1, (a + a, a): p - 1}
    assert prefix.act(A.empty_word, terms) is terms


def test_prefix_refuses_a_constant_tail():
    alphabet = Alphabet.from_names([("x", 1)])
    F3 = PrimeField(3)
    x = Polynomial.monomial(F3, alphabet, alphabet.word("x"))
    system = RewritingSystem.from_relations(
        alphabet, F3, [x.combine(-1, Polynomial.monomial(F3, alphabet, alphabet.empty_word))]
    )
    with pytest.raises(ValueError, match="not augmented: rule x -> 1"):
        ResolutionPrefix(system)


def test_prefix_requires_reduced():
    alphabet = Alphabet.from_names([("a", 1)])
    system = RewritingSystem.from_relations(
        alphabet,
        F2,
        [
            Polynomial.monomial(F2, alphabet, alphabet.word("a", "a")),
            Polynomial.monomial(F2, alphabet, alphabet.word("a", "a", "a")),
        ],
    )
    with pytest.raises(ValueError):
        ResolutionPrefix(system)


def test_lift_rejects_level1_noncycle(prefix3):
    from anickres.anick import LiftError

    A = prefix3.system.alphabet
    # d_0(a0 . b0) = a0 b0 . e is nonzero, though its augmentation vanishes
    with pytest.raises(LiftError, match="not a cycle"):
        prefix3.lift_i(1, {(A.word("a0"), A.word("b0")): 1})


def test_single_letter_lhs_splits_at_k0():
    F3 = PrimeField(3)
    alphabet = Alphabet.from_names([("x", 1), ("y", 1)])
    w = alphabet.word
    system = RewritingSystem.from_relations(
        alphabet,
        F3,
        [
            Polynomial.from_terms(F3, alphabet, [(1, w("y")), (-1, w("x"))]),
            Polynomial.monomial(F3, alphabet, w("x", "x")),
        ],
    )
    prefix = ResolutionPrefix(system)
    ok, problems = prefix.verify_complex()
    assert ok, problems
    assert format_terms(alphabet, prefix.diff[1][w("y")]) == ". y + 2 . x"


STUCK = "; the system is not complete up to this degree, or this is a bug"


def test_incomplete_system_gets_the_lift_stuck():
    # y x y + x y x over F_3 is reduced but not complete (its self-overlap at
    # y x y x y does not resolve): building d_2 on it finds no cycle to lift,
    # and the error says that the system, not a sign, is at fault
    F3 = PrimeField(3)
    alphabet = Alphabet.from_names([("x", 1), ("y", 1)])
    w = alphabet.word
    rel = Polynomial.from_terms(F3, alphabet, [(1, w("y", "x", "y")), (1, w("x", "y", "x"))])
    system = RewritingSystem.from_relations(alphabet, F3, [rel])
    assert system.is_reduced() and not system.is_complete()[0]
    prefix = ResolutionPrefix(system)
    with pytest.raises(LiftError) as raised:
        prefix.diff[2][w("y", "x", "y", "x", "y")]
    assert str(raised.value) == (
        "lift input is not a cycle: boundary y x x y x . e + 2 x y x x y . e" + STUCK
    )


def test_lift_needing_a_chain_above_the_bound_is_not_liftable():
    # a . a a is a cycle of the a a -> 0 resolution whose lift is .a a a, a
    # chain of degree 3, which a prefix bounded at degree 2 does not list
    prefix = ResolutionPrefix(single_rule_system(), 2)
    a = prefix.alphabet.word("a")
    assert prefix.chains[2] == [] and prefix.boundary(1, {(a, a + a): 1}) == {}
    with pytest.raises(LiftError) as raised:
        prefix.lift_i(2, {(a, a + a): 1})
    assert str(raised.value) == "leading element a.a a of a cycle is not liftable" + STUCK


@pytest.mark.parametrize("level", [0, 1, 2])
def test_lift_names_a_noncycle_at_every_level(prefix3, level):
    # f = d(.t) + e.c lifts d(.t) and then gets stuck; only then is f tested
    # for a cycle, and the error names its boundary d(e.c) = d(.c)
    e = prefix3.alphabet.empty_word
    t, c = prefix3.chains[level][-1], prefix3.chains[level - 1][0]
    f = dict(prefix3.diff[level][t])
    accumulate(f, 1, {(e, c): 1}, prefix3.field.p)
    below = prefix3.boundary(level - 1, {(e, c): 1})
    with pytest.raises(LiftError, match="not a cycle") as raised:
        prefix3.lift_i(level, f)
    assert str(raised.value) == (
        f"lift input is not a cycle: boundary {format_terms(prefix3.alphabet, below)}" + STUCK
    )


def test_inhomogeneous_lift_leads_by_degree():
    # y x y -> 2 y y over F_3 is complete, and its tail leaves the degree of
    # its lhs: tuple order on the word mt would put y . y above y x . y and
    # get the lift stuck, so leads are taken in deglex order
    F3 = PrimeField(3)
    alphabet = Alphabet.from_names([("x", 1), ("y", 1)])
    w = alphabet.word
    rel = Polynomial.from_terms(F3, alphabet, [(1, w("y", "x", "y")), (1, w("y", "y"))])
    system = RewritingSystem.from_relations(alphabet, F3, [rel])
    assert system.is_complete()[0]
    prefix = ResolutionPrefix(system, 8)
    assert prefix.inhomogeneous_rule is system.rules[0]
    tables = {
        (level, alphabet.format(t)): format_terms(alphabet, prefix.diff[level][t])
        for level, t in prefix.generators()
    }
    assert tables == {
        (0, "x"): "x . e",
        (0, "y"): "y . e",
        (1, "y x y"): "y x . y + y . y",
        (2, "y x y x y"): "y x . y x y + y . y x y",
    }
    assert prefix.verify_complex()[0]
