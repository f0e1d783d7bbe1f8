"""Randomized property tests: order laws on words, the deglex order against
an independent reference, normal-form uniqueness for complete systems,
reduction soundness, `make_rule`'s orientation, rank-oracle agreement,
the trie lhs matcher, the irreducible-word automaton, chain levels 2 and
3, no chain a proper suffix of another at its level, the degree-bounded
resolution prefix and chain extension against the unbounded ones, the
grown lhs index and the degree-bounded pair lists against naive scans,
completion against a rebuild per added rule, interreduction and generic
minimalization against their restart loops, the memo of an interreduced
system against a new system's, the completeness claim of an interreduced
system, the obstruction's term order against a formula per kind of pair,
and the normal-form engine against leftmost-first reduction: the normal
forms it gives, on complete systems, after completion and under any rule
order, and the completeness verdicts it gives on any system; and, end to
end, the Betti table of `resolve` and `generic_minimalize` against the
reduced bar construction."""

import functools
import heapq
import itertools
import random
import re
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from anickres import rewriting
from anickres.anick import ResolutionPrefix, extend_chains
from anickres.checks import bar_betti_table
from anickres.fields import PrimeField
from anickres.kostant import big_system, conjectural_system, small_system
from anickres.polynomials import Polynomial, accumulate
from anickres.resolution import (
    GradedComplex,
    generic_minimalize,
    rank_fp,
    rank_fp_oracle,
    resolve,
)
from anickres.rewriting import (
    CompletionCapError,
    CriticalPair,
    RewriteRule,
    RewritingSystem,
    UnorderableRelationError,
    make_rule,
)
from anickres.words import Alphabet, Generator, contains, find, words_up_to_degree

SYSTEM = small_system(1)
ALPHABET = SYSTEM.alphabet
KEY = ALPHABET.sort_key
F2 = PrimeField(2)
F3 = PrimeField(3)

words = st.lists(st.sampled_from(range(len(ALPHABET))), max_size=6).map(tuple)
polys = st.lists(words, min_size=1, max_size=3).map(
    lambda ws: Polynomial.from_terms(F2, ALPHABET, [(1, w) for w in ws])
)


@given(words, words, words)
def test_order_translation_invariant(u, v, w):
    if KEY(u) < KEY(v):
        assert KEY(u + w) < KEY(v + w)
        assert KEY(w + u) < KEY(w + v)


@given(words, words)
def test_order_total(u, v):
    assert (KEY(u) < KEY(v)) + (KEY(v) < KEY(u)) + (u == v) == 1


@given(words, words)
def test_order_multiplication_increases(u, v):
    if v:
        assert KEY(u) < KEY(u + v)


@st.composite
def weighted_alphabets(draw):
    """2-4 generators of degrees 1-3 with distinct, not necessarily
    contiguous ranks, so raw tuple order and deglex disagree."""
    degrees = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n = len(degrees)
    ranks = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True))
    return Alphabet(Generator(f"g{r}", d, r) for d, r in zip(degrees, ranks))


def reference_compare(alphabet, u, v):
    """Degree first, then the rank of the first differing letter; a strict
    prefix is smaller.  Reads degrees and ranks from the generators."""
    gens = [alphabet[i] for i in u], [alphabet[i] for i in v]
    du, dv = (sum(g.degree for g in gs) for gs in gens)
    if du != dv:
        return -1 if du < dv else 1
    for a, b in zip(*gens):
        if a.rank != b.rank:
            return -1 if a.rank < b.rank else 1
    return (len(u) > len(v)) - (len(u) < len(v))


@given(weighted_alphabets(), st.data())
def test_sort_key_is_deglex(alphabet, data):
    letter = st.sampled_from(range(len(alphabet)))
    ws = data.draw(st.lists(st.lists(letter, max_size=5).map(tuple), min_size=1, max_size=8))
    reference = sorted(ws, key=functools.cmp_to_key(lambda u, v: reference_compare(alphabet, u, v)))
    assert sorted(ws, key=alphabet.sort_key) == reference
    # the leading word of a polynomial and the lhs of its rule are the
    # deglex-largest support word
    distinct = list(dict.fromkeys(ws))
    n = len(distinct)
    coeffs = data.draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n))
    f = Polynomial.from_terms(F3, alphabet, list(zip(coeffs, distinct)))
    top = reference[-1]
    assert f.leading_monomial() == top
    if top:
        assert make_rule(f).lhs == top


@st.composite
def orientable_relations(draw):
    """A nonzero relation of up to 4 terms, words of length <= 3 over 2-3
    letters of degree 1-2, p in {2, 3, 5}, homogeneous or not, whose
    leading word is not empty."""
    p = draw(st.sampled_from((2, 3, 5)))
    degrees = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    alphabet = Alphabet.from_names([(f"x{i}", d) for i, d in enumerate(degrees)])
    word = st.lists(st.sampled_from(range(len(degrees))), max_size=3).map(tuple)
    terms = draw(st.lists(st.tuples(st.integers(1, p - 1), word), min_size=1, max_size=4))
    if draw(st.booleans()):
        top = alphabet.degree(terms[0][1])
        terms = [(c, w) for c, w in terms if alphabet.degree(w) == top]
    f = Polynomial.from_terms(PrimeField(p), alphabet, terms)
    assume(not f.is_zero() and f.leading_monomial())
    return f


@given(orientable_relations())
def test_make_rule_orients_onto_the_largest_word(f):
    # make_rule checks no order at run time (its docstring says why the
    # tail lies below the lead); the reference order checks it here
    rule, alphabet = make_rule(f), f.alphabet
    assert rule.lhs in f.terms
    assert all(reference_compare(alphabet, w, rule.lhs) < 0 for w in f.terms if w != rule.lhs)
    assert all(reference_compare(alphabet, w, rule.lhs) < 0 for w in rule.rhs.terms)
    assert rule.polynomial() == f.scale(f.field.inv(f.terms[rule.lhs]))


@given(polys, st.randoms(use_true_random=False))
def test_nf_unique_under_random_strategy(g, rng):
    h = g
    while True:
        candidates = [
            (w, pos, ridx)
            for w in h.terms
            for pos in range(len(w))
            for ridx, rule in enumerate(SYSTEM.rules)
            if w[pos : pos + len(rule.lhs)] == rule.lhs
        ]
        if not candidates:
            break
        w, pos, ridx = rng.choice(candidates)
        coeff = h.terms[w]
        h = h.combine(-coeff, Polynomial.monomial(F2, ALPHABET, w)).combine(
            coeff, SYSTEM.apply_step(w, pos, ridx)
        )
    assert h == SYSTEM.normal_form(g)


@given(st.sampled_from(range(len(SYSTEM.rules))), words, words)
def test_reduction_soundness(ridx, u, v):
    # two-sided multiples of a defining relation reduce to zero
    g = SYSTEM.rules[ridx].polynomial().sandwich(u, v)
    assert SYSTEM.normal_form(g).is_zero()


@given(
    st.sampled_from((2, 3, 5, 257)),
    st.integers(min_value=0, max_value=15),
    st.integers(min_value=0, max_value=15),
    st.integers(),
)
def test_rank_oracle_agreement(p, rows, cols, seed):
    # some rows are all zero; cols = 0 gives rows of no columns; p = 257
    # has residues that fit no byte
    rng = random.Random(seed)
    mat = [
        [rng.randrange(p) for _ in range(cols)] if rng.random() < 0.7 else [0] * cols
        for _ in range(rows)
    ]
    rank = rank_fp(mat, p)
    sparse = [{j: x for j, x in enumerate(row) if x} for row in mat]
    assert rank_fp(sparse, p) == rank
    assert rank == rank_fp_oracle(mat, p)
    # the rank leaves its input rows as they were
    assert sparse == [{j: x for j, x in enumerate(row) if x} for row in mat]


@given(polys, polys)
def test_normal_form_additive(f, g):
    # reduction is linear for a complete system
    assert SYSTEM.normal_form(f.combine(1, g)) == SYSTEM.normal_form(f).combine(
        1, SYSTEM.normal_form(g)
    )


@given(words)
def test_irreducibles_are_fixed_points(w):
    nf = SYSTEM.normal_form(Polynomial.monomial(F2, ALPHABET, w))
    for x in nf.terms:
        assert SYSTEM.is_irreducible_word(x)
    # idempotence
    assert SYSTEM.normal_form(nf) == nf


LETTERS = Alphabet.from_names([("x", 1), ("y", 1), ("z", 2)])


def naive_first_step(rules, w):
    """Reference matcher: every position, then every rule in order."""
    for pos in range(len(w)):
        for ridx, rule in enumerate(rules):
            if w[pos : pos + len(rule.lhs)] == rule.lhs:
                return pos, ridx
    return None


def naive_occurrences(rules, w):
    """Reference: every (position, length) of an lhs in w, in that order."""
    return sorted(
        {
            (pos, len(r.lhs))
            for pos in range(len(w))
            for r in rules
            if w[pos : pos + len(r.lhs)] == r.lhs
        }
    )


@st.composite
def lhs_lists(draw):
    """Left-hand sides over 2-3 letters, with duplicates, nested prefixes and
    a family of up to 6 letters sharing a prefix (so trie nodes branch)."""
    gens = list(range(draw(st.sampled_from((2, 3)))))

    def word(min_size, max_size):
        return st.lists(st.sampled_from(gens), min_size=min_size, max_size=max_size).map(tuple)

    lhss = draw(st.lists(word(1, 4), min_size=1, max_size=6))
    stem = draw(word(1, 3))
    lhss += [stem + tail for tail in draw(st.lists(word(0, 3), max_size=4))]
    # a prefix of full length duplicates the word
    nested = [w[: draw(st.integers(1, len(w)))] for w in lhss if draw(st.booleans())]
    return gens, draw(st.permutations(lhss + nested))


def monomial_system(lhss):
    zero = Polynomial(F2, LETTERS)
    return RewritingSystem(LETTERS, F2, [RewriteRule(w, zero) for w in lhss])


@given(lhs_lists(), st.data())
def test_indexed_first_step_matches_naive_scan(gens_lhss, data):
    gens, lhss = gens_lhss
    probe = st.lists(st.sampled_from(gens), max_size=9).map(tuple)
    probes = data.draw(st.lists(probe, max_size=10))
    for order in (lhss, lhss[::-1]):
        system = monomial_system(order)
        for w in probes:
            assert system.first_step(w) == naive_first_step(system.rules, w)
            assert system.is_irreducible_word(w) == (naive_occurrences(system.rules, w) == [])


@given(lhs_lists())
def test_irreducible_words_match_naive_scan(gens_lhss):
    _gens, lhss = gens_lhss
    system = monomial_system(lhss)
    expected = [
        w for w in words_up_to_degree(LETTERS, 5) if naive_first_step(system.rules, w) is None
    ]
    assert system.irreducible_words(5) == expected
    assert system.irreducible_counts_by_degree(5) == Counter(map(LETTERS.degree, expected))


def naive_critical_pairs(rules, idx1, idx2):
    """Reference: every ordered rule pair, overlaps by suffix/prefix
    comparison and inclusions by `find` from each position."""
    pairs = []
    seen = set()
    idx2 = list(idx2)
    for i in idx1:
        m1 = rules[i].lhs
        for j in idx2:
            m2 = rules[j].lhs
            for t in range(1, min(len(m1), len(m2))):
                if m2[len(m2) - t :] == m1[:t]:
                    key = (i, j, "overlap", t)
                    if key not in seen:
                        seen.add(key)
                        pairs.append(
                            CriticalPair(m2 + m1[t:], i, j, "overlap", m2[: len(m2) - t])
                        )
            if i != j and len(m1) <= len(m2):
                if m1 == m2:
                    pairs.append(CriticalPair(m2, i, j, "inclusion", ()))
                    continue
                start = 0
                while (pos := find(m2, m1, start)) >= 0:
                    pairs.append(CriticalPair(m2, i, j, "inclusion", m2[:pos]))
                    start = pos + 1
    return pairs


def below(pairs, bound):
    return [cp for cp in pairs if LETTERS.degree(cp.tip) <= bound]


@given(lhs_lists(), st.integers(0, 14))
def test_grown_lhs_index_matches_the_pair_scan(gens_lhss, bound):
    # each new rule's pairs as the system's lhs trie lists them when the rule
    # is added, in order too: completion pushes them as listed here
    _gens, lhss = gens_lhss
    system = monomial_system(lhss)
    rules = system.rules
    for new in range(len(rules)):
        grown = system.with_rules(rules[: new + 1])
        upto = range(new + 1)
        scan = naive_critical_pairs(rules, upto, [new]) + naive_critical_pairs(
            rules, [new], upto
        )
        pairs = grown._pairs_as_second(new, bound) + grown._pairs_as_first(new, bound)
        assert pairs == below(scan, bound)
    every = range(len(rules))
    scan = naive_critical_pairs(rules, every, every)
    assert system.find_critical_pairs() == scan
    assert system.find_critical_pairs(bound) == below(scan, bound)


@given(lhs_lists(), st.data())
def test_lhs_overhangs_match_a_scan_of_the_rules(gens_lhss, data):
    # one v per start i and lhs word, duplicate and nested lhs included: the
    # occurrence tests extend_chains runs are counted against this list
    gens, lhss = gens_lhss
    system = monomial_system(lhss)
    probe = st.lists(st.sampled_from(gens), max_size=6).map(tuple)
    for u in data.draw(st.lists(probe, max_size=10)):
        scan = [
            lhs[len(u) - i :]
            for i in range(len(u))
            for lhs in set(lhss)
            if len(lhs) > len(u) - i and lhs[: len(u) - i] == u[i:]
        ]
        assert Counter(system.lhs_overhangs(u)) == Counter(scan)


@st.composite
def overlapping_antichains(draw, max_length=5):
    """Antichains of left-hand sides of 2-max_length letters over 2-3
    letters: the containment-minimal words of up to 6 drawn ones, so that
    the monomial system is reduced.  With no single-letter lhs to absorb
    the longer ones, about four examples in five have chains at levels 2
    and 3."""
    gens = list(range(draw(st.sampled_from((2, 3)))))
    word = st.lists(st.sampled_from(gens), min_size=2, max_size=max_length).map(tuple)
    antichain = []
    for w in sorted(set(draw(st.lists(word, min_size=1, max_size=6))), key=len):
        if not any(contains(w, u) for u in antichain):
            antichain.append(w)
    return antichain


@given(overlapping_antichains())
def test_chains_T2_are_the_minimal_tips(antichain):
    system = monomial_system(antichain)
    # every u m1 = m2 v glued from a proper suffix/prefix match, self-overlaps included
    tips = {
        m2 + m1[t:]
        for m1 in antichain
        for m2 in antichain
        for t in range(1, min(len(m1), len(m2)))
        if m2[len(m2) - t :] == m1[:t]
    }
    minimal = sorted(
        (w for w in tips if not any(t != w and contains(w, t) for t in tips)),
        key=LETTERS.sort_key,
    )
    level1 = sorted(((w, w[1:]) for w in antichain), key=lambda tu: LETTERS.sort_key(tu[0]))
    level2 = extend_chains(system, level1)
    assert [t for t, _u in level2] == minimal
    assert ResolutionPrefix(system).chains[2] == minimal
    assert level2 == naive_next_level(antichain, level1)
    assert extend_chains(system, level2) == naive_next_level(antichain, level2)


def chain_levels(system, max_degree):
    """The chains of degree <= max_degree at levels 1, 2, ..., level 1 the
    left-hand sides and each above by `extend_chains` from the one below,
    up to the first empty level."""
    degree = system.alphabet.degree
    pairs = [(L, L[1:]) for L in system.lhs_words() if degree(L) <= max_degree]
    levels = []
    while pairs:
        levels.append([t for t, _u in pairs])
        pairs = extend_chains(system, pairs, max_degree)
    return levels


def proper_suffix_pairs(levels):
    """(t, t') for each chain t' that is a proper suffix of a chain t at
    the same level."""
    pairs = []
    for chains in levels:
        present = set(chains)
        pairs += [(t, t[q:]) for t in chains for q in range(1, len(t)) if t[q:] in present]
    return pairs


UNIT_LETTERS = Alphabet.from_names([("x", 1), ("y", 1), ("z", 1)])


@settings(max_examples=300, deadline=None)
@given(overlapping_antichains(max_length=6))
def test_no_chain_is_a_proper_suffix_of_another_on_antichains(antichain):
    # the lemma behind the basis order at every level (see GradedComplex)
    zero = Polynomial(F2, UNIT_LETTERS)
    system = RewritingSystem(UNIT_LETTERS, F2, [RewriteRule(w, zero) for w in antichain])
    assert proper_suffix_pairs(chain_levels(system, 12)) == []


@pytest.mark.parametrize(
    "build", [lambda: small_system(2), lambda: big_system(3, 3, 2).interreduce()],
    ids=["small l=2", "big(3,3,2)"],
)
def test_no_chain_is_a_proper_suffix_of_another_on_the_builtins(build):
    levels = chain_levels(build(), 12)
    assert len(levels) > 2  # chains above level 2, which resolve does not build
    assert proper_suffix_pairs(levels) == []


def naive_next_level(antichain, level):
    """Reference: t v for each (chain t, tail u) and each v of up to the
    longest lhs letters, enumerated letter by letter, such that u v ends in
    an lhs that starts inside u and no proper prefix of u v longer than u
    contains an lhs; (t v, v) sorted by chain."""
    letters = sorted({x for w in antichain for x in w})
    out = []
    for t, u in level:
        for k in range(1, max(map(len, antichain)) + 1):
            for v in itertools.product(letters, repeat=k):
                w = u + v
                if any(
                    len(w) - len(L) < len(u) and w[len(w) - len(L) :] == L for L in antichain
                ) and not any(
                    contains(w[:j], L) for j in range(len(u) + 1, len(w)) for L in antichain
                ):
                    out.append((t + v, v))
    return sorted(out, key=lambda tv: LETTERS.sort_key(tv[0]))


def per_rule_reduced(system):
    """Reference: each lhs is irreducible modulo the other rules, and each
    tail word modulo all of them."""
    for i, rule in enumerate(system.rules):
        others = system.with_rules(system.rules[:i] + system.rules[i + 1 :])
        if not others.is_irreducible_word(rule.lhs):
            return False
        if any(not system.is_irreducible_word(w) for w in rule.rhs.terms):
            return False
    return True


@given(lhs_lists(), st.data())
def test_is_reduced_matches_per_rule_definition(gens_lhss, data):
    gens, lhss = gens_lhss
    word = st.lists(st.sampled_from(gens), max_size=3).map(tuple)
    tails = data.draw(st.lists(st.lists(word, max_size=2), min_size=len(lhss), max_size=len(lhss)))
    rules = [
        RewriteRule(w, Polynomial.from_terms(F2, LETTERS, [(1, x) for x in tail]))
        for w, tail in zip(lhss, tails)
    ]
    system = RewritingSystem(LETTERS, F2, rules)
    assert system.is_reduced() == per_rule_reduced(system)


def restart_interreduce(system, max_passes=1_000):
    """Reference: reduce or drop the first rule that is not reduced modulo
    the others, then start over, until no rule changes."""
    rules = list(system.rules)
    for _ in range(max_passes):
        for i in range(len(rules)):
            others = system.with_rules(rules[:i] + rules[i + 1 :])
            nf = others.normal_form(rules[i].polynomial())
            if nf.is_zero():
                del rules[i]
                break
            new_rule = make_rule(nf)
            if new_rule != rules[i]:
                rules[i] = new_rule
                break
        else:
            return rules
    raise RuntimeError("interreduction did not stabilize")


@st.composite
def relation_systems(draw):
    """Rules oriented from random relations over 2-3 letters of degree 1-2,
    p in {2, 3, 5}: tails may hold reducible words, and the system is in
    general not confluent.  Half the draws keep only an antichain of
    left-hand sides (no lhs repeats or contains another); the others may
    hold repeated and nested left-hand sides."""
    p = draw(st.sampled_from((2, 3, 5)))
    field = PrimeField(p)
    degrees = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    alphabet = Alphabet.from_names([(f"x{i}", d) for i, d in enumerate(degrees)])
    word = st.lists(st.sampled_from(range(len(degrees))), max_size=4).map(tuple)
    relation = st.lists(st.tuples(st.integers(1, p - 1), word), min_size=1, max_size=4)
    rules = []
    for terms in draw(st.lists(relation, min_size=1, max_size=7)):
        f = Polynomial.from_terms(field, alphabet, terms)
        if f.is_zero() or not f.leading_monomial():
            continue
        rule = make_rule(f)
        if draw(st.booleans()) or not any(
            contains(rule.lhs, r.lhs) or contains(r.lhs, rule.lhs) for r in rules
        ):
            rules.append(rule)
    return RewritingSystem(alphabet, field, rules)


def letter_system(p, n, rules):
    """The system over F_p and n letters x0 < ... of degree 1 whose rules
    are (lhs, [(c, tail word), ...]) as given, in order."""
    field = PrimeField(p)
    alphabet = Alphabet.from_names([(f"x{i}", 1) for i in range(n)])
    return RewritingSystem(
        alphabet,
        field,
        [RewriteRule(lhs, Polynomial.from_terms(field, alphabet, tail)) for lhs, tail in rules],
    )


# x1 x1 -> x1 x0 + x0 x1 has only its tail reduced, to 2 x0 x1, and the scan
# goes on to x1 x0 x0, whose lhs holds x1 x0: it is dropped
TAIL_THEN_DROP = letter_system(
    3, 2, [((1, 1), [(1, (1, 0)), (1, (0, 1))]), ((1, 0), [(1, (0, 1))]),
           ((1, 0, 0), [(1, (0, 0, 1))])],
)
# the repeated lhs x1 x1 -> x0 x1 becomes x0 x1 -> x0 x0, whose lhs lies in
# the earlier x1 x0 x1: the scan must start over to reduce that rule
REWRITE_INSIDE_AN_EARLIER_LHS = letter_system(
    2, 2, [((1, 0, 1), []), ((1, 1), [(1, (0, 1))]), ((1, 1), [(1, (0, 0))])]
)
# three tail edits: the second reduces x3 x0 x3 through x3 x0 -> x1 x2, and
# the third sets that rule's tail to x0; the system is not confluent
# (x1 x2 x3 gives x0 x3 and x1 x0), so a memo entry kept from before the
# third edit would give x3 x0 x3 the normal form x1 x0 instead of x0 x3
STALE_AFTER_A_TAIL_EDIT = letter_system(
    2, 4, [((3, 3, 2), [(1, (1, 2))]), ((3, 3, 3), [(1, (3, 0, 3))]), ((3, 0), [(1, (1, 2))]),
           ((1, 2), [(1, (0,))]), ((2, 3), [(1, (0,))])],
)

# x1 x0 x0 is dropped through x1 x0, whose first copy is dropped next
# through the second; x1 x1 gets the tail 0, and x0 x1 x0, which holds
# x1 x0, is dropped
DROP_THROUGH_A_RULE_DROPPED_LATER = letter_system(
    2, 2, [((1, 0, 0), []), ((1, 0), []), ((1, 0), []), ((1, 1), [(1, (1, 0, 0))]),
           ((0, 1, 0), [(1, (1, 1))])],
)
# x1 x0 x0 is dropped, then x1 x0 x1 -> x0 x0 x0 becomes x0 x0 x0 -> 0: the
# lowered lhs starts the scan over on a system without the dropped rule
DROP_THEN_LOWER_AN_LHS = letter_system(
    2, 2, [((1, 0), []), ((1, 0, 0), []), ((1, 0, 1), [(1, (0, 0, 0))])]
)


def rule_terms(rules):
    """Rules with the order of their tail terms, which later reductions follow."""
    return [(r.lhs, list(r.rhs.terms.items())) for r in rules]


@given(relation_systems())
@example(TAIL_THEN_DROP)
@example(REWRITE_INSIDE_AN_EARLIER_LHS)
@example(DROP_THROUGH_A_RULE_DROPPED_LATER)
@example(DROP_THEN_LOWER_AN_LHS)
def test_interreduce_matches_the_restart_loop(system):
    try:
        expected = restart_interreduce(system)
    except ValueError as exc:  # a relation reduced to a nonzero constant
        with pytest.raises(type(exc)):
            system.interreduce()
        return
    reduced = system.interreduce()
    assert rule_terms(reduced.rules) == rule_terms(expected)
    assert reduced.is_reduced()


@given(relation_systems())
@example(STALE_AFTER_A_TAIL_EDIT)
def test_interreduced_memo_matches_a_new_system(system):
    # rules are taken out and put back with new tails on a working system
    # whose memo served each reduction; on systems that are not confluent a
    # stale entry would give another normal form than a new system with the
    # same rules
    try:
        reduced = system.interreduce()
    except ValueError:  # a relation reduced to a nonzero constant
        return
    fresh = reduced.with_rules(reduced.rules)
    bound = max(map(system.alphabet.degree, system.lhs_words()), default=0)
    for w in words_up_to_degree(system.alphabet, bound):
        assert list(reduced.normal_form_word(w).items()) == list(
            fresh.normal_form_word(w).items()
        )


def complete_capped(system, degree_bound):
    """`system.complete(degree_bound)` with its cap lowered to 12 new rules,
    so that a draw whose completion grows fast ends quickly."""
    with patch.object(rewriting, "_NEW_RULE_CAP", 12):
        return system.complete(degree_bound)


def rebuild_complete(system, degree_bound, max_new_rules):
    """Reference: completion building a new system, with an empty memo, for
    every added rule, and repeating until a full `is_complete` finds no
    witness."""
    rules = list(system.rules)
    counter = itertools.count()
    heap = []
    key = system.alphabet.sort_key

    def push_pairs(pairs):
        for cp in pairs:
            if key(cp.tip)[0] <= degree_bound:
                heapq.heappush(heap, (key(cp.tip), next(counter), cp))

    push_pairs(naive_critical_pairs(rules, range(len(rules)), range(len(rules))))
    current = system.with_rules(rules)
    while True:
        while heap:
            _, _, cp = heapq.heappop(heap)
            nf = current.normal_form(current.pair_obstruction(cp))
            if nf.is_zero():
                continue
            rules.append(make_rule(nf))
            current = system.with_rules(rules)
            if len(rules) - len(system.rules) > max_new_rules:
                raise CompletionCapError(
                    f"completion cap of {max_new_rules} new rules exceeded",
                    system.with_rules(rules),
                )
            new = len(rules) - 1
            push_pairs(
                naive_critical_pairs(rules, range(len(rules)), [new])
                + naive_critical_pairs(rules, [new], range(len(rules)))
            )
        ok, witnesses = current.is_complete(degree_bound)
        if ok:
            done = system.with_rules(rules)
            done.complete_up_to = degree_bound
            return done
        for cp, _ in witnesses:
            heapq.heappush(heap, (key(cp.tip), next(counter), cp))


@st.composite
def presentations(draw, homogeneous=None):
    """Up to 4 relations of up to 3 terms, words of length <= 3 over 2-3
    letters of degree 1-2, p in {2, 3, 5}, all homogeneous or not (drawn
    unless given); and a completion degree bound in 3..6."""
    p = draw(st.sampled_from((2, 3, 5)))
    field = PrimeField(p)
    degrees = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    alphabet = Alphabet.from_names([(f"x{i}", d) for i, d in enumerate(degrees)])
    word = st.lists(st.sampled_from(range(len(degrees))), max_size=3).map(tuple)
    relation = st.lists(st.tuples(st.integers(1, p - 1), word), min_size=1, max_size=3)
    if homogeneous is None:
        homogeneous = draw(st.booleans())
    rules = []
    for terms in draw(st.lists(relation, min_size=1, max_size=4)):
        if homogeneous:
            top = alphabet.degree(terms[0][1])
            terms = [(c, w) for c, w in terms if alphabet.degree(w) == top]
        f = Polynomial.from_terms(field, alphabet, terms)
        if not f.is_zero() and f.leading_monomial():
            rules.append(make_rule(f))
    return RewritingSystem(alphabet, field, rules), draw(st.integers(3, 6))


def outcome(run):
    """The rules as text, in order, or the error a completion raised."""
    try:
        done = run()
    except CompletionCapError as exc:
        return "cap", str(exc), [str(r) for r in exc.partial.rules]
    except UnorderableRelationError as exc:
        return "unorderable", str(exc)
    return done.complete_up_to, [str(r) for r in done.rules]


def dropped_memo_case():
    """x0 (degree 1), x1 (degree 2) over F_2, completed to degree 6: the
    rule x0 x0 x0 -> x0 x0 + x0 (degree 3) is added while x0 x0 x0 x1
    (degree 5) is memoized as x0 x0 x0, which holds the new lhs."""
    alphabet = Alphabet.from_names([("x0", 1), ("x1", 2)])
    relations = [
        [(1, (1, 1)), (1, (0, 0, 1)), (1, (1, 0))],
        [(1, (0, 1)), (1, (0,))],
    ]
    rules = [make_rule(Polynomial.from_terms(F2, alphabet, terms)) for terms in relations]
    return RewritingSystem(alphabet, F2, rules), 6


def chain_in_reduced_case():
    """x0 x0 x1 -> 2 x0 x0 x0, x0 x1 x1 -> x0 x1 x0, x1 x1 x0 -> 2 x1 x0 x1
    over F_3, completed to degree 5: the overlap tip x0 x0 x1 x1 x0 of the
    first and third rules holds x0 x1 x1 at position 1, and the working
    system is reduced when that pair is popped."""
    alphabet = Alphabet.from_names([("x0", 1), ("x1", 1)])
    relations = [
        [(1, (0, 0, 1)), (1, (0, 0, 0))],
        [(1, (0, 1, 1)), (2, (0, 1, 0))],
        [(1, (1, 1, 0)), (1, (1, 0, 1))],
    ]
    rules = [make_rule(Polynomial.from_terms(F3, alphabet, terms)) for terms in relations]
    return RewritingSystem(alphabet, F3, rules), 5


def chain_in_an_lhs_case():
    """x1 x1 x0 -> x0 x1 x1, x1 x0 -> 2 x0 x1, x0 x0 -> 0 over F_3, completed
    to degree 4: the system is not reduced, and the overlap tip x1 x1 x0 x0
    of the first and third rules holds the second lhs inside the first."""
    alphabet = Alphabet.from_names([("x0", 1), ("x1", 1)])
    relations = [[(1, (1, 1, 0)), (2, (0, 1, 1))], [(1, (1, 0)), (1, (0, 1))], [(1, (0, 0))]]
    rules = [make_rule(Polynomial.from_terms(F3, alphabet, terms)) for terms in relations]
    return RewritingSystem(alphabet, F3, rules), 4


@pytest.mark.parametrize("case", [chain_in_reduced_case, chain_in_an_lhs_case])
def test_the_chain_criterion_examples_discharge_a_pair(monkeypatch, case):
    # the explicit examples below keep completion's chain criterion in the
    # comparison with the reference, which reduces every pair
    system, bound = case()
    calls = []
    obstruction = RewritingSystem.pair_obstruction

    def counted(self, cp):
        calls.append(cp)
        return obstruction(self, cp)

    monkeypatch.setattr(RewritingSystem, "pair_obstruction", counted)
    completed = system.complete(bound)
    assert len(calls) < len(completed.find_critical_pairs(bound))


@given(presentations(), st.lists(st.lists(st.integers(0, 2), max_size=6), max_size=8))
@example(dropped_memo_case(), [[0, 0, 0, 1], [0, 0, 0], [1, 0, 0, 0], [0, 1, 1]])
@example(chain_in_reduced_case(), [[0, 0, 1, 1, 0], [0, 1, 1, 1], [1, 1, 0, 0]])
@example(chain_in_an_lhs_case(), [[1, 1, 0, 0], [1, 1, 0], [0, 1, 1, 0]])
def test_complete_matches_the_rebuild_per_rule_loop(case, probes):
    # completion returns its working system: read through the memo it
    # carried, each probe's normal form equals that of a new system.  The
    # reference reduces every pair, so the pairs that completion discharges
    # by the chain criterion must be ones that reduce to 0
    system, bound = case
    completed = []

    def run():
        completed.append(complete_capped(system, bound))
        return completed[0]

    assert outcome(run) == outcome(lambda: rebuild_complete(system, bound, max_new_rules=12))
    n = len(system.alphabet)
    for done in completed:
        fresh = done.with_rules(done.rules)
        for w in probes:
            w = tuple(x % n for x in w)
            assert done.normal_form_word(w) == fresh.normal_form_word(w)


def odd_sign_case():
    """x0 x1 x0 + x0 x0 x0 over F_3 (x0, x1 of degree 1), resolved to
    degree 5: its level-2 differentials subtract a nonzero lift, so a wrong
    sign there breaks exactness at level 1."""
    alphabet = Alphabet.from_names([("x0", 1), ("x1", 1)])
    relation = Polynomial.from_terms(F3, alphabet, [(1, (0, 1, 0)), (1, (0, 0, 0))])
    return RewritingSystem(alphabet, F3, [make_rule(relation)]), 3


def incomplete_case():
    """y x y + x y x over F_3 (x, y of degree 1), bound 4: interreduced it
    is one rule whose self-overlap at y x y x y does not resolve, and
    `resolve` completes it to three rules before the chains are read."""
    alphabet = Alphabet.from_names([("x", 1), ("y", 1)])
    relation = Polynomial.from_terms(F3, alphabet, [(1, (1, 0, 1)), (1, (0, 1, 0))])
    return RewritingSystem(alphabet, F3, [make_rule(relation)]), 4


def inhomogeneous_case():
    """y x y -> 2 y y over F_3 (x, y of degree 1), bound 8: complete, with a
    tail that leaves the degree of its lhs, and chains up to y x y x y at
    level 2."""
    alphabet = Alphabet.from_names([("x", 1), ("y", 1)])
    relation = Polynomial.from_terms(F3, alphabet, [(1, (1, 0, 1)), (1, (1, 1))])
    return RewritingSystem(alphabet, F3, [make_rule(relation)]), 8


def lowered_lhs_case():
    """x0 x1 -> x1, x0 x1 x0 -> 0 over F_2 (deg x0 = 2, deg x1 = 1), bound 4:
    interreducing its completion rewrites the degree-5 rule to x1 x0 -> 0,
    of degree 3, whose pairs no completion resolved."""
    alphabet = Alphabet.from_names([("x0", 2), ("x1", 1)])
    relations = [[(1, (0, 1)), (1, (1,))], [(1, (0, 1, 0))]]
    rules = [make_rule(Polynomial.from_terms(F2, alphabet, terms)) for terms in relations]
    return RewritingSystem(alphabet, F2, rules), 4


def test_interreduce_drops_the_claim_of_a_lowered_lhs():
    system, bound = lowered_lhs_case()
    completed = system.complete(bound)
    assert completed.complete_up_to == bound and completed.is_complete(bound)[0]
    reduced = completed.interreduce()
    assert [str(r) for r in reduced.rules] == ["x0 x1 -> x1", "x1 x0 -> 0"]
    assert not reduced.is_complete(bound)[0]
    assert reduced.complete_up_to is None


def completed_up_to(system, bound, rounds=3):
    """`complete(bound).interreduce()` until the result is complete up to
    the bound, at most `rounds` times; None if it never is or a completion
    fails."""
    try:
        for _ in range(rounds):
            system = complete_capped(system, bound).interreduce()
            if system.is_complete(bound)[0]:
                return system
    except (CompletionCapError, UnorderableRelationError):
        pass
    return None


@settings(max_examples=50, deadline=None)
@given(presentations(homogeneous=False))
@example(lowered_lhs_case())
def test_an_interreduced_completion_claims_only_what_holds(case):
    # only completion sets `complete_up_to`: interreduction hands back its
    # input, claim included, when no rule changes, and otherwise a system
    # with no claim, so every claim left is one completion checked
    system, bound = case
    try:
        completed = complete_capped(system, bound)
        system = completed.interreduce()
    except (CompletionCapError, UnorderableRelationError):
        assume(False)
    assert system is completed or system.complete_up_to is None
    if system.complete_up_to == bound:
        assert system.is_complete(bound)[0]


@st.composite
def inhomogeneous_antichain_systems(draw):
    """Left-hand sides from `overlapping_antichains` over three letters of
    degree 1, each rule given up to 2 nonempty tail words of lower degree
    with nonzero coefficients, p in {2, 3, 5}, and a completion bound in
    4..7.  Unlike `presentations(homogeneous=False)`, about a third of the
    draws that complete keep an inhomogeneous rule and a level-2 chain."""
    p = draw(st.sampled_from((2, 3, 5)))
    field = PrimeField(p)
    alphabet = Alphabet.from_names([(f"x{i}", 1) for i in range(3)])
    rules = []
    for lhs in draw(overlapping_antichains()):
        tail_word = st.lists(st.sampled_from(range(3)), min_size=1, max_size=len(lhs) - 1)
        tail = draw(st.dictionaries(tail_word.map(tuple), st.integers(1, p - 1), max_size=2))
        terms = [(1, lhs)] + [(-c, w) for w, c in tail.items()]
        rules.append(make_rule(Polynomial.from_terms(field, alphabet, terms)))
    return RewritingSystem(alphabet, field, rules), draw(st.integers(4, 7))


@settings(max_examples=100, deadline=None)
@given(st.one_of(presentations(homogeneous=False), inhomogeneous_antichain_systems()))
@example(inhomogeneous_case())
@example(lowered_lhs_case())
def test_lift_inverts_the_boundary_on_inhomogeneous_systems(case):
    # off one degree, deglex is not tuple order on the word mt: the lift,
    # led by deglex, lifts every boundary d(.t) of an augmented system
    # complete up to the bound (draws that complete to a homogeneous
    # system stay in: there the lift leads by tuple order); the antichain
    # systems reach level 2 with an inhomogeneous rule
    system, bound = case
    system = completed_up_to(system, bound)
    assume(system is not None)
    assume(all(system.alphabet.empty_word not in r.rhs.terms for r in system.rules))
    prefix = ResolutionPrefix(system, bound)
    for level, t in prefix.generators():
        f = prefix.diff[level][t]
        assert prefix.boundary(level, prefix.lift_i(level, f)) == f
    # the lift needs no level -1 step: on an augmented system delta(.x) has
    # no e.e term, so d_0 = delta and tabulating it lifts nothing
    for x in range(len(system.alphabet)):
        assert prefix.boundary(-1, prefix.delta(0, (x,))) == {}


@settings(max_examples=60, deadline=None)
@given(presentations(homogeneous=True), st.integers(0, 2))
@example(odd_sign_case(), 2)
@example(incomplete_case(), 2)
def test_resolve_then_minimalize_agrees_with_the_bar_construction(case, raise_D):
    # end to end on random presentations: the Betti table that betti prints
    # (resolve, then generic_minimalize) is exact at levels -1..1, and its
    # rows 0-2 equal Tor from the reduced bar construction, which shares no
    # chain, lift or greedy rank with it
    system, bound = case
    D = bound + raise_D
    try:
        gc = resolve(system, D)
    except CompletionCapError:
        assume(False)
    minimal = generic_minimalize(gc)
    assert minimal.verify_exactness([-1, 0, 1], D) == {}
    table = minimal.betti_table(D)
    try:
        bar = bar_betti_table(gc.system, D, 3)
    except ValueError as exc:
        if not str(exc).startswith("bar construction exceeded its cap"):
            raise
        assume(False)
    assert {n: table[n] for n in (0, 1, 2)} == bar


def shared_words(gc, max_degree):
    """(level, d, w) for each word w = mt that two basis elements m.t of
    degree d <= max_degree share at one level, levels -1..top."""
    return [
        (level, d, w)
        for level in range(-1, gc.top + 1)
        for d in range(max_degree + 1)
        for w, count in Counter(m + t for m, t in gc.basis(level, d)).items()
        if count > 1
    ]


SHARED_WORD_BUILTINS = {
    "small l=3": (lambda: small_system(3), 14),
    "big(3,3,2)": (lambda: big_system(3, 3, 2), 9),
    "big(4,3,2)": (lambda: big_system(4, 3, 2), 8),
    "big(4,2,3)": (lambda: big_system(4, 2, 3), 8),
    "odd_p_n3 index 1": (lambda: conjectural_system("odd_p_n3", 3, 3, 1), 9),
    "p2_general_n n=4 index 1": (lambda: conjectural_system("p2_general_n", 4, 2, 1), 8),
}


@pytest.mark.parametrize("name", SHARED_WORD_BUILTINS)
def test_no_two_basis_elements_share_a_word_on_the_builtins(name):
    # the basis order is the word mt alone (see GradedComplex): resolved up
    # to D, completed where needed, no two basis elements at a level share it
    build, D = SHARED_WORD_BUILTINS[name]
    assert shared_words(resolve(build(), D), D) == []


def test_chains_outside_a_reduced_system_can_share_a_word():
    # the check sees a shared word where one can occur: over the free
    # algebra, chains y and x y at one level give x.y and e.xy
    prefix = ResolutionPrefix(RewritingSystem(TWO_LETTERS, F2, []))
    x, y = (0,), (1,)
    gc = GradedComplex(prefix, {-1: [()], 0: [x, y], 1: [y, x + y]}, {})
    assert shared_words(gc, 2) == [(1, 2, x + y)]


@settings(max_examples=60, deadline=None)
@given(presentations(homogeneous=True))
@example(odd_sign_case())
@example(incomplete_case())
def test_no_two_basis_elements_share_a_word_after_resolve(case):
    system, bound = case
    try:
        gc = resolve(system, bound)
    except CompletionCapError:
        assume(False)
    assert shared_words(gc, bound) == []


def restart_minimalize(complex_):
    """Reference: cancel the first unit constant entry e.t' of any
    differential d_n(.t), lowest level first, rebuild every differential of
    the level and of the level above, then start the scan over."""
    chains = {lvl: list(ts) for lvl, ts in complex_.chains.items()}
    diff = {lvl: dict(tab) for lvl, tab in complex_.diff.items()}
    prefix = complex_.prefix
    field = complex_.field
    alphabet = complex_.alphabet
    while True:
        hit = None
        for level in sorted(diff):
            for t in chains[level]:
                for (m, t2), c in diff[level][t].items():
                    if not m:
                        hit = (level, t, t2, c)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            return GradedComplex(prefix, chains, diff)
        level, t, t2, c = hit
        inv = field.inv(c)
        d_t = diff[level][t]
        chains[level] = [s for s in chains[level] if s != t]
        chains[level - 1] = [s for s in chains[level - 1] if s != t2]
        del diff[level][t]
        for s in chains[level]:
            terms = dict(diff[level][s])
            carriers = [(m, cc) for (m, tt), cc in terms.items() if tt == t2]
            for m, cc in carriers:
                accumulate(terms, -cc * inv, prefix.act(m, d_t), field.p)
            if any(tt == t2 for (_m, tt) in terms):
                ft, ft2, fs = alphabet.format(t), alphabet.format(t2), alphabet.format(s)
                raise ValueError(
                    f"cancelling .{ft} against .{ft2} left .{ft2} in d_{level}(.{fs}): "
                    f"the pivot of d_{level}(.{ft}) is not a bare scalar"
                )
            diff[level][s] = terms
        if level + 1 in diff:
            for s in chains[level + 1]:
                diff[level + 1][s] = {
                    key: cc for key, cc in diff[level + 1][s].items() if key[1] != t
                }


TWO_LETTERS = Alphabet.from_names([("x", 1), ("y", 1)])


@st.composite
def free_complexes(draw):
    """Chain levels 1..top (top in 1..3) of 1-4 random chains each over the
    free algebra on two letters (no rules, so the algebra is augmented),
    p in {2, 3, 5}.  Each d(.t) holds up to 4 terms m.t' with t' a chain
    one level down and m a word of length <= 2.  d o d need not vanish:
    minimalization reads only the terms.  Two basis elements m.t and m'.t'
    at one level may share the word mt here, which no reduced system's
    chains allow, so no basis or rank is read off these complexes."""
    p = draw(st.sampled_from((2, 3, 5)))
    field = PrimeField(p)
    prefix = ResolutionPrefix(RewritingSystem(TWO_LETTERS, field, []))
    chains = {-1: prefix.chains[-1], 0: prefix.chains[0]}
    diff = {0: {t: prefix.diff[0][t] for t in chains[0]}}
    letters = st.sampled_from((0, 1))
    coefficient_word = st.lists(letters, max_size=2).map(tuple)
    chain = st.lists(letters, min_size=1, max_size=4).map(tuple)
    for level in range(1, draw(st.integers(1, 3)) + 1):
        chains[level] = draw(st.lists(chain, min_size=1, max_size=4, unique=True))
        target = st.sampled_from(chains[level - 1])
        term = st.tuples(st.tuples(coefficient_word, target), st.integers(1, p - 1))
        terms = st.lists(term, max_size=4).map(dict)
        diff[level] = {t: draw(terms) for t in chains[level]}
    return GradedComplex(prefix, chains, diff)


def carried_complex():
    """Over F_3, d(.xx) = e.x + x.y cancels x, which turns d(.xy) = y.x into
    -yx.y: a term on y that d(.xy) did not carry before, and which the next
    pivot, d(.yy) = e.y, must clear."""
    field = PrimeField(3)
    prefix = ResolutionPrefix(RewritingSystem(TWO_LETTERS, field, []))
    e, x, y = (), (0,), (1,)
    chains = {-1: [e], 0: [x, y], 1: [x + x, x + y, y + y]}
    diff = {
        0: {t: prefix.diff[0][t] for t in chains[0]},
        1: dict(zip(chains[1], [{(e, x): 1, (x, y): 1}, {(y, x): 1}, {(e, y): 1}])),
    }
    return GradedComplex(prefix, chains, diff)


def differential_terms(gc):
    """Each surviving chain with its differential's terms, in order."""
    return {
        lvl: [(t, list(gc.diff[lvl][t].items())) for t in gc.chains[lvl]]
        for lvl in gc.diff
    }


@given(free_complexes())
@example(carried_complex())
def test_generic_minimalize_matches_the_restart_loop(gc):
    try:
        expected = restart_minimalize(gc)
    except ValueError as exc:
        # the same pivot fails; the differential named may differ
        pivot = str(exc).split(" left ")[0]
        with pytest.raises(ValueError, match=re.escape(pivot)):
            generic_minimalize(gc)
        return
    result = generic_minimalize(gc)
    assert result.chains == expected.chains
    assert differential_terms(result) == differential_terms(expected)
    assert all(result.radical_image_check(lvl)[0] for lvl in result.diff)


NONCYCLE_DEGREE = 8


@functools.cache
def real_chains(name):
    """The chain sets up to degree 8 of a complete system, and a complex on
    them whose bases give each chain t the basis elements of degree deg t
    one level down."""
    systems = {
        "small l=2": lambda: small_system(2),
        "big(3,3,2)": lambda: big_system(3, 3, 2).interreduce(),
        "big(3,5,4)": lambda: big_system(3, 5, 4).interreduce(),
    }
    prefix = ResolutionPrefix(systems[name](), NONCYCLE_DEGREE)
    return GradedComplex(prefix, prefix.chains, {})


@st.composite
def noncycle_complexes(draw):
    """The chain sets of small l=2 (p = 2), big(3,3,2) (p = 3) or big(3,5,4)
    (p = 5) up to degree 8, with random homogeneous differentials: d(.t)
    holds up to 3 random basis elements m.t' of degree deg t one level down,
    with random nonzero coefficients.  Nothing makes them cycles, so d o d
    need not vanish and no homology is exact."""
    bases = real_chains(draw(st.sampled_from(("small l=2", "big(3,3,2)", "big(3,5,4)"))))
    rng = draw(st.randoms(use_true_random=False))
    field, alphabet, chains = bases.field, bases.alphabet, bases.chains
    diff = {}
    for level in range(bases.top + 1):
        diff[level] = {}
        for t in chains[level]:
            targets = bases.basis(level - 1, alphabet.degree(t))
            picked = rng.sample(targets, min(len(targets), rng.randint(0, 3)))
            terms = {key: rng.randrange(1, field.p) for key in picked}
            diff[level][t] = terms
    return GradedComplex(bases.prefix, chains, diff)


@settings(max_examples=12, deadline=None)
@given(noncycle_complexes())
def test_greedy_ranks_need_no_cycles(gc):
    # every rank equals the transpose oracle on the dense matrix whose
    # column m.t is m * d(.t) reduced from scratch by act: the greedy
    # elimination relies only on the module structure, not on exactness
    # or on d o d = 0
    for level in range(gc.top + 1):
        for d in range(NONCYCLE_DEGREE + 1):
            row_index = {key: i for i, key in enumerate(gc.basis(level - 1, d))}
            cols = gc.basis(level, d)
            dense = [[0] * len(cols) for _ in row_index]
            for j, (m, t) in enumerate(cols):
                for key, c in gc.prefix.act(m, gc.diff[level][t]).items():
                    dense[row_index[key]][j] = c
            assert gc._rank(level, d) == rank_fp_oracle(dense, gc.field.p), (level, d)


def real_complexes():
    """The complexes of small l=2, big(3,3,2) and big(3,5,4) on their chains
    up to degree 8, with their own differentials."""
    names = st.sampled_from(("small l=2", "big(3,3,2)", "big(3,5,4)"))
    return names.map(lambda name: GradedComplex.from_prefix(real_chains(name).prefix))


@settings(max_examples=12, deadline=None)
@given(st.one_of(noncycle_complexes(), real_complexes()))
def test_leads_carry_under_left_multiplication(gc):
    # the lead m1.t1 the greedy rank stores for each kept column m.t is the
    # largest basis element of m * d(.t) reduced from scratch by act; and
    # for every letter x with x m1 irreducible, x m * d(.t) leads with
    # (x m1).t1, with the same coefficient: the lead carried without an image
    degree = gc.alphabet.degree

    @functools.cache
    def position(level, d):
        return {key: i for i, key in enumerate(gc.basis(level - 1, d))}.__getitem__

    for level in range(gc.top + 1):
        for d in range(NONCYCLE_DEGREE + 1):
            gc.independent_columns(level, d)
            for m, t, _s, m1, t1, _s1 in gc._records[(level, d)]:
                d_t = gc.diff[level][t]
                image = gc.prefix.act(m, d_t)
                assert max(image, key=position(level, d)) == (m1, t1)
                for x in range(len(gc.alphabet)):
                    if gc.system.is_irreducible_word((x,) + m1):
                        carried = gc.prefix.act((x,) + m, d_t)
                        lead = max(carried, key=position(level, d + degree((x,))))
                        assert lead == ((x,) + m1, t1)
                        assert carried[lead] == image[(m1, t1)]


def resolved_complexes():
    """The complex `resolve` builds from a drawn homogeneous presentation
    up to its bound (p in {2, 3, 5}); draws whose completion caps are
    rejected."""

    def build(case):
        system, bound = case
        try:
            return resolve(system, bound)
        except CompletionCapError:
            return None

    return presentations(homogeneous=True).map(build).filter(lambda gc: gc is not None)


@settings(max_examples=40, deadline=None)
@given(st.one_of(resolved_complexes(), real_complexes()), st.randoms(use_true_random=False))
@example(GradedComplex.from_prefix(real_chains("big(3,3,2)").prefix), random.Random(0))
def test_products_summed_in_place_equal_act_then_accumulate(gc, rng):
    # act_into(acc, c, m, d(.t)) is accumulate(acc, c, act(m, d(.t)), p),
    # d(.t) left as it was, and the boundary of an element is the sum of
    # act(m, d(.t)) over its terms, on random basis elements and elements
    # of each degree up to the chains' largest
    prefix, p = gc.prefix, gc.field.p
    bound = max(gc.alphabet.degree(t) for ts in gc.chains.values() for t in ts)
    for level in range(gc.top + 1):
        for d in range(bound + 1):
            columns, rows = gc.basis(level, d), gc.basis(level - 1, d)
            element = {
                key: rng.randrange(1, p) for key in rng.sample(columns, min(len(columns), 4))
            }
            for m, t in element:
                terms = prefix.diff[level][t]
                unchanged = dict(terms)
                acc = {key: rng.randrange(1, p) for key in rng.sample(rows, min(len(rows), 3))}
                c = rng.randrange(-p, p)
                expected = dict(acc)
                accumulate(expected, c, prefix.act(m, terms), p)
                prefix.act_into(acc, c, m, terms)
                assert acc == expected
                assert terms == unchanged
            summed = {}
            for (m, t), c in element.items():
                accumulate(summed, c, prefix.act(m, prefix.diff[level][t]), p)
            assert prefix.boundary(level, element) == summed


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        overlapping_antichains().map(monomial_system),
        st.sampled_from(("small l=2", "big(3,3,2)", "big(3,5,4)")).map(
            lambda name: real_chains(name).prefix.system
        ),
    ),
    st.integers(0, 12),
)
def test_bounded_prefix_is_the_unbounded_one_up_to_its_bound(system, D):
    # at every level the prefix bounded at D lists the unbounded prefix's
    # chains of degree <= D, with the same d(.t), and d o d = 0 holds on it;
    # D = 0 and a D below every lhs degree are tried on each system too
    full = ResolutionPrefix(system)
    degree = system.alphabet.degree
    for bound in {0, min(map(degree, system.lhs_words())) - 1, D}:
        prefix = ResolutionPrefix(system, bound)
        assert prefix.chains == {
            lvl: [t for t in ts if degree(t) <= bound] for lvl, ts in full.chains.items()
        }
        assert all(prefix.diff[lvl][t] == full.diff[lvl][t] for lvl, t in prefix.generators())
        assert prefix.verify_complex() == (True, [])


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        overlapping_antichains().map(monomial_system),
        st.sampled_from(("small l=2", "big(3,3,2)", "big(3,5,4)")).map(
            lambda name: real_chains(name).prefix.system
        ),
    ),
    st.integers(0, 12),
)
def test_bounded_extension_tests_no_chain_above_its_bound(system, D):
    # at levels 2 and 3, extend_chains bounded at D lists the unbounded
    # extensions of degree <= D, and runs the irreducibility test on u v[:-1]
    # for exactly the extensions t v of degree <= D
    degree, key = system.alphabet.degree, system.alphabet.sort_key
    level = sorted(((L, L[1:]) for L in system.lhs_words()), key=lambda tu: key(tu[0]))
    irreducible = system.is_irreducible_word
    for _ in range(2):
        full = extend_chains(system, level)
        tested = Counter()
        system.is_irreducible_word = lambda w: tested.update([w]) or irreducible(w)
        try:
            bounded = extend_chains(system, level, D)
        finally:
            del system.is_irreducible_word
        assert bounded == [tv for tv in full if degree(tv[0]) <= D]
        assert tested == Counter(
            u + v[:-1] for t, u in level for v in system.lhs_overhangs(u) if degree(t + v) <= D
        )
        level = full


NF_DEGREE = 10


@functools.cache
def complete_system(name, warm):
    """A complete system, not necessarily reduced; a warm one has had its
    memo filled by a full completeness check."""
    systems = {
        "small l=2": lambda: small_system(2),
        "small l=3": lambda: small_system(3),
        "big(3,3,2)": lambda: big_system(3, 3, 2),
        "big(3,5,4)": lambda: big_system(3, 5, 4),
    }
    system = systems[name]()
    if warm:
        assert system.is_complete()[0]
    return system


def words_of_degree_at_most(alphabet, bound):
    """Random words, cut before the first letter that takes them past bound."""

    def cut(letters):
        word = ()
        for x in letters:
            if alphabet.degree(word + (x,)) > bound:
                break
            word += (x,)
        return word

    return st.lists(st.sampled_from(range(len(alphabet))), max_size=bound).map(cut)


@settings(max_examples=40, deadline=None)
@given(st.data())
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", ["small l=2", "small l=3", "big(3,3,2)", "big(3,5,4)"])
def test_suffix_normal_form_matches_leftmost_first(name, warm, data):
    # on a complete system the normal form does not depend on the strategy
    system = complete_system(name, warm)
    if not warm:
        system = system.with_rules(system.rules)
    w = data.draw(words_of_degree_at_most(system.alphabet, NF_DEGREE))
    expected = reduce_fully(system, Polynomial.monomial(system.field, system.alphabet, w))
    nf = system.normal_form_word(w)
    assert type(nf) is dict
    assert nf == expected.terms


def reduce_fully(system, g):
    """Reference: iterate the leftmost-first `reduce_once` until g is
    irreducible."""
    while (h := system.reduce_once(g)) is not None:
        g = h
    return g


def homogeneous(system):
    degree = system.alphabet.degree
    return all(degree(w) == degree(r.lhs) for r in system.rules for w in r.rhs.terms)


@settings(max_examples=60, deadline=None)
@given(presentations().filter(lambda case: homogeneous(case[0])), st.data())
def test_normal_form_is_irreducible_and_agrees_after_completion(case, data):
    # the engine's normal form is irreducible on any system; g and it lie
    # in one coset of the ideal, so a homogeneous system completed to the
    # degree of g reduces both to one polynomial, by any strategy
    system, _bound = case
    word = st.lists(st.sampled_from(range(len(system.alphabet))), max_size=3).map(tuple)
    terms = data.draw(st.lists(st.tuples(st.integers(1, system.field.p - 1), word), max_size=4))
    g = Polynomial.from_terms(system.field, system.alphabet, terms)
    nf = system.normal_form(g)
    assert all(system.is_irreducible_word(w) for w in nf.terms)
    complete = system.complete(max(map(system.alphabet.degree, g.terms), default=0))
    expected = reduce_fully(complete, g)
    assert reduce_fully(complete, nf) == expected
    assert complete.normal_form(g) == expected


def reference_verdict(system, bound):
    degree = system.alphabet.degree
    return all(
        reduce_fully(system, system.pair_obstruction(cp)).is_zero()
        for cp in system.find_critical_pairs()
        if degree(cp.tip) <= bound
    )


@settings(max_examples=60, deadline=None)
@given(relation_systems(), st.integers(0, 8))
def test_is_complete_verdict_matches_iterated_reduce_once(system, bound):
    # whether every obstruction reduces to 0 does not depend on the
    # strategy; the completed system is one on which it holds.  The bounded
    # check lists the witnesses of the unbounded pair scan below the bound.
    assert system.is_complete(bound)[0] == reference_verdict(system, bound)
    every = range(len(system.rules))
    witnesses = [
        (cp, nf)
        for cp in naive_critical_pairs(system.rules, every, every)
        if system.alphabet.degree(cp.tip) <= bound
        and not (nf := system.normal_form(system.pair_obstruction(cp))).is_zero()
    ]
    assert system.is_complete(bound) == (not witnesses, witnesses)
    try:
        completed = complete_capped(system, bound)
    except (CompletionCapError, UnorderableRelationError):
        return
    assert completed.is_complete(bound)[0] and reference_verdict(completed, bound)
    # completion adds a rule exactly when some obstruction does not reduce
    assert system.is_complete(bound)[0] == (completed.rules == system.rules)


def two_branch_obstruction(system, cp):
    """The obstruction written once per kind of pair, the reference for the
    term order of `pair_obstruction`, which completion's rule order follows."""
    rule1, rule2 = system.rules[cp.rule1], system.rules[cp.rule2]
    f1, f2 = rule1.rhs, rule2.rhs
    e = system.alphabet.empty_word
    if cp.kind == "overlap":  # tip = u lhs1 = lhs2 v
        v = cp.tip[len(rule2.lhs) :]
        return f1.sandwich(cp.u, e).combine(-1, f2.sandwich(e, v))
    v = cp.tip[len(cp.u) + len(rule1.lhs) :]
    return f1.sandwich(cp.u, v).combine(-1, f2)  # tip = u lhs1 v = lhs2


@given(relation_systems())
def test_the_obstruction_formula_keeps_the_term_order(system):
    # u rhs1 v1 - rhs2 v2 with v1 empty for an overlap and v2 for an
    # inclusion: the same terms in the same order as the two-branch formula
    for cp in system.find_critical_pairs():
        assert list(system.pair_obstruction(cp).terms.items()) == list(
            two_branch_obstruction(system, cp).terms.items()
        )


@settings(max_examples=60, deadline=None)
@given(presentations(), st.data())
def test_completed_normal_forms_do_not_depend_on_rule_order(case, data):
    # Bergman's uniqueness up to the bound: once every critical pair with a
    # tip of degree <= D resolves, each word of degree <= D has one normal
    # form, whichever rule the reduction applies first.  The tips are where
    # two reductions of one word part, so they are probed too.
    system, bound = case
    try:
        done = complete_capped(system, bound)
    except (CompletionCapError, UnorderableRelationError):
        assume(False)
    permuted = done.with_rules(data.draw(st.permutations(done.rules)))
    probe = st.lists(st.sampled_from(range(len(done.alphabet))), max_size=6).map(tuple)
    probe = probe.filter(lambda w: done.alphabet.degree(w) <= bound)
    tips = [cp.tip for cp in done.find_critical_pairs(bound)]
    for w in data.draw(st.lists(probe, max_size=6)) + tips:
        nf = done.normal_form_word(w)
        assert permuted.normal_form_word(w) == nf
        g = Polynomial.monomial(done.field, done.alphabet, w)
        assert reduce_fully(permuted, g).terms == nf


@given(presentations(homogeneous=True), st.data())
@settings(deadline=None)
def test_input_rule_order_does_not_change_the_completed_system(case, data):
    # a homogeneous ideal has one reduced Groebner basis up to degree D:
    # completing and interreducing its rules in any order gives the same
    # rules of lhs degree <= D, and the same normal form of each word
    system, bound = case
    shuffled = system.with_rules(data.draw(st.permutations(system.rules)))
    done = [s.complete(bound).interreduce() for s in (system, shuffled)]
    degree = system.alphabet.degree
    low = [{r.lhs: r.rhs.terms for r in s.rules if degree(r.lhs) <= bound} for s in done]
    assert low[0] == low[1]
    for w in words_up_to_degree(system.alphabet, bound):
        assert done[0].normal_form_word(w) == done[1].normal_form_word(w)


def cube_case():
    """x0 x0 x0 = 0 over F_2 with x0, x1 of degree 1.  Its level-2 chain
    is x0^4; x0^5, the lhs overlapping itself in one letter, is no chain,
    because its shorter prefix x0^4 past the level-1 chain holds an lhs."""
    alphabet = Alphabet.from_names([("x0", 1), ("x1", 1)])
    rule = make_rule(Polynomial.from_terms(F2, alphabet, [(1, (0, 0, 0))]))
    return RewritingSystem(alphabet, F2, [rule]), 6


@settings(max_examples=200, deadline=None)
@given(presentations(homogeneous=True), st.integers(1, 8))
@example(cube_case(), 6)
def test_chain_counts_times_the_hilbert_series_is_one(case, D):
    # Anick's resolution is exact, so its chain counts C_n(t) and the
    # Hilbert series H_A(t) of the algebra satisfy
    # (sum over n >= -1 of (-1)^(n+1) C_n(t)) H_A(t) = 1 mod t^(D+1) when
    # the chains are those of a reduced system complete up to D
    system, _bound = case
    try:
        system = system.complete(D).interreduce()
    except CompletionCapError:
        assume(False)
    degree = system.alphabet.degree
    key = system.alphabet.sort_key
    level = sorted(
        ((L, L[1:]) for L in system.lhs_words() if degree(L) <= D), key=lambda tu: key(tu[0])
    )
    series = [0] * (D + 1)
    series[0] = 1  # level -1: the empty chain
    for x in range(len(system.alphabet)):
        if degree((x,)) <= D:
            series[degree((x,))] -= 1
    sign = 1
    while level:
        for t, _u in level:
            series[degree(t)] += sign
        level = extend_chains(system, level, D)
        sign = -sign
    hilbert = system.irreducible_counts_by_degree(D)
    product = [sum(series[k] * hilbert.get(d - k, 0) for k in range(d + 1)) for d in range(D + 1)]
    assert product == [1] + [0] * D
