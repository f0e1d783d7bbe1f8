import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, strategies as st

from anickres import rewriting
from anickres.fields import PrimeField
from anickres.kostant import big_system, conjectural_system, small_system
from anickres.polynomials import Polynomial
from anickres.rewriting import (
    _END,
    _PAST,
    RewriteRule,
    RewritingSystem,
    UnorderableRelationError,
    WordCapError,
    make_rule,
)
from anickres.words import Alphabet, words_up_to_degree


F2 = PrimeField(2)


@pytest.fixture
def x1():
    """The alphabet a0 < b0 < a1 < b1 with degrees 1, 1, 2, 2."""
    return Alphabet.from_names([("a0", 1), ("b0", 1), ("a1", 2), ("b1", 2)])


def poly(alphabet, field, *terms):
    return Polynomial.from_terms(
        field, alphabet, [(c, alphabet.word(*names)) for c, names in terms]
    )


def s1_relations(alphabet):
    rows = [
        [(1, ("a0", "a0"))],
        [(1, ("b0", "b0"))],
        [(1, ("a1", "a1"))],
        [(1, ("b1", "b1"))],
        [(1, ("a1", "a0")), (1, ("a0", "a1"))],
        [(1, ("b1", "b0")), (1, ("b0", "b1"))],
        [(1, ("a1", "b0")), (1, ("b0", "a1")), (1, ("a0", "b0", "a0"))],
        [(1, ("b1", "a0")), (1, ("a0", "b1")), (1, ("b0", "a0", "b0"))],
    ]
    return [poly(alphabet, F2, *row) for row in rows]


def test_make_rule_orients(x1):
    f = poly(x1, F2, (1, ("a1", "b0")), (1, ("b0", "a1")), (1, ("a0", "b0", "a0")))
    rule = make_rule(f)
    assert rule.lhs == x1.word("a1", "b0")
    assert set(rule.rhs.terms) == {x1.word("b0", "a1"), x1.word("a0", "b0", "a0")}


def test_make_rule_monic():
    F3 = PrimeField(3)
    alphabet = Alphabet.from_names([("a0", 1)])
    rule = make_rule(poly(alphabet, F3, (2, ("a0",))))
    assert rule.lhs == alphabet.word("a0")
    assert rule.rhs.is_zero()


def test_system_rejects_a_letter_index_outside_its_alphabet(x1):
    rule = make_rule(poly(x1, F2, (1, ("a1", "b1"))))
    RewritingSystem(x1, F2, [rule])
    smaller = Alphabet.from_names([("a0", 1), ("b0", 1), ("a1", 2)])
    with pytest.raises(ValueError, match="letter index 3 outside the alphabet of 3 letters"):
        RewritingSystem(smaller, F2, [rule])


def test_system_rejects_an_empty_lhs():
    # make_rule refuses to orient a relation onto the empty word; a rule
    # built directly is refused too, before any answer can disagree
    system = small_system(1)
    zero = Polynomial(system.field, system.alphabet)
    with pytest.raises(ValueError, match=r"^the rule 1 -> 0 has the empty word as its lhs$"):
        system.with_rules([RewriteRule((), zero), *system.rules])


def test_make_rule_rejects_zero_and_unit(x1):
    with pytest.raises(ValueError):
        make_rule(Polynomial(F2, x1))
    with pytest.raises(UnorderableRelationError):
        make_rule(poly(x1, F2, (1, ())))


def test_reduce_once_deterministic(x1):
    system = RewritingSystem.from_relations(x1, F2, s1_relations(x1))
    g = poly(x1, F2, (1, ("a0", "a1", "b0", "b1")))
    h = system.reduce_once(g)
    # inside context: a0 (a1 b0) b1 -> a0 (b0 a1 + a0 b0 a0) b1
    assert h == poly(
        x1, F2, (1, ("a0", "b0", "a1", "b1")), (1, ("a0", "a0", "b0", "a0", "b1"))
    )
    assert system.reduce_once(poly(x1, F2, (1, ("a0", "b0")))) is None


def test_normal_form_matches_iterated_reduce_once():
    # small l=1 is complete, so its normal forms do not depend on the
    # strategy (the s1 relations lack the braid rule, and are not)
    system = small_system(1)
    alphabet = system.alphabet
    g = poly(
        alphabet, F2, (1, ("b1", "a1", "b0", "a0")), (1, ("a0", "a0")), (1, ("b1", "a0", "b0"))
    )
    h = g
    while True:
        nxt = system.reduce_once(h)
        if nxt is None:
            break
        h = nxt
    assert system.normal_form(g) == h


def test_normal_form_unit(x1):
    system = RewritingSystem.from_relations(x1, F2, s1_relations(x1))
    e = Polynomial.monomial(F2, x1, x1.empty_word)
    assert system.normal_form(e) == e


def test_critical_pairs_include_self_overlap():
    alphabet = Alphabet.from_names([("a0", 1)])
    system = RewritingSystem.from_relations(
        alphabet, F2, [poly(alphabet, F2, (1, ("a0", "a0")))]
    )
    pairs = system.find_critical_pairs()
    assert len(pairs) == 1
    assert pairs[0].tip == alphabet.word("a0", "a0", "a0")
    assert system.normal_form(system.pair_obstruction(pairs[0])).is_zero()
    assert system.is_complete()[0]


def test_lhs_overhangs_run_past_the_end_of_the_word():
    # nested left-hand sides (a b inside a b c) each give their own overhang
    alphabet = Alphabet.from_names([(x, 1) for x in "abcd"])
    lhss = [("a", "b"), ("a", "b", "c"), ("b", "c", "d"), ("d", "a")]
    system = RewritingSystem.from_relations(
        alphabet, F2, [poly(alphabet, F2, (1, lhs)) for lhs in lhss]
    )
    word, fmt = alphabet.word, alphabet.format

    def overhangs(*u):
        return sorted(fmt(v) for v in system.lhs_overhangs(word(*u)))

    assert overhangs("a") == ["b", "b c"]
    # a b ends inside d a b, so only a b c and b c d run past it
    assert overhangs("d", "a", "b") == ["c", "c d"]
    assert overhangs("c") == []
    assert overhangs() == []


def test_trie_keys_hash_apart():
    # a node holding both keys would probe twice for each if they collided
    assert hash(_END) != hash(_PAST)


def test_critical_pair_tips(x1):
    system = RewritingSystem.from_relations(x1, F2, s1_relations(x1))
    tips = {cp.tip for cp in system.find_critical_pairs()}
    assert x1.word("a1", "b0", "b0") in tips


def test_pair_obstruction_value(x1):
    system = RewritingSystem.from_relations(
        x1,
        F2,
        [
            poly(x1, F2, (1, ("a1", "b0")), (1, ("b0", "a1")), (1, ("a0", "b0", "a0"))),
            poly(x1, F2, (1, ("b0", "b0"))),
        ],
    )
    cp = next(
        cp
        for cp in system.find_critical_pairs()
        if cp.tip == x1.word("a1", "b0", "b0")
    )
    expected = poly(x1, F2, (1, ("b0", "a1", "b0")), (1, ("a0", "b0", "a0", "b0")))
    assert system.pair_obstruction(cp) == expected


def test_inclusion_pair_found():
    alphabet = Alphabet.from_names([("a0", 1)])
    system = RewritingSystem.from_relations(
        alphabet,
        F2,
        [
            poly(alphabet, F2, (1, ("a0", "a0"))),
            poly(alphabet, F2, (1, ("a0", "a0", "a0"))),
        ],
    )
    kinds = {cp.kind for cp in system.find_critical_pairs()}
    assert "inclusion" in kinds


def test_completion_derives_braid(x1):
    system = RewritingSystem.from_relations(x1, F2, s1_relations(x1))
    assert not system.is_complete()[0]
    done = system.complete(8)
    assert done.is_complete()[0]
    lhss = {x1.format(r.lhs) for r in done.interreduce().rules}
    assert "b0 a0 b0 a0" in lhss
    # the index-1 braid word is NOT a consequence of these eight relations:
    # both of its words stay irreducible in the completed system
    braid1 = poly(x1, F2, (1, ("b1", "a1", "b1", "a1")), (1, ("a1", "b1", "a1", "b1")))
    assert not done.normal_form(braid1).is_zero()
    # adjoining it by hand recovers the reference reduced basis exactly
    from anickres.rewriting import make_rule

    full = done.with_rules(list(done.rules) + [make_rule(braid1)]).complete(8)
    reference = small_system(1)
    assert {x1.format(r.lhs) for r in full.interreduce().rules} == {
        x1.format(r.lhs) for r in reference.rules
    }
    assert len(full.irreducible_words()) == len(reference.irreducible_words()) == 64


def test_complete_is_identity_on_complete_systems():
    system = small_system(1)
    done = system.complete(8)
    assert done.rules == system.rules
    assert done.complete_up_to == 8


def test_interreduce_drops_redundant():
    alphabet = Alphabet.from_names([("a0", 1)])
    system = RewritingSystem.from_relations(
        alphabet,
        F2,
        [
            poly(alphabet, F2, (1, ("a0", "a0"))),
            poly(alphabet, F2, (1, ("a0", "a0", "a0"))),
        ],
    )
    reduced = system.interreduce()
    assert len(reduced.rules) == 1
    assert reduced.is_reduced()


def test_interreduce_identity_on_reduced():
    system = small_system(2)
    assert system.interreduce().rules == system.rules
    assert system.interreduce() is system


def test_interreduce_preserves_normal_forms(x1):
    import random

    rng = random.Random(7)
    system = RewritingSystem.from_relations(x1, F2, s1_relations(x1)).complete(8)
    reduced = system.interreduce()
    for _ in range(50):
        w = tuple(rng.randrange(len(x1)) for _ in range(rng.randint(0, 6)))
        g = Polynomial.monomial(F2, x1, w)
        assert system.normal_form(g) == reduced.normal_form(g)


def test_small_system_holds_the_lower_index_on_its_letters():
    # the index-3 rules over the index-1 letters are the index-1 system
    big = small_system(3)
    keep = {"a0", "b0", "a1", "b1"}
    kept = {str(r) for r in big.rules if {big.alphabet[x].name for x in r.lhs} <= keep}
    assert kept == {str(r) for r in small_system(1).rules}


def test_irreducible_words_bounded(x1):
    system = RewritingSystem.from_relations(x1, F2, s1_relations(x1)).complete(8)
    words = system.irreducible_words(max_degree=2)
    assert [x1.format(w) for w in words] == ["1", "a0", "b0", "a0 b0", "b0 a0", "a1", "b1"]


def test_irreducible_words_degree_zero(x1):
    system = RewritingSystem.from_relations(x1, F2, s1_relations(x1))
    assert system.irreducible_words(max_degree=0) == [()]


def test_completeness_iff_dimension_match(x1):
    # incomplete system overcounts irreducible words relative to its completion
    system = RewritingSystem.from_relations(x1, F2, s1_relations(x1))
    complete = system.complete(8)
    assert len(system.irreducible_words(max_degree=8)) > len(
        complete.irreducible_words(max_degree=8)
    )


def test_completion_of_odd_p_n3_is_pinned():
    # the rules, their order and their text, as the hashed-index matcher
    # produced them before words became index tuples
    import hashlib

    completed = conjectural_system("odd_p_n3", 3, 3, 2).complete(12)
    assert len(completed.rules) == 38
    assert completed.is_complete(12) == (True, [])
    text = "\n".join(str(r) for r in completed.rules)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "b134bf932dc94123b73c9a1c3c73712ab6d1576670b23d18d3a3068baba3ca95"
    )


@pytest.mark.parametrize(
    "bound, count, digest",
    [
        (16, 70, "77bfc2b59bc55fbdff494e273b2691ab7df86d34d7b3aaf0c18dbb070850c7c4"),
        (18, 100, "7cdde055302416ec1ba7d81730cc1e9d83632f5ee820f470ec54423496941526"),
    ],
)
def test_higher_completions_of_odd_p_n3_are_pinned(bound, count, digest):
    # as the rebuilt-per-rule pair scan produced them; the heap breaks tip
    # ties by push order, so these also pin the order of the pairs pushed
    import hashlib

    completed = conjectural_system("odd_p_n3", 3, 3, 2).complete(bound)
    assert len(completed.rules) == count
    text = "\n".join(str(r) for r in completed.rules)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert completed.is_complete(bound) == (True, [])


@pytest.mark.parametrize(
    "bound, reduced, pairs", [(12, 50, 73), (16, 176, 278), (18, 286, 473)]
)
def test_completion_makes_one_pass_over_its_pairs(monkeypatch, bound, reduced, pairs):
    # one pass over the heap: no closing check reduces the same pairs again.
    # Each pair of the final rules is pushed and popped once, and reduced
    # unless the chain criterion discharges it.  The check of what
    # completion returns applies no criterion: it reduces every pair once.
    calls = []
    obstruction = RewritingSystem.pair_obstruction

    def counted(self, cp):
        calls.append(cp)
        return obstruction(self, cp)

    monkeypatch.setattr(RewritingSystem, "pair_obstruction", counted)
    completed = conjectural_system("odd_p_n3", 3, 3, 2).complete(bound)
    assert len(calls) == reduced
    calls.clear()
    assert completed.is_complete(bound) == (True, [])
    assert calls == completed.find_critical_pairs(bound)
    assert len(calls) == pairs


def test_completion_builds_no_automaton(monkeypatch):
    # each added rule resets the automaton, so a completion step that asked
    # it would rebuild it once per rule.  Interreduction's scan builds it
    # once; its tail edits keep every lhs, so the system it returns takes
    # that automaton over for its own irreducibility tests and counts.
    calls = []
    build = rewriting._aho_corasick

    def counted(words, n):
        calls.append(n)
        return build(words, n)

    monkeypatch.setattr(rewriting, "_aho_corasick", counted)
    completed = conjectural_system("odd_p_n3", 3, 3, 2).complete(12)
    assert calls == []
    reduced = completed.interreduce()
    assert reduced is not completed and reduced.is_reduced()
    reduced.irreducible_counts_by_degree(12)
    assert len(calls) == 1


@pytest.fixture
def builds(monkeypatch):
    """Counts of RewritingSystem constructions and automaton builds."""
    counts = Counter()
    init, build = RewritingSystem.__init__, rewriting._aho_corasick

    def counted_init(self, *args, **kwargs):
        counts["systems"] += 1
        init(self, *args, **kwargs)

    def counted_build(words, n):
        counts["automata"] += 1
        return build(words, n)

    monkeypatch.setattr(RewritingSystem, "__init__", counted_init)
    monkeypatch.setattr(rewriting, "_aho_corasick", counted_build)
    return counts


def test_interreduction_sets_tails_on_one_working_system(builds):
    # only tails of big(3,3,8) reduce: each rule is put back with its new
    # tail on one working copy, which takes over the automaton its scan built
    system = big_system(3, 3, 8)
    builds.clear()
    reduced = system.interreduce()
    assert reduced is not system and reduced.is_reduced()
    assert reduced.lhs_words() == system.lhs_words()
    assert builds == {"systems": 1, "automata": 1}


def test_interreduction_drops_a_redundant_rule_with_one_system(builds):
    # x L -> x R for the first 30 rules L -> R of small l=3: each new lhs
    # holds an old one and each new rule reduces to 0 modulo the others, so
    # each is left out of one working copy, and the rules kept make one
    # system at the end
    system = small_system(3)
    x = (0,)
    extra = [RewriteRule(x + r.lhs, r.rhs.sandwich(x, ())) for r in system.rules[:30]]
    padded = system.with_rules([*system.rules, *extra])
    builds.clear()
    assert padded.interreduce().rules == system.rules
    assert builds == {"systems": 2, "automata": 1}


@pytest.mark.parametrize("copies", [10, 1001])
def test_interreduction_drops_copies_of_one_rule_with_one_system(builds, copies):
    # every copy of y x -> x y but the last has its lhs in another rule and
    # reduces to 0 modulo the others: one working copy, one automaton, and
    # one system of the last copy at the end
    alphabet = Alphabet.from_names([("x", 1), ("y", 1)])
    relation = poly(alphabet, F2, (1, ("y", "x")), (1, ("x", "y")))
    system = RewritingSystem.from_relations(alphabet, F2, [relation] * copies)
    builds.clear()
    reduced = system.interreduce()
    assert reduced.rules == (make_rule(relation),)
    assert builds == {"systems": 2, "automata": 1}


def test_tail_edits_keep_the_memo_exact(monkeypatch):
    # the 8 tails of big(4,3,2) that reduce are put back one by one on a
    # working copy whose memo served each reduction: after each edit, and on
    # the system returned, normal forms (term order included) match a new
    # system
    probes, edits = [], []
    put_back = RewritingSystem._put_back

    def checked(self, i, rule):
        put_back(self, i, rule)
        fresh = self.with_rules(self.rules)
        for w in probes:
            assert list(self.normal_form_word(w).items()) == list(
                fresh.normal_form_word(w).items()
            )
        edits.append(i)

    monkeypatch.setattr(RewritingSystem, "_put_back", checked)
    system = big_system(4, 3, 2)
    rng = random.Random(5)
    probes += [w for r in system.rules for w in (r.lhs, *r.rhs.terms)]
    probes += [tuple(rng.randrange(len(system.alphabet)) for _ in range(6)) for _ in range(100)]
    reduced = system.interreduce()
    assert len(edits) == 8
    fresh = reduced.with_rules(reduced.rules)
    for w in probes:
        nf = reduced.normal_form_word(w)
        assert list(nf.items()) == list(fresh.normal_form_word(w).items())


def test_added_rule_must_hold_only_irreducible_words():
    # _add_rule takes the words of a normal form: a rule whose lhs or tail
    # word reduces here is refused, and the system is left as it was
    system = small_system(1)
    lhs = system.rules[0].lhs
    zero = Polynomial(system.field, system.alphabet)
    free = max(system.irreducible_words(6), key=system.alphabet.sort_key)
    tail = Polynomial.monomial(system.field, system.alphabet, lhs)
    for rule in (RewriteRule((0,) + lhs, zero), RewriteRule(free, tail)):
        assert system.alphabet.sort_key(rule.lhs) > system.alphabet.sort_key(lhs)
        with pytest.raises(ValueError, match="holds a reducible word"):
            system._add_rule(rule)
        assert system.rules == small_system(1).rules


def test_added_rule_keeps_the_memo_exact():
    # _add_rule keeps the warm memo in place of recomputing it and drops
    # the entries whose normal form holds the new lhs: each entry that held
    # it is gone or free of it, every entry left equals a fresh system's
    # normal form under the new rules, and no memo dict handed out before
    # the addition changes (an entry kept is the dict handed out)
    system = conjectural_system("odd_p_n3", 3, 3, 1)
    ok, witnesses = system.is_complete()
    assert not ok
    rule = make_rule(witnesses[0][1])
    d = system.alphabet.degree(rule.lhs)
    for w in words_up_to_degree(system.alphabet, d + 1):
        system.normal_form_word(w)
    held = {w: nf for w, nf in system._nf.items() if rule.lhs in nf}
    assert held
    handed = dict(system._nf)
    copies = {w: dict(nf) for w, nf in handed.items()}
    system._add_rule(rule)
    fresh = system.with_rules(system.rules)
    assert all(nf == fresh.normal_form_word(w) for w, nf in system._nf.items())
    assert all(rule.lhs not in system._nf.get(w, ()) for w in held)
    assert handed == copies
    assert all(handed[w] is nf for w, nf in system._nf.items() if w in handed)


def test_irreducible_counts_without_a_degree_bound():
    # finite: the 64 irreducible words of the index-1 small system
    system = small_system(1)
    counts = system.irreducible_counts_by_degree()
    tally = {}
    for w in system.irreducible_words():
        d = system.alphabet.degree(w)
        tally[d] = tally.get(d, 0) + 1
    assert counts == tally
    assert sum(counts.values()) == 64
    # infinite: words free of x x grow like the Fibonacci numbers
    alphabet = Alphabet.from_names([("x", 1), ("y", 1)])
    infinite = RewritingSystem.from_relations(alphabet, F2, [poly(alphabet, F2, (1, ("x", "x")))])
    assert infinite.irreducible_counts_by_degree(6) == {
        0: 1, 1: 2, 2: 3, 3: 5, 4: 8, 5: 13, 6: 21
    }
    with pytest.raises(WordCapError, match="exceeded its cap of 2000000 words with no degree bound"):
        infinite.irreducible_counts_by_degree()
    with patch.object(rewriting, "_WORD_CAP", 100):
        with pytest.raises(WordCapError, match="cap of 100 words up to degree 9"):
            infinite.irreducible_words(9)


THREE = Alphabet.from_names([("a", 1), ("b", 1), ("c", 2)])


@st.composite
def lhs_sets(draw):
    """Left-hand sides over the first 2 or 3 letters of `THREE`, with
    factors of drawn ones among them: nested lhs, and duplicates where a
    factor is the whole word."""
    letters = st.integers(0, draw(st.sampled_from((1, 2))))
    lhss = draw(st.lists(st.lists(letters, min_size=1, max_size=4).map(tuple), min_size=1, max_size=6))
    for w in draw(st.lists(st.sampled_from(lhss), max_size=3)):
        i = draw(st.integers(0, len(w) - 1))
        lhss.append(w[i : draw(st.integers(i + 1, len(w)))])
    return draw(st.permutations(lhss))


@given(lhs_sets(), st.lists(st.lists(st.integers(0, 2), max_size=8), max_size=6))
def test_prepend_automaton_steps_mark_exactly_the_reducible_fronts(lhss, probes):
    # grow irreducible words w one letter at a time at the front: for every
    # letter x the step from the state of w marks x w reducible exactly when
    # some lhs is a prefix of x w; the state carried equals the state of w
    # read from its end from scratch, and it determines, and is determined
    # by, the longest prefix of w that is a suffix of an lhs
    system = RewritingSystem(THREE, F2, [RewriteRule(w, Polynomial(F2, THREE)) for w in lhss])
    step = system.prepend_automaton()
    by_state, by_prefix = {}, {}
    for probe in probes:
        w, s = (), 0
        for y in probe:
            for x in range(len(THREE)):
                assert (step[s][x] is None) == (system.front_rule((x,) + w) is not None)
            if step[s][y] is None:
                break
            s, w = step[s][y], (y,) + w
            scratch = 0
            for x in reversed(w):
                scratch = step[scratch][x]
            assert scratch == s
            longest = max(
                (w[:k] for k in range(len(w) + 1) if any(u[len(u) - k :] == w[:k] for u in lhss)),
                key=len,
            )
            assert by_state.setdefault(s, longest) == longest
            assert by_prefix.setdefault(longest, s) == s
