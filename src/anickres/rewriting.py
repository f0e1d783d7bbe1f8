"""Rewriting systems in the free associative algebra: reduction to normal
form, critical pairs, completeness checking, degree-bounded completion,
interreduction, and the enumeration and counting of irreducible words.

Words are tuples of letter indices (see `words`); every comparison of
words goes through the alphabet's deglex `sort_key`.

Each system has one trie of the left-hand sides (a prefix tree as in Aho
and Corasick, CACM 18, 1975), grown rule by rule by completion.  A node
lists the rules whose lhs ends there and the rules passing it that are
longer than its word, both in rule order.  Walked by `_path` from each
position of a word, it serves the single-step API (`first_step`,
`apply_step`, `reduce_once`): the deglex-largest reducible word is
rewritten at its leftmost reducible position, by the first matching rule
in system order.

Normal forms have one strategy and one memo, shared by `normal_form`,
`normal_form_word`, completion, interreduction, `is_complete` and the
resolution.  They are computed per support word by suffix recursion: for
w = x v with x a letter, nf(v) comes first.  If v is reducible, nf(w) =
nf(x nf(v)); otherwise every lhs occurrence in w starts at 0, so one trie
walk from there finds the rewrite or shows w irreducible.  Every step goes
to deglex-smaller words, so this reduces correctly on any system.  On a
complete one every strategy gives the same normal form, and whether every
critical pair reduces to 0 never depends on the strategy (Bergman's
diamond lemma, Adv. Math. 29, 1978).  The recursion runs as a stack of
generators, not as nested calls, so long words do not reach Python's
recursion limit.  Memo entries are canonical {word: c} dicts, shared with
the callers of `normal_form_word`, who must not change them.

Completion and interreduction each change one working system of their own
in place and return it: interreduction sets tails (see `interreduce`), and
completion appends rules and carries the memo across each, keeping every
entry equal to what a new system with the same rules computes.  Take a new
rule L -> R of degree d whose words are irreducible.  An entry of degree
< d stays, since no word its derivation reaches contains L (letter degrees
are >= 1 and reduction never raises the degree).  Each step of the
derivation of a degree-d entry depends on whether a suffix of lower degree
is reducible and on the lhs that are prefixes of a degree-d word, and L is
a prefix of no degree-d word but itself.  So every step stays and L can
only be a leaf: by linearity a degree-d entry without L is what the new
system computes, and one with L is dropped, to be derived again when next
needed.  Entries above degree d are dropped.  Memo words are bucketed by
degree as rules are added, so an addition visits only the entries of
degree >= d; no entry is changed once stored.

A rule's critical pairs take two lookups, the trie walked from each
position of its lhs and the starts of its first letter among all lhs,
instead of a scan of every lhs; neither builds a pair whose tip lies above
the degree bound.  Every list of pairs is sorted by one key, `_pair_order`.
Completion reduces each pair it pops, except an overlap whose tip holds
another lhs strictly inside, which Buchberger's chain criterion
discharges; `is_complete` reduces every pair.

The trie finds where a word reduces; one automaton decides whether it
does: the prepend automaton, the Aho-Corasick automaton of the reversed
left-hand sides, built on first use.  It reads a word from its end.  The
state of an irreducible w is the longest prefix of w that is a suffix of
an lhs, and one step on a letter x gives the state of x w or marks x w
reducible, so w is irreducible exactly when its reading, `prepend_state`,
meets no mark.
Irreducible words are grown at the front by reading the automaton's rows,
and counted as its paths (Ufnarovski, Combinatorial and asymptotic methods
in algebra, 1995), per (degree, state) without listing a word.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .fields import PrimeField
from .polynomials import Polynomial, accumulate
from .words import Alphabet, Word


# trie keys beside the letters (>= 0); not -1 and -2, which CPython hashes
# alike, so that a lookup in a node holding both keys probes once
_END = -1  # the rules whose lhs ends at a node, in rule order
_PAST = -3  # the rules passing a node and longer than its word, in rule order
_WORD_CAP = 2_000_000  # irreducible words enumerated or counted, read at call time
_NEW_RULE_CAP = 10_000  # rules one completion may add, read at call time


class UnorderableRelationError(ValueError):
    """A relation whose leading word is the empty word.  Every other word
    sorts above it, so the relation is a nonzero scalar: no rule orients it."""


class WordCapError(ValueError):
    """More irreducible words up to the degree bound than the cap allows."""

    def __init__(self, cap: int, max_degree: int | None):
        bound = "with no degree bound" if max_degree is None else f"up to degree {max_degree}"
        super().__init__(f"irreducible word enumeration exceeded its cap of {cap} words {bound}")


class CompletionCapError(RuntimeError):
    """Completion exceeded its iteration cap; carries the partial system."""

    def __init__(self, message: str, partial: "RewritingSystem"):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class RewriteRule:
    """lhs rewrites to the polynomial rhs; lhs > every word of supp(rhs)."""

    lhs: Word
    rhs: Polynomial

    def polynomial(self) -> Polynomial:
        """The relation lhs - rhs whose rewriting rule this is."""
        rhs = self.rhs
        return Polynomial.monomial(rhs.field, rhs.alphabet, self.lhs).combine(-1, rhs)

    def __str__(self):
        return f"{self.rhs.alphabet.format(self.lhs)} -> {self.rhs}"


@dataclass(frozen=True)
class CriticalPair:
    """An overlap (tip = u lhs1 = lhs2 v) or inclusion (tip = u lhs1 v = lhs2)."""

    tip: Word
    rule1: int
    rule2: int
    kind: str  # "overlap" | "inclusion"
    u: Word
    v: Word


def _drive(derivation, w: Word) -> None:
    """Run the generator derivation(w), which memoizes the value of w.  It
    yields each word whose value it needs and finds no memo entry for, and
    reads that entry once resumed.  A needed word gets its own generator on
    a stack instead of a nested call, so the depth of a derivation is not
    bounded by Python's recursion limit."""
    stack = [derivation(w)]
    while stack:
        need = next(stack[-1], None)
        if need is None:
            stack.pop()
        else:
            stack.append(derivation(need))


def _pair_order(cp: CriticalPair) -> tuple:
    """The one order of critical pairs: by first rule, then by second rule,
    and each rule pair's overlaps by ascending overlap length (descending
    |u|) before its inclusions by ascending position |u|."""
    inclusion = cp.kind == "inclusion"
    return cp.rule1, cp.rule2, inclusion, len(cp.u) if inclusion else -len(cp.u)


def _aho_corasick(words: Iterable[Word], n: int) -> list[list[Optional[int]]]:
    """The Aho-Corasick automaton of words over n letters: step[s][x] is
    the state after state s reads x, or None where some word is a suffix
    of what is read.  The state after a string is its longest suffix that
    is a prefix of a word, numbered breadth-first (0 = the empty string)."""
    root: dict = {}
    for w in words:
        node = root
        for x in w:
            node = node.setdefault(x, {})
        node[_END] = None
    nodes, fail, ends = [root], [0], [_END in root]
    goto: list[list[int]] = []
    for s, node in enumerate(nodes):  # grows breadth-first while read
        row = []
        for x in range(n):
            child = node.get(x)
            # the failure state is shallower, so its row is complete
            via_fail = goto[fail[s]][x] if s else 0
            if child is None:
                row.append(via_fail)
                continue
            row.append(len(nodes))
            nodes.append(child)
            fail.append(via_fail)
            ends.append(_END in child or ends[via_fail])
        goto.append(row)
    return [[None if ends[t] else t for t in row] for row in goto]


def make_rule(f: Polynomial) -> RewriteRule:
    """Orient a nonzero relation: lm(f) rewrites to the rest, made monic.

    The tail lies below the lead with no check: lm(f) is the word of f with
    the largest `sort_key`, which holds the word itself, so no other word of
    f ties with it; and the tail is f without its lead term, scaled, so each
    of its words is another word of f."""
    if f.is_zero():
        raise ValueError("cannot orient the zero relation")
    lm, lc = f.leading_term()
    if not lm:
        raise UnorderableRelationError("leading word is the empty word")
    inv = f.field.inv(lc)
    rhs = f.combine(-1, Polynomial.monomial(f.field, f.alphabet, lm, lc)).scale(-inv)
    return RewriteRule(lm, rhs)


class RewritingSystem:
    """An ordered collection of rewriting rules over one alphabet and field.

    A system is never changed once returned: completion appends rules to a
    working system of its own, interreduction sets tails on one, and each
    returns it when done (interreduction returns the system itself when no
    rule changes).  `complete_up_to` is the tip-degree bound up to which all
    critical pairs are known to resolve, or None (not checked), as on every
    system built from rules.  Only those two transforms set it: completion
    to its bound, and interreduction to the claim of the system it reduces,
    dropped when a rule comes back below that bound.
    """

    def __init__(self, alphabet: Alphabet, field: PrimeField, rules: Sequence[RewriteRule]):
        self.alphabet = alphabet
        self.field = field
        self.rules = tuple(rules)
        self.complete_up_to: int | None = None
        # the one trie of the lhs (nested dicts keyed by letter, _END and
        # _PAST) and beside it each lhs, its degree and each letter's starts
        self._degrees = [g.degree for g in alphabet]
        self._trie: dict = {}
        self._lhs: list[Word] = []
        self._lhs_degree: list[int] = []
        self._starts: dict[int, list[int]] = {}
        self._repeated: set[Word] = set()  # each lhs that more than one rule has
        for rule in self.rules:
            self._insert_lhs(rule)
        # the automaton of the reversed lhs, built on first use
        self._prepend: list[list[Optional[int]]] | None = None
        # normal-form memo of {word: c} dicts; private, rebuilt per instance.
        # When a rule is added, the words memoized since the last one (the
        # memo's tail in insertion order) are bucketed by degree (see _add_rule).
        self._nf: dict[Word, dict[Word, int]] = {}
        self._nf_by_degree: dict[int, list[Word]] = {}
        self._nf_bucketed = 0

    def _insert_lhs(self, rule: RewriteRule) -> None:
        """Index the nonempty lhs of the next rule k: k joins _END at the node
        where lhs ends and _PAST at each node on the way, and each letter's
        starts get (k, its position, the degree of lhs before it).  Every
        system builds these, so they are kept small: the starts as a flat
        list of ints, not a tuple each, and an _END list at its exact size."""
        lhs, n = rule.lhs, len(self.alphabet)
        if not lhs:
            raise ValueError(f"the rule {rule} has the empty word as its lhs")
        for x in lhs:
            if not 0 <= x < n:
                raise ValueError(
                    f"rule lhs {lhs} has letter index {x!r} outside the "
                    f"alphabet of {n} letters"
                )
        k = len(self._lhs)
        node = self._trie
        before = 0
        for pos, x in enumerate(lhs):
            node.setdefault(_PAST, []).append(k)
            self._starts.setdefault(x, []).extend((k, pos, before))
            before += self._degrees[x]
            node = node.setdefault(x, {})
        if _END in node:
            self._repeated.add(lhs)
        node[_END] = node.get(_END, []) + [k]
        self._lhs.append(lhs)
        self._lhs_degree.append(before)

    def _add_rule(self, rule: RewriteRule) -> None:
        """Append a rule whose words are irreducible here (as those of a
        normal form are), keeping the memo exact (see the module docstring).
        Only `complete` calls this, on its working system."""
        lhs, rhs = rule.lhs, rule.rhs
        # irreducible exactly when in its own normal form (here a memo hit)
        if any(w not in self._word_nf(w) for w in (lhs, *rhs.terms)):
            raise ValueError(f"the rule {rule} holds a reducible word")
        self._insert_lhs(rule)
        self.rules += (rule,)
        self._prepend = None
        memo, buckets, degree = self._nf, self._nf_by_degree, self.alphabet.degree
        # the tail, read from the end of the memo without walking its head
        for w in itertools.islice(reversed(memo), len(memo) - self._nf_bucketed):
            buckets.setdefault(degree(w), []).append(w)
        d = self._lhs_degree[-1]
        for e in [e for e in buckets if e > d]:
            for w in buckets.pop(e):
                del memo[w]
        kept = []
        for w in buckets.get(d, ()):
            if lhs in memo[w]:
                del memo[w]
            else:
                kept.append(w)
        buckets[d] = kept
        self._nf_bucketed = len(memo)

    @classmethod
    def from_relations(
        cls,
        alphabet: Alphabet,
        field: PrimeField,
        relations: Iterable[Polynomial],
    ) -> "RewritingSystem":
        """The system of one rule per nonzero relation, in order."""
        rules = [make_rule(f) for f in relations if not f.is_zero()]
        return cls(alphabet, field, rules)

    def with_rules(self, rules: Sequence[RewriteRule]) -> "RewritingSystem":
        return RewritingSystem(self.alphabet, self.field, rules)

    def lhs_words(self) -> list[Word]:
        return [r.lhs for r in self.rules]

    def _path(self, w: Word, pos: int) -> list[dict]:
        """The trie nodes along w[pos:] up to the first letter the trie
        lacks: the k-th is the node of w[pos:pos+k]."""
        path = []
        node = self._trie
        for x in w[pos:]:
            node = node.get(x)
            if node is None:
                break
            path.append(node)
        return path

    # ----- single-step reduction -------------------------------------
    def first_step(self, w: Word) -> Optional[tuple[int, int]]:
        """(position, rule index) of the leftmost-first reduction of w, or None.

        The leftmost position at which some lhs occurs, and there the first
        matching rule in system order (duplicate and nested left-hand sides
        included): the trie walk from a position passes every lhs starting
        there, and the minimum rule index along the walk wins.
        """
        for pos in range(len(w)):
            found = None
            for node in self._path(w, pos):
                ends = node.get(_END)
                if ends is not None and (found is None or ends[0] < found):
                    found = ends[0]
            if found is not None:
                return (pos, found)
        return None

    def front_rule(self, w: Word) -> Optional[tuple[int, int]]:
        """(length, rule index) of the shortest lhs that is a prefix of w, with
        the lowest rule index ending there, or None: one trie walk from
        position 0.  For w = x v with v irreducible, every lhs occurrence in
        w starts at 0, so w is irreducible exactly when this is None."""
        node = self._trie
        for k, x in enumerate(w, 1):
            node = node.get(x)
            if node is None:
                return None
            ends = node.get(_END)
            if ends is not None:
                return k, ends[0]
        return None

    def lhs_overhangs(self, u: Word) -> list[Word]:
        """Every nonempty v such that u[i:] v is an lhs for some i < len(u),
        once per start i and lhs word: the letters by which an lhs starting
        inside u runs past its end, read off the rules passing the node that
        one trie walk over u[i:] reaches."""
        out = []
        for i in range(len(u)):
            path, t = self._path(u, i), len(u) - i
            if len(path) == t:
                out += dict.fromkeys(self._lhs[k][t:] for k in path[-1].get(_PAST, ()))
        return out

    def prepend_state(self, w: Word) -> Optional[int]:
        """The state of w in the prepend automaton, read from its end, or
        None when an lhs occurs in w (the reading stops at the first mark)."""
        step, s = self.prepend_automaton(), 0
        for x in reversed(w):
            s = step[s][x]
            if s is None:
                return None
        return s

    def is_irreducible_word(self, w: Word) -> bool:
        """No lhs occurs in w: it has a state in the prepend automaton."""
        return self.prepend_state(w) is not None

    def apply_step(self, w: Word, pos: int, ridx: int) -> Polynomial:
        """u * rhs * v for the occurrence of rule `ridx` at `pos` in w."""
        rule = self.rules[ridx]
        u = w[:pos]
        v = w[pos + len(rule.lhs) :]
        return rule.rhs.sandwich(u, v)

    def reduce_once(self, g: Polynomial) -> Optional[Polynomial]:
        """One deterministic rewriting step, or None if g is irreducible."""
        reducible = [w for w in g.terms if self.first_step(w) is not None]
        if not reducible:
            return None
        w = max(reducible, key=self.alphabet.sort_key)
        pos, ridx = self.first_step(w)
        coeff = g.terms[w]
        replaced = self.apply_step(w, pos, ridx)
        monomial = Polynomial.monomial(self.field, self.alphabet, w)
        return g.combine(-coeff, monomial).combine(coeff, replaced)

    # ----- normal forms ----------------------------------------------
    def _derivation(self, w: Word):
        """Generator that memoizes nf(w), driven by `_drive`.  For w = x v,
        a reducible v gives nf(w) = nf(x nf(v)); an irreducible v leaves
        every lhs occurrence in w at 0, where the shortest lhs, if any, is
        rewritten.  Zeros are dropped at the end, so the other words keep
        the order in which they were first summed."""
        memo = self._nf
        terms = None
        if w:
            v = w[1:]
            nf_v = memo.get(v)
            if nf_v is None:
                yield v
                nf_v = memo[v]
            if v not in nf_v:  # a reducible v lies above every word of nf(v)
                head, terms, tail = w[:1], nf_v, ()
            elif (front := self.front_rule(w)) is not None:
                head, terms, tail = (), self.rules[front[1]].rhs.terms, w[front[0] :]
        if terms is None:
            memo[w] = {w: 1}
            return
        p = self.field.p
        acc: dict[Word, int] = {}
        for u, c in terms.items():
            nf_x = memo.get(x := head + u + tail)
            if nf_x is None:
                yield x
                nf_x = memo[x]
            for y, cy in nf_x.items():
                acc[y] = (acc.get(y, 0) + c * cy) % p
        if 0 in acc.values():
            acc = {y: c for y, c in acc.items() if c}
        memo[w] = acc

    def _word_nf(self, w: Word) -> dict[Word, int]:
        nf = self._nf.get(w)
        if nf is None:
            _drive(self._derivation, w)
            nf = self._nf[w]
        return nf

    # the public name; the engine calls _word_nf, so a wrapper put on this
    # name sees outside calls only.  It returns the memo's own dict: never change it.
    normal_form_word = _word_nf

    def normal_form(self, g: Polynomial) -> Polynomial:
        # accumulated in place; a word whose coefficient cancels is removed
        # at once, so the terms keep the order of summing one word at a time
        acc: dict[Word, int] = {}
        p = self.field.p
        for w, c in g.terms.items():
            accumulate(acc, c, self._word_nf(w), p)
        return Polynomial.from_canonical(self.field, self.alphabet, acc)

    def normal_form_with_steps(self, g: Polynomial) -> tuple[Polynomial, int]:
        """The normal form of g and the number of rule applications in the
        derivations of its support words, summed.  For w = x v, they are
        those of v, one if a rule rewrites w itself, and those of each word
        the next step of `_derivation` reduces."""
        counts: dict[Word, int] = {}

        def applications(w: Word):  # memoizes in counts, driven by _drive
            n, needs = 0, ()
            if w:
                v = w[1:]
                nf_v = self._word_nf(v)
                if v not in nf_v:
                    needs = (v, *(w[:1] + u for u in nf_v))
                elif (front := self.front_rule(w)) is not None:
                    n, needs = 1, [u + w[front[0] :] for u in self.rules[front[1]].rhs.terms]
            for x in needs:
                if x not in counts:
                    yield x
                n += counts[x]
            counts[w] = n

        for w in g.terms:
            _drive(applications, w)
        return self.normal_form(g), sum(counts[w] for w in g.terms)

    # ----- critical pairs --------------------------------------------
    def find_critical_pairs(self, degree_bound: int | None = None) -> list[CriticalPair]:
        """Every critical pair whose tip has degree <= degree_bound (None =
        all), in `_pair_order`."""
        bound = math.inf if degree_bound is None else degree_bound
        return [cp for i in range(len(self.rules)) for cp in self._pairs_as_first(i, bound)]

    def _pairs_as_second(self, j: int, bound: float) -> list[CriticalPair]:
        """The pairs (i, j) over all rules i, in `_pair_order`.  Walks of the
        trie from each position of lhs_j: an lhs_i ending on a walk occurs
        inside lhs_j, an inclusion unless i = j.  A walk from pos > 0 that
        uses up lhs_j ends at the node of its suffix of length t = len(lhs_j)
        - pos, and each lhs_i passing that node begins with that suffix: an
        overlap."""
        m2, d2 = self._lhs[j], self._lhs_degree[j]
        if d2 > bound:
            return []
        pairs = []
        suffix = d2  # the degree of m2[pos:]
        for pos in range(len(m2)):
            path = self._path(m2, pos)
            for length, node in enumerate(path, 1):
                for i in node.get(_END, ()):
                    if i != j:
                        v = m2[pos + length :]
                        pairs.append(CriticalPair(m2, i, j, "inclusion", m2[:pos], v))
            t = len(m2) - pos
            if pos and len(path) == t:
                for i in path[-1].get(_PAST, ()):
                    if d2 + self._lhs_degree[i] - suffix <= bound:
                        v = self._lhs[i][t:]
                        pairs.append(CriticalPair(m2 + v, i, j, "overlap", m2[:pos], v))
            suffix -= self._degrees[m2[pos]]
        pairs.sort(key=_pair_order)
        return pairs

    def _pairs_as_first(self, i: int, bound: float) -> list[CriticalPair]:
        """The pairs (i, j) over all rules j, in `_pair_order`.  Both kinds
        begin lhs_i at a position of lhs_j, so they are read off the starts
        of its first letter: lhs_j running out first is an overlap, lhs_i
        doing so is an inclusion."""
        m1, d1 = self._lhs[i], self._lhs_degree[i]
        n1 = len(m1)
        pairs = []
        starts = iter(self._starts[m1[0]])  # flat (rule, position, degree before)
        for j, pos, before in zip(starts, starts, starts):
            if before + d1 > bound:
                continue
            m2 = self._lhs[j]
            rest = m2[pos:]
            t = len(rest)
            if t < n1:
                if pos and m1[:t] == rest:
                    v = m1[t:]
                    pairs.append(CriticalPair(m2 + v, i, j, "overlap", m2[:pos], v))
            elif j != i and rest[:n1] == m1 and self._lhs_degree[j] <= bound:
                pairs.append(CriticalPair(m2, i, j, "inclusion", m2[:pos], rest[n1:]))
        pairs.sort(key=_pair_order)
        return pairs

    def pair_obstruction(self, cp: CriticalPair) -> Polynomial:
        f1 = self.rules[cp.rule1].rhs
        f2 = self.rules[cp.rule2].rhs
        if cp.kind == "overlap":
            # tip = u lhs1 = lhs2 v
            return f1.sandwich(cp.u, self.alphabet.empty_word).combine(
                -1, f2.sandwich(self.alphabet.empty_word, cp.v)
            )
        # tip = u lhs1 v = lhs2
        return f1.sandwich(cp.u, cp.v).combine(-1, f2)

    def is_complete(
        self, degree_bound: int | None = None
    ) -> tuple[bool, list[tuple[CriticalPair, Polynomial]]]:
        """Reduce every critical-pair obstruction; collect irreducible witnesses."""
        witnesses = []
        for cp in self.find_critical_pairs(degree_bound):
            nf = self.normal_form(self.pair_obstruction(cp))
            if not nf.is_zero():
                witnesses.append((cp, nf))
        return (not witnesses, witnesses)

    # ----- completion ------------------------------------------------
    def complete(self, degree_bound: int) -> "RewritingSystem":
        """Critical-pair completion, smallest tip first, up to tip degree.

        Rules whose lhs exceeds the bound are kept; only pairs whose tip
        fits under the bound are resolved.  Each nonzero normal form becomes
        a rule of one working system, whose memo carries over (see the
        module docstring).  That system, built from this one's rules, is
        returned with `complete_up_to` set to the bound, or carried by the
        `CompletionCapError` raised once it holds more than `_NEW_RULE_CAP`
        rules beyond this one's.

        One pass suffices.  Each pair of the final rules whose tip has
        degree <= degree_bound is pushed once, when the later of its two
        rules is added (at the start, for two given rules), and is reduced
        or discharged once popped.  A pair that reduced to 0, or became a
        rule, did so by steps on words below its tip, and those steps stay
        valid while rules are only appended: its obstruction stays
        resolvable relative to its tip.  An overlap whose tip T = u lhs1
        holds an lhs L strictly inside is discharged unreduced (Buchberger's
        chain criterion): the pairs of L with lhs1 and lhs2 lie on proper
        subwords of T, were popped before T, and together resolve T's
        ambiguity, so it would reduce to 0.  L is sought at 1..|u|-1, where a
        reduced system has it; a miss costs only a reduction.  So when the
        heap runs empty, Bergman's diamond lemma on the words of degree <=
        degree_bound (closed under subwords and under deglex-smaller words)
        makes every such obstruction reduce to 0 under any strategy, and the
        result is complete up to the bound.
        """
        counter = itertools.count()
        heap: list[tuple[tuple, int, CriticalPair]] = []
        sort_key = self.alphabet.sort_key

        def push_pairs(pairs):
            for cp in pairs:
                heapq.heappush(heap, (sort_key(cp.tip), next(counter), cp))

        current = self.with_rules(self.rules)
        push_pairs(current.find_critical_pairs(degree_bound))
        while heap:
            _, _, cp = heapq.heappop(heap)
            # the chain criterion: an overlap whose tip holds an lhs strictly inside
            if cp.kind == "overlap" and any(
                current.front_rule(cp.tip[pos:-1]) for pos in range(1, len(cp.u))
            ):
                continue
            nf = current.normal_form(current.pair_obstruction(cp))
            if nf.is_zero():
                continue
            current._add_rule(make_rule(nf))
            if len(current.rules) - len(self.rules) > _NEW_RULE_CAP:
                raise CompletionCapError(
                    f"completion cap of {_NEW_RULE_CAP} new rules exceeded", current
                )
            new = len(current.rules) - 1
            push_pairs(current._pairs_as_second(new, degree_bound))
            # the self-overlaps (new, new) were pushed just above
            push_pairs(
                cp for cp in current._pairs_as_first(new, degree_bound) if cp.rule2 != new
            )
        current.complete_up_to = degree_bound
        return current

    # ----- interreduction --------------------------------------------
    def interreduce(self) -> "RewritingSystem":
        """Reduce each rule modulo the others until the system is reduced, on
        working systems with no claim, or return this system when no rule
        changes.  When only the tail of the first rule not reduced reduces,
        the tail is set to its normal form here, which is the one modulo the
        others (the words reached lie deglex-below the lhs), and the scan
        goes on; else the rule is reduced modulo a system without it,
        dropped if that gives 0, and the scan restarts.  On an
        inhomogeneous system a rule may come back with an lhs at or below
        this system's `complete_up_to` bound, whose pairs no completion
        resolved.  The system returned gets that claim, or None once such
        a rule came back.

        The loop always ends.  A tail edit changes no lhs, and each scan
        moves forward.  Every other step drops a rule, or replaces its lhs L
        by the leading word of nf(L - R) modulo the other rules; L reduces
        modulo them, so every word of that normal form lies deglex-below L.
        So the multiset of left-hand sides strictly decreases in the
        multiset order of deglex, which is well-founded because every letter
        has degree >= 1 (finitely many words lie below any word)."""
        current, claim = self, self.complete_up_to
        while True:
            found = current._unreduced_rule(0)
            while found is not None and found[1]:
                i = found[0]
                tail = current.normal_form(current.rules[i].rhs)
                if current is self:
                    current = self.with_rules(self.rules)
                    current._prepend = self._prepend  # built by the scan; no lhs changes
                current._set_tail(i, tail)
                found = current._unreduced_rule(i + 1)
            if found is None:
                if current is not self:
                    current.complete_up_to = claim
                return current
            rules = list(current.rules)
            rule = rules.pop(found[0])
            current = self.with_rules(rules)
            nf = current.normal_form(rule.polynomial())
            if not nf.is_zero():
                rule = make_rule(nf)
                if claim is not None and self.alphabet.degree(rule.lhs) <= claim:
                    claim = None  # no pair of the new lhs was resolved
                rules.insert(found[0], rule)
                current = self.with_rules(rules)

    def _unreduced_rule(self, start: int) -> Optional[tuple[int, bool]]:
        """The first rule from `start` on that is not reduced modulo the
        others, and whether its lhs L is, or None.  L is when no other rule
        has it and the automaton finds L[:-1] and L[1:] irreducible (any
        other lhs in L lies in one); then the rule is when its tail is too."""
        irreducible = self.is_irreducible_word
        for i, L in enumerate(self._lhs[start:], start):
            if L in self._repeated or not (irreducible(L[:-1]) and irreducible(L[1:])):
                return i, False
            if not all(map(irreducible, self.rules[i].rhs.terms)):
                return i, True
        return None

    def _set_tail(self, i: int, tail: Polynomial) -> None:
        """Set rule i's tail and clear the memo; only `interreduce` calls this."""
        self.rules = (*self.rules[:i], RewriteRule(self._lhs[i], tail), *self.rules[i + 1 :])
        self._nf, self._nf_by_degree, self._nf_bucketed = {}, {}, 0

    def is_reduced(self) -> bool:
        """Every rule is reduced modulo the others (see `_unreduced_rule`)."""
        return self._unreduced_rule(0) is None

    # ----- irreducible words -----------------------------------------
    def prepend_automaton(self) -> list[list[Optional[int]]]:
        """step[s][x]: the state of x w for w of state s, or None where some
        lhs is a prefix of x w (for an irreducible w, exactly when x w
        reduces); 0 is the state of the empty word (see the module docstring)."""
        if self._prepend is None:
            self._prepend = _aho_corasick([w[::-1] for w in self._lhs], len(self.alphabet))
        return self._prepend

    def irreducible_words(self, max_degree: int | None = None) -> list[Word]:
        """All rule-free words of degree <= max_degree (None = all, if finite),
        in deglex order; `WordCapError` once there are more than `_WORD_CAP`."""
        step, degrees = self.prepend_automaton(), self._degrees
        out = []
        # frontier entries carry the degree and automaton state of their word
        frontier = [(self.alphabet.empty_word, 0, 0)]
        while frontier:
            out.extend(w for w, _, _ in frontier)
            if len(out) > _WORD_CAP:
                raise WordCapError(_WORD_CAP, max_degree)
            frontier = [
                ((x,) + w, d + degrees[x], t)
                for w, d, s in frontier
                for x, t in enumerate(step[s])
                if t is not None and (max_degree is None or d + degrees[x] <= max_degree)
            ]
        out.sort(key=self.alphabet.sort_key)
        return out

    def irreducible_counts_by_degree(
        self, max_degree: int | None = None
    ) -> dict[int, int]:
        """The number of rule-free words of each degree <= max_degree (None =
        all, if finite), counted as paths of the prepend automaton;
        `WordCapError` once the total passes `_WORD_CAP`."""
        step, degrees = self.prepend_automaton(), self._degrees
        # degree -> state -> number of irreducible words of that degree
        # ending in that state
        pending: dict[int, dict[int, int]] = {0: {0: 1}}
        counts: dict[int, int] = {}
        total = 0
        while pending:
            d = min(pending)
            states = pending.pop(d)
            counts[d] = sum(states.values())
            total += counts[d]
            if total > _WORD_CAP:
                raise WordCapError(_WORD_CAP, max_degree)
            for s, c in states.items():
                for x, t in enumerate(step[s]):
                    e = d + degrees[x]
                    if t is None or max_degree is not None and e > max_degree:
                        continue
                    row = pending.setdefault(e, {})
                    row[t] = row.get(t, 0) + c
        return counts

    def __str__(self):
        body = "; ".join(str(r) for r in self.rules)
        return f"RewritingSystem({len(self.rules)} rules over {self.field}: {body})"
