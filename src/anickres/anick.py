"""The first chain sets and differentials of the combinatorial resolution
attached to a reduced complete rewriting system (Anick, Trans. AMS 296,
1986).

Chains: level -1 is {e}, level 0 the alphabet, level 1 the rule leading
words L, each with its tail L[1:]; `extend_chains` builds each level above
from the one below, up to level 2, as on Ufnarovski's chain graph
(Cojocaru, Podoplelov, Ufnarovski, 1999): the lhs trie lists the edges and
the prepend automaton tests each.  The free module at each level has basis
m.t with m an irreducible word and t a chain; an element is a term dict
{(m, t): c} with every coefficient a residue in 1..p-1 (zeros dropped),
and its level is the caller's to know.  One rule builds the differential
at every level:

    d_{n+1}(.t) = delta(.t) - i_n(d_n(delta(.t)))
    i_n(f)      = j(lt(f)) + i_n(f - d_n(j(lt(f))))

where the splitting map j sends m.t to u.(v t) for the longest suffix v
of m = u v that makes v t a chain one level up, and delta(m.t) = nf(m u).s
for u.s = j(t.e) one level down: s is the longest suffix of t that is a
chain there.  d_{-1} is the augmentation.  The lift runs at levels >= 0
only: on an augmented system delta(.x) = nf(x).e has no e.e term, so
d_{-1}(delta(.x)) = 0 and d_0 = delta needs no lift.  It terminates
because the leading basis element strictly drops in the (artinian) order
induced by m.t -> mt.  On a homogeneous system every term of a lift has
one degree, where deglex is tuple order, so leads compare the words mt
(`_word`).  The input is tested for a cycle only when the lift gets stuck:
on a complete system d o d = 0, so a non-cycle is no boundary, its lift
always gets stuck, and the error names its boundary.  On an incomplete
system a non-cycle may lift; neither CLI path resolves one (`anick` checks
completeness, `betti` completes first).

Every term m.t' of d(.t) has deg t' <= deg t (rewriting never raises the
degree), so the chains of degree <= D span a subcomplex with the same
ranks, exactness defects and Betti table up to D.  Given a bound D, the
prefix lists only those chains, each level extending only the chains kept
below it, and only up to D.  `diff[level]` tabulates d(.t) when t is first
read, so a run builds no differential it does not read; its len, iteration
and `in` see only the entries read so far, so readers go through the chain
lists.  Its dicts are shared, never changed: `act` by the empty word hands
back the element it was given, as `normal_form_word` hands out its memo.
A product m * d(.t) that is summed (a boundary's terms, a lift step, a
cancellation in minimalization) is added into its sum in place by
`act_into`, with no dict built for it; `act` builds a fresh one only for
the column images, the products that are kept.
"""

from __future__ import annotations

import functools
from typing import Optional

from .polynomials import accumulate
from .rewriting import RewritingSystem
from .words import Alphabet, Word

_TOP = 2  # the highest chain level built


def _word(mt: tuple[Word, Word]) -> Word:
    """The word m t of m.t, the one basis order (see `resolution.GradedComplex`)."""
    return mt[0] + mt[1]


class LiftError(RuntimeError):
    """The contracting lift got stuck.  It cannot on a reduced system that
    is complete up to the chain's degree, so the system is not, or this is
    a bug."""


_STUCK = "the system is not complete up to this degree, or this is a bug"


def format_terms(alphabet: Alphabet, terms: dict[tuple[Word, Word], int]) -> str:
    """Print a module element {(m, t): c}, the largest word mt first, as
    "c m . t" summands ("0" when empty; a unit c, an empty m and an empty
    t, printed as e, are left out)."""
    if not terms:
        return "0"
    fmt, key = alphabet.format, alphabet.sort_key
    parts = []
    for m, t in sorted(terms, key=lambda mt: key(_word(mt)), reverse=True):
        c = terms[(m, t)]
        head = "" if c == 1 else f"{c} "
        mm = f"{fmt(m)} " if m else ""
        parts.append(f"{head}{mm}. {fmt(t) if t else 'e'}")
    return " + ".join(parts)


def extend_chains(
    system: RewritingSystem,
    level: list[tuple[Word, Word]],
    max_degree: Optional[int] = None,
) -> list[tuple[Word, Word]]:
    """The next chain level from (chain, tail) pairs, sorted by chain: t
    with tail u extends to t v, with tail v, when an lhs starting inside u
    runs v past its end and u v holds no other lhs occurrence (in a reduced
    system, Anick's condition that no proper prefix of u v longer than u
    holds an lhs).  Two occurrences ending at its last letter would make
    one lhs a suffix of another, so the test is that u v[:-1] is
    irreducible.  With max_degree, a t v of higher degree is dropped first."""
    degree = system.alphabet.degree
    bound = float("inf") if max_degree is None else max_degree
    out = []
    for t, u in level:
        room = bound - degree(t)
        for v in system.lhs_overhangs(u):
            if degree(v) <= room and system.is_irreducible_word(u + v[:-1]):
                out.append((t + v, v))
    key = system.alphabet.sort_key
    out.sort(key=lambda tv: key(tv[0]))
    return out


class _OnDemand(dict):
    """A level table {t: d(.t)} over a fixed chain set that fills an entry
    from `fill(t)` on its first read; reading a t outside the chains raises
    KeyError, as a full table would."""

    def __init__(self, chains, fill):
        super().__init__()
        self.chains = chains
        self.fill = fill

    def __missing__(self, t):
        if t not in self.chains:
            raise KeyError(t)
        value = self[t] = self.fill(t)
        return value


class ResolutionPrefix:
    """Chain sets at levels -1..2 of degree <= max_degree (None: all), each
    above level 1 by `extend_chains` from the one below, and the
    differentials d_0, d_1, d_2, one on-demand table `diff[level]` each,
    whose dicts are shared with every reader and never changed."""

    def __init__(self, system: RewritingSystem, max_degree: Optional[int] = None):
        if not system.is_reduced():
            raise ValueError("resolution prefix requires a reduced system")
        alphabet = system.alphabet
        e = alphabet.empty_word
        for rule in system.rules:
            if e in rule.rhs.terms:
                raise ValueError(
                    f"presentation is not augmented: rule {rule} has a constant term"
                )
        self.system = system
        self.field = system.field
        self.alphabet = alphabet
        key, degree = alphabet.sort_key, alphabet.degree
        # the first rule whose tail leaves the degree of its lhs, or None
        self.inhomogeneous_rule = next(
            (r for r in system.rules if any(degree(w) != degree(r.lhs) for w in r.rhs.terms)),
            None,
        )
        bound = float("inf") if max_degree is None else max_degree
        self.chains: dict[int, list[Word]] = {
            -1: [e],
            0: sorted(((i,) for i in range(len(alphabet)) if degree((i,)) <= bound), key=key),
        }
        pairs = sorted(
            ((L, L[1:]) for L in system.lhs_words() if degree(L) <= bound),
            key=lambda tu: key(tu[0]),
        )
        self.chains[1] = [t for t, _u in pairs]
        for n in range(2, _TOP + 1):
            pairs = extend_chains(system, pairs, max_degree)
            self.chains[n] = [t for t, _u in pairs]
        self._chain_sets = {level: set(ts) for level, ts in self.chains.items()}
        self.diff: dict[int, dict[Word, dict[tuple[Word, Word], int]]] = {
            level: _OnDemand(self._chain_sets[level], functools.partial(self._tabulate, level))
            for level in self.chains
            if level >= 0
        }

    # ----- delta and j -----------------------------------------------
    def delta(self, level: int, t: Word) -> dict[tuple[Word, Word], int]:
        """The uncorrected differential on a generator .t: with u.s the
        splitting j(t.e) one level down, s the longest suffix of t that is a
        chain there, .t -> nf(u).s."""
        split = self.j_map(level - 1, t, ())
        if split is None:
            raise ValueError(
                f"{self.alphabet.format(t)} has no suffix chain at level {level - 1}"
            )
        u, s = split
        return {(w, s): c for w, c in self.system.normal_form_word(u).items()}

    def j_map(self, level: int, m: Word, t: Word) -> Optional[tuple[Word, Word]]:
        """The splitting candidate m.t -> u.vt, as (u, vt), for the longest
        suffix v of m that makes vt a chain at the level, or None when there
        is none."""
        chains = self._chain_sets[level]
        for cut in range(len(m) + 1):
            cand = m[cut:] + t
            if cand in chains:
                return m[:cut], cand
        return None

    # ----- module structure ------------------------------------------
    def act_into(self, acc: dict, c: int, m: Word, terms: dict) -> None:
        """acc += c (m * terms) in place over F_p: left multiplication by m,
        re-expanded into the m'.t basis, each product added straight into
        acc, and a key that reaches zero removed at once.  acc must not be
        `terms`.  An empty m adds c terms as they stand: their words m1 are
        irreducible, nf(m1) = m1."""
        p, nf = self.field.p, self.system.normal_form_word
        if not m:
            accumulate(acc, c, terms, p)
            return
        for (m1, t), c1 in terms.items():
            c1 *= c
            for w, c2 in nf(m + m1).items():
                key = (w, t)
                x = (acc.get(key, 0) + c1 * c2) % p
                if x:
                    acc[key] = x
                else:
                    acc.pop(key, None)

    def act(self, m: Word, terms: dict) -> dict[tuple[Word, Word], int]:
        """m * terms as a new dict, for the column images, the one product
        that is kept rather than summed.  An empty m returns `terms` itself,
        shared like a normal form: the caller never changes it."""
        if not m:
            return terms
        acc: dict[tuple[Word, Word], int] = {}
        self.act_into(acc, 1, m, terms)
        return acc

    # ----- differentials ---------------------------------------------
    def boundary(self, level: int, terms: dict) -> dict[tuple[Word, Word], int]:
        """The differential of an element at the level: d(m.t) = m * d(.t)
        extended linearly, and at level -1 the augmentation, the
        coefficient of e.e, carried as a multiple of e.e at level -2."""
        if level == -1:
            e = self.alphabet.empty_word
            c = terms.get((e, e))
            return {(e, e): c} if c else {}
        acc: dict[tuple[Word, Word], int] = {}
        diff = self.diff[level]
        for (m, t), c in terms.items():
            self.act_into(acc, c, m, diff[t])
        return acc

    def _tabulate(self, level: int, t: Word) -> dict[tuple[Word, Word], int]:
        """d_level(.t) = delta(.t) - i(d(delta(.t))), on its first read."""
        val = self.delta(level, t)
        below = self.boundary(level - 1, val)
        if below:
            accumulate(val, -1, self.lift_i(level - 1, below), self.field.p)
        return val

    def lift_i(self, level: int, f: dict) -> dict[tuple[Word, Word], int]:
        """The contracting lift i_level, level >= 0: a cycle f at level-1
        goes to an element one level up with d_level(i(f)) = f.  Leads
        compare the words mt (`_word`, as the greedy ranks do) on a
        homogeneous system and their deglex keys otherwise; f is tested for
        a cycle only once the lift gets stuck (see the module docstring)."""
        fmt, key = self.alphabet.format, self.alphabet.sort_key
        order = _word if self.inhomogeneous_rule is None else lambda mt: key(_word(mt))
        result: dict[tuple[Word, Word], int] = {}
        rest = dict(f)
        guard = None
        while rest:
            m, t = max(rest, key=order)
            lead = order((m, t))
            if guard is not None and lead >= guard:
                stuck = f"leading element failed to decrease at {fmt(m)}.{fmt(t)}"
                break
            guard = lead
            g = self.j_map(level, m, t)
            if g is None:
                stuck = f"leading element {fmt(m)}.{fmt(t)} of a cycle is not liftable"
                break
            c = result[g] = rest[(m, t)]  # g has the lead's word, and leads only drop
            self.act_into(rest, -c, g[0], self.diff[level][g[1]])
        else:
            return result
        below = self.boundary(level - 1, f)
        if below:
            stuck = f"lift input is not a cycle: boundary {format_terms(self.alphabet, below)}"
        raise LiftError(f"{stuck}; {_STUCK}")

    # ----- verification ----------------------------------------------
    def generators(self) -> list[tuple[int, Word]]:
        """Every (level, t) whose generator .t has a differential d_level."""
        return [(level, t) for level, ts in self.chains.items() if level >= 0 for t in ts]

    def verify_complex(self) -> tuple[bool, list[str]]:
        """d_{n-1} d_n = 0 on every generator, epsilon d_0 = 0 included.

        This holds by construction once each lift ends with nothing left,
        d(i(f)) = f, so the check guards the integrity of the tables; an
        incomplete system shows up earlier, as a lift input that is not a
        cycle."""
        problems = []
        for level, t in self.generators():
            square = self.boundary(level - 1, self.diff[level][t])
            if square:
                problems.append(
                    f"d_{level-1} d_{level}(.{self.alphabet.format(t)}) = "
                    f"{format_terms(self.alphabet, square)}"
                )
        return (not problems, problems)
