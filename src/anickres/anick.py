"""The first chain sets and differentials of the combinatorial resolution
attached to a reduced complete rewriting system.

Chains: level -1 is {e}, level 0 the alphabet, level 1 the rule leading
words, level 2 the minimal overlap tips.  The free module at each level
has basis m.t with m an irreducible word and t a chain; the differentials
d_n and the contracting lifts i_n are built by the mutual recursion

    d_{n+1}(.t) = delta_{n+1}(.t) - i_n(d_n(delta_{n+1}(.t)))
    i_n(f)      = j_n(lt(f)) + i_n(f - d_n(j_n(lt(f))))

which terminates because the leading basis element strictly drops in the
(artinian) order induced by m.t -> mt.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .polynomials import Polynomial
from .rewriting import RewritingSystem
from .words import Word


class LiftError(RuntimeError):
    """The contracting lift got stuck (leading term not liftable, or the
    leading element failed to decrease); for odd characteristic this is
    the symptom of a sign-convention failure."""


class ModuleElement:
    """A finite F_p-combination of basis elements m.t at one level."""

    __slots__ = ("level", "field", "terms")

    def __init__(self, level: int, field, terms: dict[tuple[Word, Word], int] | None = None):
        self.level = level
        self.field = field
        self.terms: dict[tuple[Word, Word], int] = {}
        if terms:
            for key, c in terms.items():
                c %= field.p
                if c:
                    self.terms[key] = c

    @classmethod
    def zero(cls, level: int, field) -> "ModuleElement":
        return cls(level, field)

    @classmethod
    def basis(cls, level: int, field, m: Word, t: Word, coeff: int = 1) -> "ModuleElement":
        return cls(level, field, {(m, t): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def combine(self, coeff: int, other: "ModuleElement") -> "ModuleElement":
        if other.level != self.level:
            raise ValueError("mixed levels")
        acc = dict(self.terms)
        p = self.field.p
        for key, c in other.terms.items():
            acc[key] = (acc.get(key, 0) + coeff * c) % p
        return ModuleElement(self.level, self.field, acc)

    def __add__(self, other):
        return self.combine(1, other)

    def __sub__(self, other):
        return self.combine(-1, other)

    def scale(self, coeff: int) -> "ModuleElement":
        return ModuleElement(
            self.level, self.field, {k: c * coeff for k, c in self.terms.items()}
        )

    def __iter__(self):
        return iter(self.terms.items())

    def __eq__(self, other):
        return (
            isinstance(other, ModuleElement)
            and self.level == other.level
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.level, frozenset(self.terms.items())))

    @staticmethod
    def basis_key(key: tuple[Word, Word]):
        """Order basis elements by the concatenated word mt (injective per level)."""
        m, t = key
        return (m.degree + t.degree, m.ranks + t.ranks)

    def leading(self) -> tuple[tuple[Word, Word], int]:
        if not self.terms:
            raise ValueError("leading term of zero")
        key = max(self.terms, key=ModuleElement.basis_key)
        return key, self.terms[key]

    def support(self) -> list[tuple[Word, Word]]:
        return sorted(self.terms, key=ModuleElement.basis_key)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, t in sorted(self.terms, key=ModuleElement.basis_key, reverse=True):
            c = self.terms[(m, t)]
            head = "" if c == 1 else f"{c} "
            mm = "" if m.is_empty() else f"{str(m)} "
            parts.append(f"{head}{mm}. {t}" if not t.is_empty() else f"{head}{mm}. e")
        return " + ".join(parts)

    def __repr__(self):
        return f"ModuleElement(level={self.level}, {self})"


def overlap_tips(system: RewritingSystem) -> set[Word]:
    """All words u m1 = m2 v glued from a proper suffix/prefix match of two
    rule leading words (self-overlaps included)."""
    tips = set()
    lhs = system.lhs_words()
    for m1 in lhs:
        for m2 in lhs:
            for t in range(1, min(len(m1), len(m2))):
                if m2.ranks[len(m2) - t :] == m1.ranks[:t]:
                    tips.add(m2 * m1[t:])
    return tips


def chains_T2(system: RewritingSystem) -> list[Word]:
    """Minimal overlap tips: tips containing no other tip as proper subword.

    A tip occurs inside w exactly where two lhs occurrences (i1, L1) and
    (i2, L2) overlap properly, i1 < i2 < i1 + L1 < i2 + L2; it is a proper
    subword unless that span is all of w.
    """
    if not system.is_reduced():
        raise ValueError("level-2 chains require a reduced system")
    minimal = []
    for w in overlap_tips(system):
        n = len(w)
        occurrences = system.lhs_occurrences(w)
        if any(
            i1 < i2 < i1 + L1 < i2 + L2 and (i1 > 0 or i2 + L2 < n)
            for i1, L1 in occurrences
            for i2, L2 in occurrences
        ):
            continue
        # uniqueness of the realizing rules: exactly one proper prefix and
        # one proper suffix of each minimal tip is a rule leading word
        prefixes = [L for i, L in occurrences if i == 0 and 0 < L < n]
        suffixes = [i for i, L in occurrences if 0 < i and i + L == n]
        if len(prefixes) != 1 or len(suffixes) != 1:
            raise ValueError(f"tip {w} lacks a unique rule factorization")
        minimal.append(w)
    minimal.sort(key=Word.sort_key)
    return minimal


class ResolutionPrefix:
    """Chain sets at levels -1..2 and the differentials d_0, d_1, d_2."""

    def __init__(self, system: RewritingSystem):
        if not system.is_reduced():
            raise ValueError("resolution prefix requires a reduced system")
        self.system = system
        self.field = system.field
        e = system.alphabet.empty_word
        self.chains: dict[int, list[Word]] = {
            -1: [e],
            0: sorted(
                (Word((g,)) for g in system.alphabet), key=Word.sort_key
            ),
            1: sorted(system.lhs_words(), key=Word.sort_key),
            2: chains_T2(system),
        }
        self._t1 = set(self.chains[1])
        self._t2 = set(self.chains[2])
        self._d_memo: dict[tuple[int, Word], ModuleElement] = {}

    # ----- delta and j -----------------------------------------------
    def delta(self, level: int, m: Word, t: Word) -> ModuleElement:
        """The uncorrected differential on a basis element m.t."""
        e = self.system.alphabet.empty_word
        if level == 0:
            nf = self.system.normal_form_word(m * t)
            return ModuleElement(
                -1, self.field, {(w, e): c for w, c in nf}
            )
        if level == 1:
            head, last = t[:-1], Word((t[-1],))
            nf = self.system.normal_form(
                Polynomial.monomial(self.field, m * head)
            )
            return ModuleElement(0, self.field, {(w, last): c for w, c in nf})
        if level == 2:
            suffix_len = next(
                k for k in range(1, len(t)) if t[k:] in self._t1
            )
            u, m2 = t[:suffix_len], t[suffix_len:]
            nf = self.system.normal_form_word(m * u)
            return ModuleElement(1, self.field, {(w, m2): c for w, c in nf})
        raise ValueError(f"no delta at level {level}")

    def j_map(self, level: int, m: Word, t: Word) -> Optional[ModuleElement]:
        """The splitting candidate: a single basis element one level up, or
        None when the word mt carries no chain of the higher level."""
        if level == 0:
            # u x . e -> u . x
            if m.is_empty():
                return None
            return ModuleElement.basis(0, self.field, m[:-1], Word((m[-1],)))
        if level == 1:
            # m . x -> u . vx whenever a suffix v of m makes vx a rule lhs
            for cut in range(len(m) + 1):
                cand = m[cut:] * t
                if cand in self._t1:
                    return ModuleElement.basis(1, self.field, m[:cut], cand)
            return None
        if level == 2:
            for cut in range(len(m) + 1):
                cand = m[cut:] * t
                if cand in self._t2:
                    return ModuleElement.basis(2, self.field, m[:cut], cand)
            return None
        raise ValueError(f"no j-map at level {level}")

    # ----- module structure ------------------------------------------
    def act(self, m: Word, elem: ModuleElement) -> ModuleElement:
        """Left multiplication by m, re-expanded into the m'.t basis."""
        acc: dict[tuple[Word, Word], int] = {}
        p = self.field.p
        for (m1, t), c in elem:
            for w, c2 in self.system.normal_form_word(m * m1):
                key = (w, t)
                acc[key] = (acc.get(key, 0) + c * c2) % p
        return ModuleElement(elem.level, self.field, acc)

    def augmentation(self, elem: ModuleElement) -> int:
        """epsilon on level -1: the coefficient of e.e."""
        if elem.level != -1:
            raise ValueError("augmentation applies at level -1")
        e = self.system.alphabet.empty_word
        return elem.terms.get((e, e), 0)

    # ----- differentials ---------------------------------------------
    def d_generator(self, level: int, t: Word) -> ModuleElement:
        """d_level on the generator .t, tabulated."""
        key = (level, t)
        if key in self._d_memo:
            return self._d_memo[key]
        e = self.system.alphabet.empty_word
        if level == 0:
            val = self.delta(0, e, t)
        else:
            delta_t = self.delta(level, e, t)
            below = self.apply_d(level - 1, delta_t)
            if below.is_zero():
                val = delta_t
            else:
                val = delta_t - self.lift_i(level - 1, below)
        self._d_memo[key] = val
        return val

    def apply_d(self, level: int, elem: ModuleElement) -> ModuleElement:
        """Linear extension: d(m.t) = m * d(.t)."""
        acc = ModuleElement.zero(level - 1, self.field)
        for (m, t), c in elem:
            acc = acc.combine(c, self.act(m, self.d_generator(level, t)))
        return acc

    def lift_i(self, level: int, f: ModuleElement) -> ModuleElement:
        """The contracting lift i_level: a cycle f at level-1 goes to an
        element one level up with d_level(i(f)) = f."""
        if f.level != level - 1:
            raise ValueError("lift input at the wrong level")
        # precondition: f is a cycle one step further down
        if level == 0:
            residue = self.augmentation(f)
            if residue:
                raise LiftError(f"lift input has augmentation {residue}")
        else:
            below = self.apply_d(level - 1, f)
            nonzero = (
                self.augmentation(below) != 0 if level == 1 else not below.is_zero()
            )
            if nonzero:
                raise LiftError(f"lift input is not a cycle: boundary {below}")
        result = ModuleElement.zero(level, self.field)
        guard = None
        while not f.is_zero():
            (m, t), c = f.leading()
            if guard is not None and ModuleElement.basis_key((m, t)) >= guard:
                raise LiftError(
                    f"leading element failed to decrease at {m}.{t} "
                    f"(sign convention breaks down here)"
                )
            guard = ModuleElement.basis_key((m, t))
            g = self.j_map(level, m, t)
            if g is None:
                raise LiftError(
                    f"leading element {m}.{t} of a cycle is not liftable "
                    f"(sign convention breaks down here)"
                )
            g = g.scale(c)
            result = result + g
            f = f - self.apply_d(level, g)
        return result

    # ----- verification ----------------------------------------------
    def verify_complex(self) -> tuple[bool, list[str]]:
        """epsilon d_0 = 0, d_0 d_1 = 0 and d_1 d_2 = 0 on every generator."""
        problems = []
        for t in self.chains[0]:
            if self.augmentation(self.d_generator(0, t)):
                problems.append(f"epsilon d_0(.{t}) != 0")
        for level in (1, 2):
            for t in self.chains[level]:
                square = self.apply_d(level - 1, self.d_generator(level, t))
                if not square.is_zero():
                    problems.append(f"d_{level-1} d_{level}(.{t}) = {square}")
        return (not problems, problems)

    def degree_check(self) -> bool:
        """Homogeneous systems: d preserves the total degree m.t -> deg(mt)."""
        for level in (0, 1, 2):
            for t in self.chains[level]:
                for (m, t2), _ in self.d_generator(level, t):
                    if m.degree + t2.degree != t.degree:
                        return False
        return True
