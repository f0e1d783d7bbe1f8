"""The gating verification suite: one callable per criterion, shared by
the command-line `verify` command and the acceptance tests.

Every check uses exact arithmetic and exact equality.  The conjecture
scans (criterion 9) are informational: they report witnesses but never
gate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field

from .anick import ResolutionPrefix, format_terms
from .kostant import (
    big_system,
    conjectural_system,
    frobenius_shift_check,
    graded_pbw_dimensions,
    pbw_dimension,
    small_system,
    verify_small_against_big,
)
from .polynomials import Polynomial
from .resolution import (
    GradedComplex,
    generic_minimalize,
    minimalize,
    rank_fp,
    rank_fp_oracle,
    resolve,
)
from .rewriting import CompletionCapError, RewritingSystem
from .words import Word

_CASES = 1000  # random cases per criterion 8 suite, read at call time
_BAR_CELL_CAP = 100_000  # cells the bar construction may build, read at call time


@dataclass
class CriterionResult:
    name: str
    passed: bool
    gating: bool = True
    details: dict = dataclass_field(default_factory=dict)

    def line(self) -> str:
        verdict = "PASS" if self.passed else ("FAIL" if self.gating else "INFO")
        return f"{verdict} {self.name}"


def criterion_1_small_complete() -> CriterionResult:
    """Small systems are complete and already interreduced, l <= 3."""
    details = {}
    ok = True
    for l in range(4):
        system = small_system(l)
        complete, witnesses = system.is_complete()
        reduced = system.interreduce().rules == system.rules
        details[f"l={l}"] = {"complete": complete, "interreduce_identity": reduced}
        ok = ok and complete and reduced
    return CriterionResult("criterion 1: small basis completeness and reducedness", ok, details=details)


def criterion_2_dimensions() -> CriterionResult:
    """Irreducible-word counts: 8, 64, 512 over the index bounds 0, 1, 2,
    and per-degree counts match the exponent-tuple counts for d <= 16."""
    details = {}
    ok = True
    for l in (1, 2, 3):
        system = small_system(l - 1)
        total = len(system.irreducible_words())
        expected_total = 8**l
        counts = system.irreducible_counts_by_degree(16)
        expected_counts = graded_pbw_dimensions(3, 2, l, 16)
        good = total == expected_total and counts == expected_counts
        details[f"l={l}"] = {
            "total": total,
            "expected_total": expected_total,
            "graded_match": counts == expected_counts,
        }
        ok = ok and good
    return CriterionResult("criterion 2: dimension counts", ok, details=details)


def criterion_3_big_complete() -> CriterionResult:
    """Big-system completeness and total counts at desk scale."""
    details = {}
    ok = True
    for n, p, l in ((3, 2, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1)):
        system = big_system(n, p, p**l - 1)
        complete, _ = system.is_complete()
        total = len(system.irreducible_words())
        expected = pbw_dimension(n, p, l)
        details[f"n={n},p={p},l={l}"] = {
            "complete": complete,
            "total": total,
            "expected": expected,
        }
        ok = ok and complete and total == expected
    return CriterionResult("criterion 3: big system completeness", ok, details=details)


def criterion_4_identities() -> CriterionResult:
    """Squares, braid and skew identities vanish in the divided-power
    algebra for indices <= 2 (the index-2 small relations cover them all)."""
    ok, failures = verify_small_against_big(2)
    return CriterionResult(
        "criterion 4: identity suite in the divided-power algebra",
        ok,
        details={"failures": [str(f) for f in failures]},
    )


def criterion_5_golden_differentials() -> CriterionResult:
    """The tabulated d_1 and d_2 values match the printed formulas for all
    indices <= 3."""
    K = 3
    system = small_system(K)
    prefix = ResolutionPrefix(system)
    A = system.alphabet
    a = [A.word(f"a{k}") for k in range(K + 1)]
    b = [A.word(f"b{k}") for k in range(K + 1)]
    e = A.empty_word

    def elem(*pairs):
        return dict.fromkeys(pairs, 1)  # distinct basis elements, unit coefficients

    mismatches = []

    def expect(level, t, expected):
        got = prefix.diff[level][t]
        if got != expected:
            mismatches.append(
                f"d_{level}(.{A.format(t)}) = {format_terms(A, got)}, "
                f"expected {format_terms(A, expected)}"
            )

    for k in range(K + 1):
        ak, bk = a[k], b[k]
        expect(1, ak + ak, elem((ak, ak)))
        braid = bk + ak + bk + ak
        expect(1, braid, elem((bk + ak + bk, ak), (ak + bk + ak, bk)))
        for l in range(k + 1, K + 1):
            al = a[l]
            expect(1, al + ak, elem((al, ak), (ak, al)))
            tail = ak + bk + ak + sum(a[k + 1 : l], ())
            expect(1, al + bk, elem((al, bk), (bk, al), (tail[:-1], tail[-1:])))
            expect(2, al + ak + ak, elem((al, ak + ak), (ak, al + ak)))
            expect(
                2,
                al + braid,
                elem((al, braid), (bk + ak + bk, al + ak), (ak + bk + ak, al + bk)),
            )
        if k + 1 <= K:
            anext = a[k + 1]
            expect(2, anext + bk + bk, elem((anext, bk + bk), (bk, anext + bk), (e, braid)))
    return CriterionResult(
        "criterion 5: golden differential values",
        not mismatches,
        details={"mismatches": mismatches},
    )


def criterion_6_exactness() -> CriterionResult:
    """d o d = 0 on all generators; zero exactness defects through degree 16."""
    prefix = ResolutionPrefix(small_system(3))
    complex_ok, problems = prefix.verify_complex()
    gc = GradedComplex.from_prefix(prefix)
    defects = gc.verify_exactness(range(-1, gc.top), 16)
    ok = complex_ok and not defects
    return CriterionResult(
        "criterion 6: complex identity and exactness",
        ok,
        details={
            "d_compose_d_zero": complex_ok,
            "problems": problems,
            "defects": {f"{k}": v for k, v in defects.items()},
        },
    )


def expected_betti_table(max_degree: int = 16, K: int = 3) -> dict[int, dict[int, int]]:
    """Level 0: the trivial cover; level 1: two generators in each degree
    2^k; level 2: two in each degree 2^(k+1) and four in each 2^l + 2^k."""
    level1 = {2**k: 2 for k in range(K + 1) if 2**k <= max_degree}
    level2: dict[int, int] = {}
    for k in range(K + 1):
        d = 2 ** (k + 1)
        if d <= max_degree:
            level2[d] = level2.get(d, 0) + 2
    for k in range(K + 1):
        for l in range(k + 1, K + 1):
            d = 2**l + 2**k
            if d <= max_degree:
                level2[d] = level2.get(d, 0) + 4
    return {0: {0: 1}, 1: level1, 2: level2}


def criterion_7_minimality() -> CriterionResult:
    """After minimalization: radical criterion at levels 0-2, zero defects,
    and the expected Betti table; the generic cancellation path agrees."""
    prefix = ResolutionPrefix(small_system(3))
    gc = GradedComplex.from_prefix(prefix)
    mn = minimalize(gc)
    radical = {lvl: mn.radical_image_check(lvl)[0] for lvl in range(mn.top + 1)}
    defects = mn.verify_exactness(range(-1, mn.top), 16)
    betti = {lvl: mn.betti_table(16)[lvl] for lvl in (0, 1, 2)}
    expected = expected_betti_table(16, 3)
    gm = generic_minimalize(gc)
    generic_betti = {lvl: gm.betti_table(16)[lvl] for lvl in (0, 1, 2)}
    ok = (
        all(radical.values())
        and not defects
        and betti == expected
        and generic_betti == betti
    )
    return CriterionResult(
        "criterion 7: minimality and Betti numbers",
        ok,
        details={
            "radical": radical,
            "defects": {f"{k}": v for k, v in defects.items()},
            "betti": betti,
            "expected": expected,
            "generic_agrees": generic_betti == betti,
        },
    )


# ---------------------------------------------------------------------
# criterion 8: randomized property suites
# ---------------------------------------------------------------------

def _random_word(rng: random.Random, alphabet, max_len: int) -> Word:
    return tuple(rng.randrange(len(alphabet)) for _ in range(rng.randint(0, max_len)))


def check_monoid_laws() -> int:
    """Translation invariance and totality of the word order."""
    rng = random.Random(0)
    alphabet = small_system(1).alphabet
    key = alphabet.sort_key
    failures = 0
    for _ in range(_CASES):
        u = _random_word(rng, alphabet, 5)
        v = _random_word(rng, alphabet, 5)
        w = _random_word(rng, alphabet, 5)
        if key(u) < key(v):
            if not (key(u + w) < key(v + w) and key(w + u) < key(w + v)):
                failures += 1
        if (key(u) < key(v)) + (key(v) < key(u)) + (u == v) != 1:
            failures += 1
        if u and not key(v) < key(v + u):
            failures += 1
    return failures


def check_nf_uniqueness() -> int:
    """A complete system gives one normal form no matter the strategy."""
    rng = random.Random(1)
    system = small_system(1)
    failures = 0
    for _ in range(_CASES):
        g = Polynomial.from_terms(
            system.field,
            system.alphabet,
            [(1, _random_word(rng, system.alphabet, 6)) for _ in range(rng.randint(1, 3))],
        )
        h = g
        while True:
            candidates = []
            for w in h.terms:
                for pos in range(len(w)):
                    for ridx, rule in enumerate(system.rules):
                        if w[pos : pos + len(rule.lhs)] == rule.lhs:
                            candidates.append((w, pos, ridx))
            if not candidates:
                break
            w, pos, ridx = rng.choice(candidates)
            coeff = h.terms[w]
            monomial = Polynomial.monomial(system.field, system.alphabet, w)
            h = h.combine(-coeff, monomial).combine(
                coeff, system.apply_step(w, pos, ridx)
            )
        if h != system.normal_form(g):
            failures += 1
    return failures


def check_reduction_soundness() -> int:
    """Two-sided multiples of the relations reduce to zero."""
    rng = random.Random(2)
    system = small_system(1)
    failures = 0
    for _ in range(_CASES):
        rule = rng.choice(system.rules)
        u = _random_word(rng, system.alphabet, 3)
        v = _random_word(rng, system.alphabet, 3)
        g = rule.polynomial().sandwich(u, v)
        if not system.normal_form(g).is_zero():
            failures += 1
    return failures


def check_rank_oracle() -> int:
    """Elimination of the rows (`rank_fp`) agrees with elimination of the
    transpose (`rank_fp_oracle`) on random dense matrices over F_2, F_3 and
    F_5."""
    rng = random.Random(3)
    failures = 0
    for case in range(_CASES):
        p = rng.choice((2, 2, 3, 5))
        if case % 100 == 0:
            rows = cols = 50
        else:
            rows, cols = rng.randint(1, 20), rng.randint(1, 20)
        mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        if rank_fp(mat, p) != rank_fp_oracle(mat, p):
            failures += 1
    return failures


def check_complex_ranks() -> int:
    """The greedy rank of each differential (its independent columns)
    agrees with the rank of its full matrix, at every level with a greedy
    rank: small l=3 to degree 12, interreduced big(3,3,2) to degree 8."""
    failures = 0
    for system, max_degree in (
        (small_system(3), 12),
        (big_system(3, 3, 2), 8),
    ):
        gc = resolve(system, max_degree)
        for level in range(gc.top + 1):
            for d in range(max_degree + 1):
                greedy = len(gc.independent_columns(level, d))
                if greedy != rank_fp(gc.differential_matrix(level, d), gc.field.p):
                    failures += 1
    return failures


def bar_betti_table(
    system: RewritingSystem, max_degree: int, rows: int
) -> dict[int, dict[int, int]]:
    """dim Tor_n(k, k)_d != 0 of A, n < rows, d <= max_degree, from the
    reduced bar construction (Cartan-Eilenberg ch. X): level-n cells are
    tuples of n nonempty irreducible words, d[w1|..|wn] = sum_i (-1)^i
    [..|nf(wi wi+1)|..].  No chain, lift or greedy rank.  The system must be
    homogeneous and complete up to max_degree; a ValueError is raised once
    there are more than `_BAR_CELL_CAP` cells."""
    p, degree, nf = system.field.p, system.alphabet.degree, system.normal_form_word
    words = [w for w in system.irreducible_words(max_degree) if w]
    cells: dict[int, dict[int, list]] = {0: {0: [()]}}  # level -> degree -> cells
    count = 1
    for n in range(1, rows + 1):
        level = cells[n] = {}
        for d0, below in cells[n - 1].items():
            for w in words:
                if (d := d0 + degree(w)) <= max_degree:
                    level.setdefault(d, []).extend(c + (w,) for c in below)
                    count += len(below)
                    if count > _BAR_CELL_CAP:
                        raise ValueError(
                            f"bar construction exceeded its cap of {_BAR_CELL_CAP} cells "
                            f"up to degree {max_degree}"
                        )

    def image(c):  # entries not reduced mod p, as rank_fp allows
        out: dict = {}
        for i in range(len(c) - 1):
            for u, a in nf(c[i] + c[i + 1]).items():
                key = c[:i] + (u,) + c[i + 2 :]
                out[key] = out.get(key, 0) + (-1) ** (i + 1) * a
        return out

    rank = {(n, d): rank_fp(list(map(image, cs)), p) for n in cells for d, cs in cells[n].items()}
    table: dict[int, dict[int, int]] = {n: {} for n in range(rows)}
    for n in range(rows):
        for d, cs in cells[n].items():
            if b := len(cs) - rank[n, d] - rank.get((n + 1, d), 0):
                table[n][d] = b
    return table


def criterion_8_properties() -> CriterionResult:
    """`_CASES` random cases for each of four suites, seeded 0-3, and the
    greedy ranks of two complexes against their full matrices."""
    details = {
        "monoid_laws": check_monoid_laws(),
        "nf_uniqueness": check_nf_uniqueness(),
        "reduction_soundness": check_reduction_soundness(),
        "rank_oracle": check_rank_oracle(),
        "complex_rank_oracle": check_complex_ranks(),
    }
    ok = all(v == 0 for v in details.values())
    return CriterionResult(
        "criterion 8: randomized property suites", ok, details=details
    )


def criterion_9_conjectures() -> CriterionResult:
    """Bounded conjecture scans; informational only (never gates)."""
    details = {}
    shift_ok = all(
        frobenius_shift_check(l, j)[0] for l in range(4) for j in (1, 2)
    )
    details["frobenius shift (l<=3, j<=2)"] = "consistent" if shift_ok else "witness found"
    consistent = shift_ok
    for name, variant, n, p, index_bound, bound in (
        ("odd_p_n3 (p=3, degree<=9)", "odd_p_n3", 3, 3, 1, 9),
        ("p2_general_n (n=4, degree<=8)", "p2_general_n", 4, 2, 2, 8),
    ):
        system = conjectural_system(variant, n, p, index_bound)
        try:
            completed = system.complete(bound)
        except CompletionCapError:
            details[name] = "inconclusive: completion cap reached"
            consistent = False
            continue
        new = completed.rules[len(system.rules):]
        details[name] = (
            "consistent up to bound"
            if not new
            else f"witness: {len(new)} unresolved consequences, "
            f"e.g. {completed.alphabet.format(new[0].lhs)}"
        )
        consistent = consistent and not new
    return CriterionResult(
        "criterion 9: conjecture scans (experimental)",
        consistent,
        gating=False,
        details=details,
    )


ALL_CRITERIA = (
    criterion_1_small_complete,
    criterion_2_dimensions,
    criterion_3_big_complete,
    criterion_4_identities,
    criterion_5_golden_differentials,
    criterion_6_exactness,
    criterion_7_minimality,
    criterion_8_properties,
    criterion_9_conjectures,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
