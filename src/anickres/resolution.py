"""Graded linear algebra on a resolution prefix: per-degree matrices of
the differentials, exact ranks over F_p, exactness defects, the radical
(minimality) criterion, minimalization, and graded Betti tables.

Homological indexing of the Betti table: level 0 is the free cover of the
trivial module (one generator in degree 0, chain level -1), level 1 counts
the alphabet chains, level 2 the surviving rule chains after
minimalization.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Sequence

from .anick import ModuleElement, ResolutionPrefix
from .words import Word


# ---------------------------------------------------------------------
# exact rank computation over F_p
# ---------------------------------------------------------------------

def rank_fp(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank of a matrix over F_p by Gaussian elimination (bitpacked for p=2)."""
    if p == 2:
        return _rank_f2(rows)
    return _rank_generic(rows, p)


def _rank_f2(rows: Sequence[Sequence[int]]) -> int:
    """Rows packed into ints (bit j = column j), each reduced against the
    pivot rows found so far, which are keyed by their lowest set bit."""
    pivots: dict[int, int] = {}
    for row in rows:
        r = 0
        for j in compress(range(len(row)), row):
            if row[j] & 1:
                r |= 1 << j
        while r:
            low = r & -r
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = r
                break
            r ^= pivot
    return len(pivots)


def _rank_generic(rows: Sequence[Sequence[int]], p: int) -> int:
    """Row echelon form built one sparse row at a time: each row is reduced
    against the monic pivot rows found so far until it vanishes or leads
    in a new column.  The rank is the number of pivot rows."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {j: x for j in compress(range(len(row)), row) if (x := row[j] % p)}
        while r:
            col = min(r)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(r[col], p - 2, p)
                pivots[col] = {j: x * inv % p for j, x in r.items()}
                break
            c = r[col]
            for j, y in pivot.items():
                x = (r.get(j, 0) - c * y) % p
                if x:
                    r[j] = x
                else:
                    r.pop(j, None)
    return len(pivots)


def rank_fp_oracle(rows: Sequence[Sequence[int]], p: int) -> int:
    """Independent check: eliminate the transpose with the generic routine."""
    if not rows or not rows[0]:
        return 0
    transpose = [[rows[i][j] for i in range(len(rows))] for j in range(len(rows[0]))]
    return _rank_generic(transpose, p)


# ---------------------------------------------------------------------
# graded complex
# ---------------------------------------------------------------------

class GradedComplex:
    """Chain sets and tabulated differentials, possibly after minimalization.

    `chains[level]` lists the generators .t at chain levels -1..top;
    `diff[level][t]` is d_level(.t), an element one level down.
    """

    def __init__(
        self,
        prefix: ResolutionPrefix,
        chains: dict[int, list[Word]],
        diff: dict[int, dict[Word, ModuleElement]],
    ):
        self.prefix = prefix
        self.system = prefix.system
        self.field = prefix.field
        self.chains = {lvl: list(ts) for lvl, ts in chains.items()}
        self.diff = {lvl: dict(table) for lvl, table in diff.items()}
        self.top = max(chains)
        self._irr: dict[int, list[Word]] = {}
        self._irr_bound = -1
        self._rank_memo: dict[tuple[int, int], int] = {}  # ranks only, never matrices

    @classmethod
    def from_prefix(cls, prefix: ResolutionPrefix) -> "GradedComplex":
        diff = {
            lvl: {t: prefix.d_generator(lvl, t) for t in ts}
            for lvl, ts in prefix.chains.items()
            if lvl >= 0
        }
        return cls(prefix, prefix.chains, diff)

    # ----- graded bases ----------------------------------------------
    def _irreducible_of_degree(self, d: int) -> list[Word]:
        if d > self._irr_bound:
            self._irr = {}
            for w in self.system.irreducible_words(max_degree=d):
                self._irr.setdefault(w.degree, []).append(w)
            self._irr_bound = d
        return self._irr.get(d, [])

    def basis(self, level: int, d: int) -> list[tuple[Word, Word]]:
        """Degree-d basis elements m.t at the level, in a fixed order."""
        out = []
        for t in self.chains.get(level, []):
            if t.degree <= d:
                for m in self._irreducible_of_degree(d - t.degree):
                    out.append((m, t))
        out.sort(key=ModuleElement.basis_key)
        return out

    # ----- matrices ---------------------------------------------------
    def differential_matrix(self, level: int, d: int) -> list[list[int]]:
        """Row-major matrix of d_level in degree d (rows: level-1, cols: level).

        Level -1 gives the augmentation row (nonzero only in degree 0).
        """
        if level == -1:
            cols = self.basis(-1, d)
            return [[1] * len(cols)] if d == 0 and cols else []
        cols = self.basis(level, d)
        rows = self.basis(level - 1, d)
        row_index = {key: i for i, key in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for jcol, (m, t) in enumerate(cols):
            image = self.prefix.act(m, self.diff[level][t])
            for key, c in image:
                mat[row_index[key]][jcol] = c
        return mat

    def _rank(self, level: int, d: int) -> int:
        if level > self.top:
            return 0
        key = (level, d)
        if key not in self._rank_memo:
            mat = self.differential_matrix(level, d)
            self._rank_memo[key] = rank_fp(mat, self.field.p)
        return self._rank_memo[key]

    def exactness_defect(self, level: int, d: int) -> int:
        """dim ker(d_level in degree d) minus rank(d_{level+1} in degree d)."""
        ncols = len(self.basis(level, d))
        return ncols - self._rank(level, d) - self._rank(level + 1, d)

    def verify_exactness(self, levels: Iterable[int], max_degree: int) -> dict:
        defects = {}
        for level in levels:
            for d in range(max_degree + 1):
                defect = self.exactness_defect(level, d)
                if defect:
                    defects[(level, d)] = defect
        return defects

    # ----- minimality -------------------------------------------------
    def radical_image_check(self, level: int) -> tuple[bool, list[Word]]:
        """No differential may hit a basis element with empty coefficient word."""
        e = self.system.alphabet.empty_word
        offenders = [
            t
            for t in self.chains.get(level, [])
            if any(m == e for (m, _t2), _c in self.diff[level][t])
        ]
        return (not offenders, offenders)

    def betti_table(self, max_degree: int) -> dict[int, dict[int, int]]:
        """Homological level k counts the chains at chain level k-1 by degree."""
        table: dict[int, dict[int, int]] = {}
        for hlevel in range(self.top + 2):
            counts: dict[int, int] = {}
            for t in self.chains[hlevel - 1]:
                if t.degree <= max_degree:
                    counts[t.degree] = counts.get(t.degree, 0) + 1
            table[hlevel] = counts
        return table


# ---------------------------------------------------------------------
# minimalization
# ---------------------------------------------------------------------

def _is_braid(t: Word) -> bool:
    """Words b_k a_k b_k a_k of the p=2, n=3 system."""
    if len(t) != 4:
        return False
    names = [g.name for g in t]
    return (
        names[0][0] == "b"
        and names[1][0] == "a"
        and names[0] == names[2]
        and names[1] == names[3]
        and names[0][1:] == names[1][1:]
    )


def minimalize(complex_: GradedComplex) -> GradedComplex:
    """Cancel each braid chain b_k a_k b_k a_k at level 1 against the level-2
    chain b_{k+1} a_k a_k whose differential reaches it with a unit constant.

    Every level-2 differential term f.(b_k a_k b_k a_k) is replaced by
    f.(b_{k+1}.a_k^2 + a_k.b_{k+1}a_k), after which the braid chains are
    dropped from level 1 and their partners from level 2.
    """
    prefix = complex_.prefix
    alphabet = complex_.system.alphabet
    e = alphabet.empty_word
    braids = [t for t in complex_.chains[1] if _is_braid(t)]
    if not braids:
        raise ValueError("minimalize expects the braid chains of the p=2, n=3 system")
    partner = {}
    replacement = {}
    for braid in braids:
        k = int(braid[0].name[1:])
        try:
            b_next = alphabet.generator(f"b{k + 1}")
        except KeyError:
            # at the truncation edge the cancelling partner falls outside the
            # alphabet; the braid chain must stay
            continue
        a_k = braid[1]
        t2 = Word((b_next, a_k, a_k))
        d2 = complex_.diff[2][t2]
        expected_constant = d2.terms.get((e, braid), 0)
        if expected_constant != 1:
            raise ValueError(f"differential of .{t2} does not reach .{braid} with a unit")
        partner[braid] = t2
        replacement[braid] = d2 - ModuleElement.basis(1, complex_.field, e, braid)

    removed_t1 = set(partner)
    removed_t2 = set(partner.values())
    new_chains = {
        -1: list(complex_.chains[-1]),
        0: list(complex_.chains[0]),
        1: [t for t in complex_.chains[1] if t not in removed_t1],
        2: [t for t in complex_.chains[2] if t not in removed_t2],
    }

    def substitute(elem: ModuleElement) -> ModuleElement:
        acc = ModuleElement.zero(1, complex_.field)
        for (m, t), c in elem:
            if t in removed_t1:
                acc = acc.combine(c, prefix.act(m, replacement[t]))
            else:
                acc = acc.combine(c, ModuleElement.basis(1, complex_.field, m, t))
        return acc

    new_diff = {
        0: {t: complex_.diff[0][t] for t in new_chains[0]},
        1: {t: complex_.diff[1][t] for t in new_chains[1]},
        2: {t: substitute(complex_.diff[2][t]) for t in new_chains[2]},
    }
    return GradedComplex(prefix, new_chains, new_diff)


def generic_minimalize(complex_: GradedComplex) -> GradedComplex:
    """Minimalize without system-specific knowledge: repeatedly cancel any
    unit constant entry e.t' of any differential d_n(.t), removing the pair
    (t at level n, t' at level n-1) by one Gaussian elimination step."""
    chains = {lvl: list(ts) for lvl, ts in complex_.chains.items()}
    diff = {lvl: dict(tab) for lvl, tab in complex_.diff.items()}
    prefix = complex_.prefix
    field = complex_.field
    e = complex_.system.alphabet.empty_word
    while True:
        hit = None
        for level in sorted(diff):
            for t in chains[level]:
                for (m, t2), c in diff[level][t]:
                    if m == e:
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
        # cancel the t2 components of the other level-n differentials
        for s in chains[level]:
            elem = diff[level][s]
            carriers = [(m, cc) for (m, tt), cc in elem if tt == t2]
            for m, cc in carriers:
                elem = elem.combine(-cc * inv % field.p, prefix.act(m, d_t))
            if any(tt == t2 for (_m, tt) in elem.terms):
                raise ValueError(
                    f"cancelling .{t} against .{t2} left .{t2} in d_{level}(.{s}): "
                    f"the pivot of d_{level}(.{t}) is not a bare scalar"
                )
            diff[level][s] = elem
        # drop the removed level-n generator from the differentials above
        if level + 1 in diff:
            for s in chains[level + 1]:
                elem = diff[level + 1][s]
                trimmed = {
                    key: cc for key, cc in elem.terms.items() if key[1] != t
                }
                diff[level + 1][s] = ModuleElement(level, field, trimmed)
