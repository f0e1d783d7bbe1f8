"""Graded linear algebra on a resolution prefix: per-degree bases, exact
ranks of the differentials over F_p, exactness defects, the radical
(minimality) criterion, minimalization, and graded Betti tables.

The column of the basis element m.t is its image under d, m * d(.t)
(Anick's module structure), built as a fresh dict by `prefix.act` and
never cached: the normal-form memo holds nf(m' w) for m = x m', so
reducing x m' w is one engine step from it.  The column images are the
only products kept; every product that is summed, as the minimalizations'
cancellations are, goes into its sum in place through `prefix.act_into`.

Basis order is the word mt of m.t, as in the lift (`anick._word`): no
two basis elements at one level share it (see `GradedComplex`).  The
rank of d_level in degree d (level >= 0) is taken by one greedy
elimination, `independent_columns`, that never builds the matrix, never
lists the basis, and builds few column images: each candidate carries
the lead of its image from the column one letter down (left
multiplication keeps basis order and reduction only lowers a word), and
an image is built only where the lead does not carry or collides with a
pivot (see `_kept_records`).  It keeps the columns of an elimination
that builds every image.
This is exact because the image of d is a left submodule of the free
module: by induction on the degree and then along the basis order, a
dependent m'.t is a combination of kept columns m_i.t_i before it, and x
times each of those is a column before x m'.t or, where x m_i reduces, a
combination of columns smaller still, all in the span of the kept
columns already.  Nothing here needs exactness or d o d = 0, only the
reduced complete system that the column images already assume.  Most
columns of a large degree are never built: in degree 12 of the
minimalized big(4,3,2) complex, 538 of 11,684 level-2 columns are
independent, and in the minimalized small l=4 complex to degree 18,
1,441 of the 8,303 candidates have their image built, each once.  The
exactness defect needs the number of columns too, and counts them on the
automaton of the left-hand sides: the sum over the chains t of the
irreducible words of degree d - deg t.

The greedy rank pivots on sparse rows {(w, t'): c}.  The augmentation's
rank, at level -1, is 1 in degree 0 and 0 elsewhere.  `basis`,
`differential_matrix` (a whole matrix as sparse rows, one {column: nonzero
residue} dict per row) and `rank_fp` are oracles for the checks only; the
pipeline calls none of them.  `rank_fp` runs on the greedy rank's
lead-pivoted kernel for every p.

Minimalization cancels each unit constant entry of a differential by one
elimination step, in place and in one pass over the levels; the braid
cancellation of the p = 2, n = 3 small system is kept as an independent
oracle for it.  A cancellation pairs two chains of equal degree and
changes only the differentials of chains of that degree or above, which
come later in the degree-ordered chain lists, so minimalizing the complex
of a prefix bounded at D gives the truncation at D of the minimalized
complex.

`resolve(system, D)` is the one route from a presentation to the complex
read up to D: it interreduces, completes up to D (Bergman's diamond
lemma) only if `is_complete(D)` fails, and interreduces the completion.
Interreduction returns a reduced system itself and completion its working
system, so the memo that the completeness check and completion warm stays
with the system the chains are read from.  It refuses a presentation
that is not augmented or not homogeneous, as the prefix finds it.

Homological indexing of the Betti table: level 0 is the free cover of the
trivial module (one generator in degree 0, chain level -1), level 1 counts
the alphabet chains, level 2 the surviving rule chains after
minimalization.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable, Optional, Sequence, Union

from .anick import ResolutionPrefix, _OnDemand, _word
from .polynomials import accumulate
from .rewriting import RewritingSystem
from .words import Alphabet, Word


# ---------------------------------------------------------------------
# exact rank computation over F_p
# ---------------------------------------------------------------------

def rank_fp(rows: Sequence[Union[dict, Sequence[int]]], p: int) -> int:
    """Rank of a matrix over F_p by Gaussian elimination on sparse rows.

    Rows are {column: residue} dicts (as `GradedComplex.differential_matrix`
    builds them; any column keys that compare with each other) or dense
    sequences of ints, read as {index: entry}, and are left unchanged.
    Entries need not be reduced modulo p."""
    echelon = _Echelon(p)
    return sum(echelon.insert(_residues(r, p)) for r in rows)


def _residues(row: Union[dict, Sequence[int]], p: int) -> dict:
    """A {key: entry} dict or a dense row, read as {index: entry}, as a new
    {key: nonzero residue} row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {k: y for k, x in items if (y := x % p)}


class _Echelon:
    """Row echelon form over F_p grown one sparse row at a time, pivoting on
    leading keys: a row's lead is its largest key under `order` (the keys
    themselves by default), and the pivot rows found so far are kept in
    `pivots`, one per lead.  A row is reduced against the pivot of its lead
    until it vanishes or leads with a key no pivot has.  A caller that knows
    a row's lead may store under that lead, instead of the row, any
    placeholder that is not a dict; `build(placeholder)` turns it into its
    row once, on the first reduction that reaches it.
    """

    def __init__(
        self, p: int, order: Optional[Callable] = None, build: Optional[Callable] = None
    ):
        self.p = p
        self.order = order
        self.build = build
        self.pivots: dict = {}  # lead -> its row, or a placeholder that `build` turns into it

    def insert(self, row: dict) -> bool:
        """Reduce the {key: nonzero residue} row in place; keep it as a new
        pivot row if it stays nonzero, and say whether it did."""
        p, order, pivots = self.p, self.order, self.pivots
        while row:
            lead = max(row, key=order)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                return True
            if not isinstance(pivot, dict):
                pivot = pivots[lead] = self.build(pivot)
            accumulate(row, -row[lead] * pow(pivot[lead], p - 2, p), pivot, p)
        return False


def rank_fp_oracle(rows: Sequence[Sequence[int]], p: int) -> int:
    """Independent check: the rank of the transpose of the dense rows."""
    return rank_fp(list(zip(*rows)), p)


# ---------------------------------------------------------------------
# graded complex
# ---------------------------------------------------------------------

class GradedComplex:
    """Chain sets and differentials, possibly after minimalization.

    `chains[level]` lists the generators .t at chain levels -1..top;
    `diff[level][t]` is d_level(.t), a term dict {(m, t'): c} one level
    down.  The level tables may fill on first read (the prefix's do), so
    they are read only through the chain lists: `diff[level][t]` for t in
    `chains[level]`.  Tables and their dicts may be shared with the prefix
    or with another complex, and are never changed.

    Bases, ranks and defects need the chains of a `ResolutionPrefix` on a
    reduced system, or a subset (a bound and minimalization only drop
    chains).  Then no two basis elements at one level share their word mt,
    which alone is the basis order (`anick._word`): m t = m' t' with
    |t'| < |t| makes t' a proper suffix of t, and in a reduced system no
    level-n chain is a proper suffix of another.  Levels -1 and 0 hold
    chains of one length.  Above, a level-n chain t has n lhs pieces, the
    i-th ending at e_i and starting in [e_(i-2), e_(i-1)), from e_(-1) = 0
    and e_0 = 1, with t[e_(i-2):e_i - 1] irreducible (level 1: no lhs lies
    inside another; above: `extend_chains`).  So e_i = f(e_(i-2)), where
    f(a), the least end of an lhs occurrence in t starting at or after a,
    is monotone in a.  A level-n chain t' = t[q:], q >= 1, has its ends
    e'_i = f(e'_(i-2)) in t from e'_(-1) = q >= e_0, so by induction
    e'_(2j+1) >= e_(2j+2).  For n even, e'_(n-1) >= e_n = e'_n, yet ends
    strictly increase.  For n odd, t' has its last piece start at or after
    e'_(n-2) >= e_(n-1), past the start of t's, and both end at |t|: one
    lhs would be a proper suffix of another (at n = 1, t' itself).
    """

    def __init__(
        self,
        prefix: ResolutionPrefix,
        chains: dict[int, list[Word]],
        diff: dict[int, dict[Word, dict[tuple[Word, Word], int]]],
    ):
        self.prefix = prefix
        self.system = prefix.system
        self.field = prefix.field
        self.alphabet = prefix.alphabet
        self.chains = {lvl: list(ts) for lvl, ts in chains.items()}
        self.diff = diff
        self.top = max(chains)
        self._irr: dict[int, list[Word]] = {}  # by degree
        self._bases: dict[tuple[int, int], tuple[tuple[Word, Word], ...]] = {}
        self._counts: dict[int, int] = {}  # irreducible words per degree
        self._counts_bound = -1  # every degree up to this one is counted
        self._by_degree: dict[int, dict[int, list[Word]]] = {}  # level -> degree -> chains
        # (level, d) -> the records of the independent columns, levels >= 0 (see _kept_records)
        self._records: dict[tuple[int, int], list[tuple]] = {}

    @classmethod
    def from_prefix(cls, prefix: ResolutionPrefix) -> "GradedComplex":
        """The complex of the prefix's chains, sharing its level tables."""
        return cls(prefix, prefix.chains, prefix.diff)

    # ----- graded bases ----------------------------------------------
    def _irreducible(self, d: int) -> list[Word]:
        """The irreducible words of degree d in tuple order (deglex within
        one degree), built once."""
        if d not in self._irr:
            degree = self.alphabet.degree
            self._irr[d] = [m for m in self.system.irreducible_words(d) if degree(m) == d]
        return self._irr[d]

    def basis(self, level: int, d: int) -> tuple[tuple[Word, Word], ...]:
        """Degree-d basis elements m.t at the level, in deglex order of the
        word mt, which no two share (see the class docstring): the order
        `format_terms` prints in, and the lift's and the greedy rank's;
        computed once."""
        key = (level, d)
        out = self._bases.get(key)
        if out is None:
            pairs = [
                (m, t)
                for dt, ts in self._chains_by_degree(level).items()
                if dt <= d
                for t in ts
                for m in self._irreducible(d - dt)
            ]
            # every mt has degree d, so deglex order is tuple order on mt
            pairs.sort(key=_word)
            out = self._bases[key] = tuple(pairs)
        return out

    def _count_irreducible(self, max_degree: int) -> None:
        """Count the irreducible words of every degree <= max_degree on the
        automaton of the left-hand sides, unless they are counted already."""
        if max_degree > self._counts_bound:
            self._counts = self.system.irreducible_counts_by_degree(max_degree)
            self._counts_bound = max_degree

    def _chains_by_degree(self, level: int) -> dict[int, list[Word]]:
        """Chain degree -> the chains of that degree at the level, in chain
        order; built once."""
        by_degree = self._by_degree.get(level)
        if by_degree is None:
            by_degree = self._by_degree[level] = {}
            for t in self.chains.get(level, []):
                by_degree.setdefault(self.alphabet.degree(t), []).append(t)
        return by_degree

    def column_count(self, level: int, d: int) -> int:
        """len(basis(level, d)) without listing it: the sum over the chains
        t of the number of irreducible words of degree d - deg t."""
        self._count_irreducible(d)
        counts, by_degree = self._counts, self._chains_by_degree(level)
        return sum(len(ts) * counts.get(d - dt, 0) for dt, ts in by_degree.items() if dt <= d)

    # ----- matrices ---------------------------------------------------
    def column_image(self, level: int, m: Word, t: Word) -> dict[tuple[Word, Word], int]:
        """The image m * d_level(.t) of the basis element m.t, as {(w, t'): c},
        built as a fresh dict by `prefix.act` on each call, the one product
        that is kept rather than summed (the empty m gives d_level(.t)
        itself, shared and never changed).  Nothing is cached here: the
        normal-form memo already holds nf(m' w) for the suffix m' of m = x m',
        so nf(x m' w) costs one rewriting step from it.
        """
        return self.prefix.act(m, self.diff[level][t])

    def differential_matrix(self, level: int, d: int) -> list[dict[int, int]]:
        """d_level in degree d as sparse rows (rows: level-1, cols: level).

        Row i is {j: c} over the nonzero entries c, in increasing column j;
        column j is `column_image` of the j-th basis element (level >= 0).
        """
        cols = self.basis(level, d)
        rows = self.basis(level - 1, d)
        row_index = {key: i for i, key in enumerate(rows)}
        mat: list[dict[int, int]] = [{} for _ in rows]
        for jcol, (m, t) in enumerate(cols):
            for key, c in self.column_image(level, m, t).items():
                mat[row_index[key]][jcol] = c
        return mat

    def _image_lead(self, level: int, m: Word, t: Word) -> tuple[dict, Optional[tuple]]:
        """The image of m.t, built, and its lead (w, t'), its largest basis
        element in basis order, or None for a zero image."""
        image = self.column_image(level, m, t)
        return image, (max(image, key=_word) if image else None)

    def independent_columns(self, level: int, d: int) -> tuple[tuple[Word, Word], ...]:
        """The basis elements m.t of degree d (level >= 0) whose columns one
        greedy elimination keeps as independent, in basis order; they span
        the image of d_level in degree d (see `_kept_records`)."""
        return tuple((m, t) for m, t, *_ in self._kept_records(level, d))

    def _kept_records(self, level: int, d: int) -> list[tuple]:
        """The independent columns m.t of degree d as records (m, t, s, m1,
        t1, s1), in basis order, computed once per (level, d): m1.t1 is the
        lead of the image (see `_image_lead`), and s and s1 are the states
        of m and m1 in the system's prepend automaton.

        The candidates are the generators .t of degree d and the columns
        x m'.t for each m'.t kept in degree d - deg x with x m' irreducible.
        Taken letter by letter in index order, each letter over the kept
        columns in their basis order, the x m'.t come out in basis order
        (x is the first letter of x m't); the few generators are inserted
        by bisection.  Each carries the lead of its image.  A generator's is
        read off d(.t).  For x m'.t with m'.t recorded as above, one step
        of the automaton from s tells whether x m' is irreducible, and one
        from s1 whether x m1 is: then the lead of x m'.t is (x m1).t1 and
        no image is built; otherwise the image is built, its maximum
        taken, and the state of that lead word read off the automaton.

        In basis order, a candidate whose lead no pivot has yet is kept at
        once: a carried lead with its own record as the pivot's placeholder,
        an uncarried one with the image just built as the pivot row.  On a
        collision its image is built and reduced against the pivots, each
        placeholder's image built on its first use, until it leads with a
        new key (kept, the reduced row its pivot) or vanishes (dropped).  No
        image is cached, and none is built twice: a candidate's image is
        built at most once, here or as its placeholder's row.  Any
        combination of rows with distinct leads leads with one of their
        leads, so a candidate is kept exactly when it is independent of the
        columns kept before it: the kept columns are those of an
        elimination that builds every image.  The module docstring shows
        why they span the image.
        """
        key = (level, d)
        kept = self._records.get(key)
        if kept is not None:
            return kept
        step = self.system.prepend_automaton()
        candidates = []
        for x, dx in enumerate(g.degree for g in self.alphabet):
            if dx > d:
                continue
            for m, t, s, m1, t1, s1 in self._kept_records(level, d - dx):
                if (s := step[s][x]) is not None:  # x m' is irreducible
                    # None where x m1 reduces: the lead does not carry
                    xm1 = None if (s1 := step[s1][x]) is None else (x,) + m1
                    candidates.append(((x,) + m, t, s, xm1, t1, s1))
        for t in self._chains_by_degree(level).get(d, ()):
            bisect.insort(candidates, ((), t, 0, None, None, None), key=_word)

        def build(record):  # a pivot not yet built is its candidate's record
            return self.column_image(level, record[0], record[1])

        echelon = _Echelon(self.field.p, _word, build)
        pivots = echelon.pivots
        kept = []
        for record in candidates:
            m, t, s, m1, t1, s1 = record
            if m1 is not None:  # the lead carried: the record stands for the image
                if pivots.setdefault((m1, t1), record) is record:
                    kept.append(record)
                    continue
                image = self.column_image(level, m, t)
            else:
                image, lead = self._image_lead(level, m, t)
                if lead is None:
                    continue
                m1, t1 = lead
                record = (m, t, s, m1, t1, self.system.prepend_state(m1))
                if (m1, t1) not in pivots:
                    pivots[(m1, t1)] = image
                    kept.append(record)
                    continue
            if echelon.insert(dict(image)):
                kept.append(record)
        self._records[key] = kept
        return kept

    def _rank(self, level: int, d: int) -> int:
        """The rank of d_level in degree d: the augmentation's at level -1,
        which maps e.e to 1 and has no other basis element in degree 0, the
        independent columns above."""
        if level > self.top:
            return 0
        if level == -1:
            return int(d == 0)
        return len(self._kept_records(level, d))

    def exactness_defect(self, level: int, d: int) -> int:
        """dim ker(d_level in degree d) minus rank(d_{level+1} in degree d)."""
        return self.column_count(level, d) - self._rank(level, d) - self._rank(level + 1, d)

    def verify_exactness(self, levels: Iterable[int], max_degree: int) -> dict:
        self._count_irreducible(max_degree)
        defects = {}
        for level in levels:
            # a degree with no column m.t at the level has defect 0 there
            by_degree = self._chains_by_degree(level)
            for d in sorted({dt + e for dt in by_degree for e in self._counts}):
                if d > max_degree:
                    break
                defect = self.exactness_defect(level, d)
                if defect:
                    defects[(level, d)] = defect
        return defects

    # ----- minimality -------------------------------------------------
    def radical_image_check(self, level: int) -> tuple[bool, list[Word]]:
        """No differential may hit a basis element with empty coefficient word."""
        offenders = [
            t
            for t in self.chains.get(level, [])
            if any(not m for m, _t2 in self.diff[level][t])
        ]
        return (not offenders, offenders)

    def betti_table(self, max_degree: int) -> dict[int, dict[int, int]]:
        """Homological level k counts the chains at chain level k-1 by degree."""
        by_degree = self._chains_by_degree
        return {
            hlevel: {d: len(ts) for d, ts in by_degree(hlevel - 1).items() if d <= max_degree}
            for hlevel in range(self.top + 2)
        }


def resolve(system: RewritingSystem, max_degree: int) -> GradedComplex:
    """The complex of `system`, interreduced and completed up to max_degree,
    on its chains of degree <= max_degree; see the module docstring."""
    system = system.interreduce()
    if not system.is_complete(max_degree)[0]:
        system = system.complete(max_degree).interreduce()
    prefix = ResolutionPrefix(system, max_degree)
    rule = prefix.inhomogeneous_rule
    if rule is not None:
        raise ValueError(
            f"graded Betti numbers need homogeneous relations: "
            f"the tail of rule {rule} leaves degree {system.alphabet.degree(rule.lhs)}"
        )
    return GradedComplex.from_prefix(prefix)


# ---------------------------------------------------------------------
# minimalization
# ---------------------------------------------------------------------

def _is_braid(alphabet: Alphabet, t: Word) -> bool:
    """Words b_k a_k b_k a_k of the p=2, n=3 system."""
    if len(t) != 4:
        return False
    names = [alphabet[i].name for i in t]
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
    dropped from level 1 and their partners from level 2.  The level 0 and
    1 tables are the input's; a level-2 differential is substituted on its
    first read.
    """
    prefix = complex_.prefix
    alphabet = complex_.system.alphabet
    e = alphabet.empty_word
    braids = [t for t in complex_.chains[1] if _is_braid(alphabet, t)]
    if not braids:
        raise ValueError("minimalize expects the braid chains of the p=2, n=3 system")
    partner = {}
    replacement = {}
    for braid in braids:
        k = int(alphabet[braid[0]].name[1:])
        try:
            b_next = alphabet.word(f"b{k + 1}")
        except KeyError:
            # at the truncation edge the cancelling partner falls outside the
            # alphabet; the braid chain must stay
            continue
        a_k = braid[1]
        t2 = b_next + (a_k, a_k)
        d2 = complex_.diff[2][t2]
        if d2.get((e, braid)) != 1:
            raise ValueError(
                f"differential of .{alphabet.format(t2)} does not reach "
                f".{alphabet.format(braid)} with a unit"
            )
        partner[braid] = t2
        replacement[braid] = {key: c for key, c in d2.items() if key != (e, braid)}

    removed_t1 = set(partner)
    removed_t2 = set(partner.values())
    new_chains = {
        -1: list(complex_.chains[-1]),
        0: list(complex_.chains[0]),
        1: [t for t in complex_.chains[1] if t not in removed_t1],
        2: [t for t in complex_.chains[2] if t not in removed_t2],
    }

    def substitute(terms: dict) -> dict:
        acc: dict[tuple[Word, Word], int] = {}
        for (m, t), c in terms.items():
            if t in removed_t1:
                prefix.act_into(acc, c, m, replacement[t])
            else:
                accumulate(acc, c, {(m, t): 1}, complex_.field.p)
        return acc

    new_diff = {
        0: complex_.diff[0],
        1: complex_.diff[1],
        2: _OnDemand(set(new_chains[2]), lambda t: substitute(complex_.diff[2][t])),
    }
    return GradedComplex(prefix, new_chains, new_diff)


def generic_minimalize(complex_: GradedComplex) -> GradedComplex:
    """Minimalize without system-specific knowledge: cancel every unit
    constant entry e.t' of a differential d_n(.t), removing the pair (t at
    level n, t' at level n-1) by one Gaussian elimination step.

    One pass, levels ascending and chains in order, with the same result as
    restarting the scan after each cancellation.  A cancellation changes
    only the differentials with a term m.t', and each such m is nonempty (an
    e.t' term would have been cancelled first); in an augmented system, as
    `ResolutionPrefix` enforces, m times anything has no empty coefficient
    word.  So no chain already passed gains a unit constant entry, and a
    level-n cancellation never touches level n-1.
    """
    prefix, field, alphabet = complex_.prefix, complex_.field, complex_.alphabet
    chains = {lvl: dict.fromkeys(ts) for lvl, ts in complex_.chains.items()}
    tables: dict[int, dict[Word, dict[tuple[Word, Word], int]]] = {}
    for level in sorted(complex_.diff):
        below = chains[level - 1]  # without the generators cancelled one level down
        table = tables[level] = {
            s: {k: c for k, c in complex_.diff[level][s].items() if k[1] in below}
            for s in chains[level]
        }
        # t' -> the generators s whose d(.s) may hold a term m.t' (stale entries allowed)
        carriers: dict[Word, dict[Word, None]] = {}
        for s, d_s in table.items():
            for _m, t2 in d_s:
                carriers.setdefault(t2, {})[s] = None
        for t in complex_.chains[level]:
            pivot = next(((t2, c) for (m, t2), c in table[t].items() if not m), None)
            if pivot is None:
                continue
            t2, inv = pivot[0], field.inv(pivot[1])
            d_t = table.pop(t)
            del chains[level][t], below[t2]
            for s in filter(table.__contains__, carriers.pop(t2)):
                d_s = table[s]
                for m, cc in [(m, cc) for (m, tt), cc in d_s.items() if tt == t2]:
                    prefix.act_into(d_s, -cc * inv, m, d_t)
                if any(tt == t2 for (_m, tt) in d_s):
                    ft, ft2, fs = alphabet.format(t), alphabet.format(t2), alphabet.format(s)
                    raise ValueError(
                        f"cancelling .{ft} against .{ft2} left .{ft2} in d_{level}(.{fs}): "
                        f"the pivot of d_{level}(.{ft}) is not a bare scalar"
                    )
                for _m, tt in d_t:
                    carriers.setdefault(tt, {})[s] = None
    diff = {lvl: {s: table[s] for s in chains[lvl]} for lvl, table in tables.items()}
    return GradedComplex(prefix, {lvl: list(ts) for lvl, ts in chains.items()}, diff)
