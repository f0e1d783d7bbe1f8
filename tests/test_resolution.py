import functools
from collections import Counter
from unittest.mock import patch

import pytest

from anickres import checks, resolution
from anickres.anick import ResolutionPrefix, format_terms
from anickres.checks import bar_betti_table, expected_betti_table
from anickres.fields import PrimeField
from anickres.kostant import big_system, conjectural_system, small_system
from anickres.rewriting import RewritingSystem
from anickres.words import Alphabet
from anickres.resolution import (
    GradedComplex,
    generic_minimalize,
    minimalize,
    rank_fp,
    rank_fp_oracle,
    resolve,
)


@pytest.fixture(scope="module")
def gc2():
    return GradedComplex.from_prefix(ResolutionPrefix(small_system(2)))


def test_rank_basic():
    assert rank_fp([], 2) == 0
    assert rank_fp([[0, 0], [0, 0]], 2) == 0
    assert rank_fp([[1, 0], [0, 1]], 2) == 2
    assert rank_fp([[1, 1], [1, 1]], 2) == 1
    # mod 3 the second row is a multiple of the first
    assert rank_fp([[1, 2], [2, 4]], 3) == 1
    assert rank_fp([[1, 2], [2, 4]], 5) == 1


def test_rank_oracle_agrees():
    import random

    rng = random.Random(11)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        assert rank_fp(mat, p) == rank_fp_oracle(mat, p)


def test_basis_counts(gc2):
    # degree-1 level-0 basis: e.a0, e.b0; level -1: a0.e, b0.e
    assert len(gc2.basis(0, 1)) == 2
    assert len(gc2.basis(-1, 1)) == 2
    # independent enumeration: irreducible count times chain filter
    degree = gc2.alphabet.degree
    count = sum(
        1
        for t in gc2.chains[1]
        for m in gc2.system.irreducible_words(max_degree=6)
        if degree(m + t) == 6
    )
    assert len(gc2.basis(1, 6)) == count


def test_differential_matrix_level0_degree1(gc2):
    # 2 x 2, sparse rows: d_0(e.a0) = a0.e and d_0(e.b0) = b0.e
    mat = gc2.differential_matrix(0, 1)
    assert len(mat) == 2 and len(gc2.basis(0, 1)) == 2
    assert mat == [{0: 1}, {1: 1}]
    assert rank_fp(mat, 2) == 2


def test_exactness_unmodified(gc2):
    assert gc2.verify_exactness([-1, 0, 1], 10) == {}


def test_exactness_records_the_defects_of_a_missing_chain():
    # dropping the level-2 chain a0 a0 a0 (degree 3) from the chain list
    # only, its differential table shared, leaves the boundaries it
    # generated at level 1 unhit: one defect in each degree 3, 4 and 5
    prefix = ResolutionPrefix(small_system(2))
    intact = GradedComplex.from_prefix(prefix)
    a0 = prefix.alphabet.word("a0")
    chains = dict(prefix.chains)
    chains[2] = [t for t in chains[2] if t != a0 * 3]
    assert len(chains[2]) == len(prefix.chains[2]) - 1
    cut = GradedComplex(prefix, chains, prefix.diff)
    assert cut.verify_exactness([-1, 0, 1], 8) == {(1, 3): 1, (1, 4): 1, (1, 5): 1}
    assert intact.verify_exactness([-1, 0, 1], 8) == {}


def test_exactness_eliminates_each_degree_once(monkeypatch):
    # one greedy elimination per (level, d) at levels >= 0, the augmentation's
    # rank read off its degree, and no matrix built
    gc = GradedComplex.from_prefix(ResolutionPrefix(small_system(2)))
    builds, echelons = [], []
    matrix = GradedComplex.differential_matrix

    def counted_matrix(self, level, d):
        builds.append((level, d))
        return matrix(self, level, d)

    def counted(kernel):
        def make(*args):
            echelons.append(kernel)
            return kernel(*args)

        return make

    monkeypatch.setattr(GradedComplex, "differential_matrix", counted_matrix)
    monkeypatch.setattr(resolution, "_Echelon", counted(resolution._Echelon))
    assert gc.verify_exactness([-1, 0, 1], 8) == {}
    assert builds == []
    # levels -1, 0, 1 each need their own rank and the one above, up to the top
    eliminations = {(level, d) for level in (0, 1, 2) for d in range(9)}
    assert set(gc._records) == eliminations
    assert len(echelons) == len(eliminations)


def test_echelon_builds_each_reached_placeholder_once():
    # a pivot may be a placeholder under its known lead: `build` turns it
    # into its row on the first reduction that reaches it, once, and never
    # for one that no reduction reaches; the rank is rank_fp's, and the
    # built rows are read, never changed
    rows = {"a": {2: 1, 0: 1}, "b": {1: 1}, "c": {3: 1}}
    inserted = [{2: 1, 1: 1}, {2: 2, 0: 2}, {1: 1, 0: 1}]
    built = []

    def build(name):
        built.append(name)
        return rows[name]

    echelon = resolution._Echelon(3, None, build)
    for name, row in rows.items():
        echelon.pivots[max(row)] = name
    kept = [echelon.insert(dict(row)) for row in inserted]
    assert kept == [True, False, False]
    assert built == ["a", "b"]
    assert echelon.pivots[3] == "c"
    assert rows == {"a": {2: 1, 0: 1}, "b": {1: 1}, "c": {3: 1}}
    assert len(echelon.pivots) == rank_fp([*rows.values(), *inserted], 3) == 4


def test_exactness_lists_no_basis(monkeypatch):
    # the greedy ranks build their candidate columns from the kept columns
    # one letter down, and count columns on the lhs automaton; no basis is
    # listed, and every column image built, kept or dropped, is that of a
    # basis element
    gc = GradedComplex.from_prefix(ResolutionPrefix(small_system(2)))
    levels, images = [], []
    basis, column_image = GradedComplex.basis, GradedComplex.column_image

    def counted_basis(self, level, d):
        levels.append(level)
        return basis(self, level, d)

    def counted_image(self, level, m, t):
        images.append(m)
        return column_image(self, level, m, t)

    monkeypatch.setattr(GradedComplex, "basis", counted_basis)
    monkeypatch.setattr(GradedComplex, "column_image", counted_image)
    assert gc.verify_exactness([-1, 0, 1], 8) == {}
    assert levels == []
    assert images and all(gc.system.is_irreducible_word(m) for m in images)


def test_exactness_visits_only_the_degrees_that_hold_a_column(monkeypatch):
    # a degree with no column at a level has defect 0 there, so the check of
    # a finite algebra to a huge bound visits only its few degrees with
    # columns; each call past the cap fails at once instead of running on
    gc = resolve(small_system(0), 10**9)
    calls = []
    defect = GradedComplex.exactness_defect

    def capped(self, level, d):
        calls.append((level, d))
        assert len(calls) <= 100, "exactness visits degrees that hold no column"
        return defect(self, level, d)

    monkeypatch.setattr(GradedComplex, "exactness_defect", capped)
    assert gc.verify_exactness([-1, 0, 1], 10**9) == {}
    with_columns = [(lvl, d) for lvl in (-1, 0, 1) for d in range(101) if gc.column_count(lvl, d)]
    assert calls == with_columns


def _small(l):
    return GradedComplex.from_prefix(ResolutionPrefix(small_system(l)))


def _big():
    return GradedComplex.from_prefix(ResolutionPrefix(big_system(3, 3, 2).interreduce()))


@pytest.mark.parametrize(
    "build, D",
    [
        (lambda: minimalize(_small(4)), 18),
        (lambda: generic_minimalize(resolve(big_system(4, 3, 2), 12)), 12),
    ],
    ids=["small l=4 minimal", "big(4,3,2) minimal"],
)
def test_exactness_builds_each_column_image_at_most_once(monkeypatch, build, D):
    # the greedy ranks cache no image: a dropped column is never extended,
    # and a kept one's image is built at most once, when its lead does not
    # carry, on a collision, or when a reduction first reaches its pivot
    gc = build()
    images = Counter()
    column_image = GradedComplex.column_image

    def counted_image(self, level, m, t):
        images[(level, m, t)] += 1
        return column_image(self, level, m, t)

    monkeypatch.setattr(GradedComplex, "column_image", counted_image)
    assert gc.verify_exactness([-1, 0, 1], D) == {}
    assert images and max(images.values()) == 1


def _dense_by_act(gc, level, d):
    """d_level in degree d as a dense matrix whose column m.t is
    m * d_level(.t), reduced from scratch by act."""
    row_index = {key: i for i, key in enumerate(gc.basis(level - 1, d))}
    cols = gc.basis(level, d)
    dense = [[0] * len(cols) for _ in row_index]
    for j, (m, t) in enumerate(cols):
        for key, c in gc.prefix.act(m, gc.diff[level][t]).items():
            dense[row_index[key]][j] = c
    return dense


@pytest.fixture(
    scope="module",
    params=[
        lambda: _small(2),
        lambda: minimalize(_small(2)),
        lambda: _small(3),
        lambda: minimalize(_small(3)),
        _big,
        lambda: generic_minimalize(_big()),
    ],
    ids=["small l=2", "small l=2 minimal", "small l=3", "small l=3 minimal", "big", "big minimal"],
)
def built(request):
    return request.param()


def test_matrix_columns_equal_the_direct_image(built):
    # column m.t of the sparse matrix of d_level is m * d_level(.t), reduced
    # from scratch by act
    gc = built
    p = gc.field.p
    fmt = gc.alphabet.format
    checked = 0
    for level in range(gc.top + 1):
        for d in range(9):
            mat = gc.differential_matrix(level, d)
            dense = _dense_by_act(gc, level, d)
            assert len(mat) == len(dense)
            for row in mat:
                assert list(row) == sorted(row)
                assert all(0 < c < p for c in row.values())
            for j, (m, t) in enumerate(gc.basis(level, d)):
                column = [row.get(j, 0) for row in mat]
                assert column == [row[j] for row in dense], (level, fmt(m), fmt(t))
                checked += 1
    assert checked > 100


def _walk_the_basis(gc, level, d, kept):
    """Reference greedy rank: walk all of basis(level, d) in its order; a
    column m.t is a candidate when m is empty or m[1:].t was kept one letter
    down, and is kept when its image, m * d(.t) reduced from scratch by act,
    is independent of the columns kept before it (dense elimination over
    basis(level - 1, d)).  `kept` memoizes the answers by (level, d)."""
    if (level, d) not in kept:
        p = gc.field.p
        row_index = {key: i for i, key in enumerate(gc.basis(level - 1, d))}
        pivots = {}  # leading row -> column with leading entry 1
        below = {}  # letter degree -> the columns kept one letter down
        found = []
        for m, t in gc.basis(level, d):
            if m:
                dx = gc.alphabet.degree(m[:1])
                if dx not in below:
                    below[dx] = set(_walk_the_basis(gc, level, d - dx, kept))
                if (m[1:], t) not in below[dx]:
                    continue
            col = [0] * len(row_index)
            for key, c in gc.prefix.act(m, gc.diff[level][t]).items():
                col[row_index[key]] = c
            for i in range(len(col)):
                if col[i] and i in pivots:
                    c = col[i]
                    col = [(x - c * y) % p for x, y in zip(col, pivots[i])]
            lead = next((i for i, x in enumerate(col) if x), None)
            if lead is not None:
                inv = pow(col[lead], p - 2, p)
                pivots[lead] = [x * inv % p for x in col]
                found.append((m, t))
        kept[(level, d)] = found
    return kept[(level, d)]


def test_candidate_columns_match_the_full_basis_walk(built):
    # the kept columns, in basis order, equal those of the greedy walk over
    # the whole basis; the column counts read off the lhs automaton equal
    # the basis sizes, at every level
    gc = built
    kept = {}
    for level in range(-1, gc.top + 2):
        for d in range(9):
            assert gc.column_count(level, d) == len(gc.basis(level, d)), (level, d)
            if 0 <= level <= gc.top:
                walked = _walk_the_basis(gc, level, d, kept)
                assert list(gc.independent_columns(level, d)) == walked, (level, d)


def test_greedy_takes_both_slow_paths(monkeypatch):
    # on the minimalized big(3,3,2) complex some candidate x m'.t has a lead
    # that does not carry (x m1 reduces, so its image is built) and some
    # candidate's lead collides with a pivot's (so its image is reduced);
    # the kept columns still equal those of the greedy walk over the basis
    gc = generic_minimalize(_big())
    uncarried, collisions = [], []
    image_lead, insert = GradedComplex._image_lead, resolution._Echelon.insert

    def counted_lead(self, level, m, t):
        if m:  # a generator's lead is read off d(.t)
            uncarried.append((level, m, t))
        return image_lead(self, level, m, t)

    def counted_insert(self, row):
        collisions.append(len(row))
        return insert(self, row)

    monkeypatch.setattr(GradedComplex, "_image_lead", counted_lead)
    monkeypatch.setattr(resolution._Echelon, "insert", counted_insert)
    kept = {}
    for level in range(gc.top + 1):
        for d in range(9):
            walked = _walk_the_basis(gc, level, d, kept)
            assert list(gc.independent_columns(level, d)) == walked, (level, d)
    assert uncarried and collisions


def test_generators_merge_into_the_candidates_in_basis_order(monkeypatch):
    # the candidates x m'.t come out in basis order, letter by letter, and
    # each generator ((), t) of the degree is inserted by bisection; on
    # small l=2 some generator sorts strictly between two candidates with
    # the same first letter, and the kept columns still equal those of the
    # greedy walk over the basis
    gc = _small(2)
    inside = []
    insort = resolution.bisect.insort

    def counted_insort(candidates, generator, key):
        insort(candidates, generator, key=key)
        i = next(i for i, c in enumerate(candidates) if c is generator)
        if 0 < i < len(candidates) - 1 and candidates[i - 1][0][:1] == candidates[i + 1][0][:1] != ():
            inside.append(generator[1])

    monkeypatch.setattr(resolution.bisect, "insort", counted_insort)
    kept = {}
    for level in range(gc.top + 1):
        for d in range(9):
            walked = _walk_the_basis(gc, level, d, kept)
            assert list(gc.independent_columns(level, d)) == walked, (level, d)
    assert inside


def test_sparse_ranks_equal_the_dense_oracle(built):
    # every rank the exactness check uses, against the transpose oracle on
    # the dense matrix built by act
    gc = built
    nonzero = 0
    for level in range(gc.top + 1):
        for d in range(9):
            rank = rank_fp_oracle(_dense_by_act(gc, level, d), gc.field.p)
            assert gc._rank(level, d) == rank, (level, d)
            nonzero += rank > 0
    assert gc._rank(gc.top + 1, 8) == 0
    assert nonzero > 10


def test_radical_before_after(gc2):
    assert gc2.radical_image_check(0)[0]
    assert gc2.radical_image_check(1)[0]
    ok, offenders = gc2.radical_image_check(2)
    assert not ok
    assert {gc2.alphabet.format(t) for t in offenders} == {
        "a1 b0 b0",
        "b1 a0 a0",
        "a2 b1 b1",
        "b2 a1 a1",
    }
    mn = minimalize(gc2)
    assert all(mn.radical_image_check(l)[0] for l in (0, 1, 2))


def test_minimalize_removes_pairs(gc2):
    mn = minimalize(gc2)
    t1 = {mn.alphabet.format(t) for t in mn.chains[1]}
    t2 = {mn.alphabet.format(t) for t in mn.chains[2]}
    assert "b0 a0 b0 a0" not in t1
    assert "b1 a1 b1 a1" not in t1
    assert "b1 a0 a0" not in t2
    assert "b2 a1 a1" not in t2
    # the index-2 braid has no cancelling partner inside the truncation
    assert "b2 a2 b2 a2" in t1


def test_minimalized_d2_value(gc2):
    mn = minimalize(gc2)
    A = gc2.system.alphabet
    val = mn.diff[2][A.word("a1", "b0", "b0")]
    assert format_terms(A, val) == "b1 . a0 a0 + a1 . b0 b0 + b0 . a1 b0 + a0 . b1 a0"


def test_minimalize_keeps_exactness(gc2):
    assert minimalize(gc2).verify_exactness([-1, 0, 1], 10) == {}


def test_generic_agrees_with_explicit(gc2):
    mn = minimalize(gc2)
    gm = generic_minimalize(gc2)
    assert mn.betti_table(10) == gm.betti_table(10)
    assert all(gm.radical_image_check(l)[0] for l in (0, 1, 2))


def test_betti_table_K3():
    gc = GradedComplex.from_prefix(ResolutionPrefix(small_system(3)))
    table = minimalize(gc).betti_table(16)
    expected = expected_betti_table(16, 3)
    for level in (0, 1, 2):
        assert table[level] == expected[level]


def test_betti_truncation_stability():
    # counts for d <= 2^K agree between K = 2 and K = 3
    tables = {}
    for K in (2, 3):
        gc = GradedComplex.from_prefix(ResolutionPrefix(small_system(K)))
        tables[K] = minimalize(gc).betti_table(4)
    for level in (0, 1, 2):
        assert tables[2][level] == tables[3][level]


@pytest.mark.parametrize("build", [lambda: _small(2), _big], ids=["small l=2", "big(3,3,2)"])
def test_shared_differentials_are_never_changed(build):
    # the prefix's tabulated d(.t) and the complexes' diff entries are the
    # same dicts, and normal_form_word and act by an empty word hand out
    # the dicts they read; no step of the pipeline may change one in place,
    # so every table still equals that of a fresh prefix tabulated in the
    # opposite order
    gc = build()
    prefix = gc.prefix
    system = prefix.system

    def snapshot():
        return {(lvl, t): list(prefix.diff[lvl][t].items()) for lvl, t in prefix.generators()}

    before = snapshot()
    read = {w: list(nf.items()) for w, nf in system._nf.items()}  # what tabulating read
    assert read
    assert all(gc.diff[lvl][t] is prefix.diff[lvl][t] for lvl, t in prefix.generators())
    assert prefix.verify_complex()[0]
    assert gc.verify_exactness([-1, 0, 1], 8) == {}
    minimal = [generic_minimalize(gc)]
    if gc.field.p == 2:
        minimal.append(minimalize(gc))
    for mn in minimal:
        assert mn.verify_exactness([-1, 0, 1], 8) == {}
    assert snapshot() == before
    assert {w: list(system._nf[w].items()) for w in read} == read
    fresh = system.with_rules(system.rules)
    assert all(nf == fresh.normal_form_word(w) for w, nf in system._nf.items())
    again = ResolutionPrefix(fresh)
    for lvl, t in reversed(prefix.generators()):
        assert prefix.diff[lvl][t] == again.diff[lvl][t]


def test_betti_small_reads_no_differential_above_D():
    # the benchmark's betti-small path: the prefix's on-demand tables, which
    # the complex shares, tabulate the level-2 chains of degree <= 18 and the
    # braid partner b4 a3 a3 that minimalize checks eagerly, and nothing else
    # at level 2
    prefix = ResolutionPrefix(small_system(4))
    gc = GradedComplex.from_prefix(prefix)
    assert gc.diff is prefix.diff
    mn = minimalize(gc)
    table, defects = mn.betti_table(18), mn.verify_exactness([-1, 0, 1], 18)
    alphabet = prefix.alphabet
    partner = alphabet.word("b4", "a3", "a3")
    read = list(prefix.diff[2])
    assert all(alphabet.degree(t) <= 18 or t == partner for t in read)
    assert partner in read and len(read) < len(prefix.chains[2])
    # the same answers from a complex whose every differential was tabulated up front
    eager = ResolutionPrefix(small_system(4))
    diff = {
        lvl: {t: eager.diff[lvl][t] for t in ts} for lvl, ts in eager.chains.items() if lvl >= 0
    }
    eager_mn = minimalize(GradedComplex(eager, eager.chains, diff))
    assert eager_mn.betti_table(18) == table
    assert eager_mn.verify_exactness([-1, 0, 1], 18) == defects == {}


def test_on_demand_table_refuses_a_word_outside_its_chains(gc2):
    # reading a non-chain raises KeyError, as a full table would, and
    # tabulates nothing in the prefix
    word = gc2.alphabet.word("a0", "a0", "a0")
    with pytest.raises(KeyError):
        gc2.diff[1][word]
    assert word not in gc2.prefix.diff[1]
    with pytest.raises(KeyError):
        gc2.diff[0][gc2.alphabet.empty_word]


@functools.cache
def _minimalized(name):
    """A system's complex and its generic minimalization, built once."""
    systems = {
        "small l=2": lambda: small_system(2),
        "small l=3": lambda: small_system(3),
        "small l=4": lambda: small_system(4),
        "big(3,3,2)": lambda: big_system(3, 3, 2).interreduce(),
        "big(3,2,7)": lambda: big_system(3, 2, 7).interreduce(),
    }
    gc = GradedComplex.from_prefix(ResolutionPrefix(systems[name]()))
    return gc, generic_minimalize(gc)


@pytest.mark.parametrize(
    "name, D",
    [
        ("small l=2", 5),
        ("small l=2", 9),
        ("small l=3", 8),
        ("small l=3", 13),
        ("small l=4", 10),
        ("small l=4", 18),
        ("big(3,3,2)", 5),
        ("big(3,3,2)", 9),
        ("big(3,2,7)", 6),
        ("big(3,2,7)", 11),
    ],
)
def test_minimalizing_the_truncation_truncates_the_minimal_complex(name, D):
    # the complex of the prefix bounded at D minimalizes to the minimal
    # complex's chains of degree <= D, with the same differentials
    gc, full = _minimalized(name)
    degree = gc.alphabet.degree
    bounded = GradedComplex.from_prefix(ResolutionPrefix(gc.system, D))
    assert sum(map(len, bounded.chains.values())) < sum(map(len, gc.chains.values()))
    mn = generic_minimalize(bounded)
    for level, ts in full.chains.items():
        assert mn.chains[level] == [t for t in ts if degree(t) <= D]
        assert all(mn.diff[level][t] == full.diff[level][t] for t in mn.chains[level] if level >= 0)
    assert mn.betti_table(D) == full.betti_table(D)
    assert mn.verify_exactness([-1, 0, 1], D) == full.verify_exactness([-1, 0, 1], D)


def test_generic_minimalize_rejects_a_non_scalar_pivot():
    # no rules: d_1(.t) = e.a + a.a has the unit pivot e.a, but cancelling it
    # out of d_1(.s) = a.a leaves a a.a term, which a bare scalar cannot clear
    alphabet = Alphabet.from_names([("a", 1)])
    field = PrimeField(2)
    prefix = ResolutionPrefix(RewritingSystem(alphabet, field, []))
    e, a = alphabet.empty_word, alphabet.word("a")
    t, s = alphabet.word("a", "a"), alphabet.word("a", "a", "a")
    chains = {-1: [e], 0: [a], 1: [t, s]}
    diff = {
        0: {a: prefix.diff[0][a]},
        1: {
            t: {(e, a): 1, (a, a): 1},
            s: {(a, a): 1},
        },
    }
    with pytest.raises(ValueError, match=r"d_1\(\.a a a\)"):
        generic_minimalize(GradedComplex(prefix, chains, diff))


def test_resolve_completes_only_a_system_that_is_not_complete(monkeypatch):
    # odd_p_n3 (index 1) is not complete up to 12: resolve completes it (12
    # -> 25 rules) to a reduced system complete up to 12; a complete builtin
    # is only checked, never completed
    conj = conjectural_system("odd_p_n3", 3, 3, 1)
    gc = resolve(conj, 12)
    assert len(conj.rules) == 12 and len(gc.system.rules) == 25
    assert gc.system.is_reduced() and gc.system.is_complete(12)[0]

    def refuse(*_args, **_kwargs):
        raise AssertionError("a complete system was completed")

    monkeypatch.setattr(RewritingSystem, "complete", refuse)
    for system, D in ((small_system(2), 8), (big_system(3, 3, 2), 7)):
        assert resolve(system, D).chains == ResolutionPrefix(system.interreduce(), D).chains


@pytest.mark.parametrize(
    "build, D",
    [
        (lambda: small_system(2), 8),
        (lambda: small_system(3), 8),
        (lambda: big_system(3, 3, 2), 7),
        (lambda: conjectural_system("odd_p_n3", 3, 3, 1), 7),
    ],
    ids=["small l=2", "small l=3", "big(3,3,2)", "odd_p_n3 index 1"],
)
def test_bar_construction_gives_the_betti_rows(build, D):
    # Tor from the reduced bar construction shares nothing with the chains,
    # the lift or the greedy ranks; rows 0-2 of betti's table (resolve, then
    # generic_minimalize) must equal it, the top row being only a bound.
    # odd_p_n3 is not complete up to 7, so its table is that of the completion
    system = build()
    gc = resolve(system, D)
    table = generic_minimalize(gc).betti_table(D)
    assert {n: table[n] for n in (0, 1, 2)} == bar_betti_table(gc.system, D, 3)


def test_bar_construction_caps_its_cells():
    with patch.object(checks, "_BAR_CELL_CAP", 100):
        with pytest.raises(ValueError, match="^bar construction exceeded its cap of 100 cells up to degree 8$"):
            bar_betti_table(small_system(2), 8, 3)
