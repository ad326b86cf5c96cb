from fractions import Fraction
import hashlib
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest

from compalg import matrices, rank
from compalg import rng as rng_module
from compalg.corpus import fixture_names, load_fixture
from compalg.errors import (
    AlgebraMismatchError,
    BoundNotMetError,
    FieldMismatchError,
    InfeasibleError,
    ShapeError,
)
from compalg.fields import QQ, PrimeField, QuadExt, Scalar
from compalg.matrices import (
    CompMatrix,
    is_invertible,
)
from compalg.quaternion import Mat2Algebra, QuatAlgebra
from compalg.rank import (
    comp_rank,
    dependence_bound,
    low_rank_combination,
    verify_span_bound,
)
from compalg.rng import SplitMix64
from compalg.serialize import matrix_from_json, matrix_to_json
from compalg.matrices import skew_column_rank
from conftest import combine, field_rank, gauss_jordan, sample_distinct_matrices

HQ = QuatAlgebra(QQ, -1, -1)
F3 = PrimeField(3)


def fixture_matrix(name):
    return matrix_from_json(load_fixture(name)["matrix"])


def brute_force_rank(Z):
    """The definition: the largest invertible square submatrix, every minor tried."""
    for size in range(min(Z.m, Z.n), 0, -1):
        for rows in combinations(range(Z.m), size):
            for cols in combinations(range(Z.n), size):
                if is_invertible(Z.submatrix(rows, cols)):
                    return size
    return 0


def _random_entry(algebra, rng):
    f = algebra.field
    if isinstance(f, PrimeField):
        return algebra.element([rng.randint(0, f.p - 1) for _ in range(4)])
    return algebra.element([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4)])


def _random_matrix(algebra, m, n, rng):
    """Seeded matrix mixing units, zero divisors, zeros and products of lower rank."""
    witness = algebra.split_witness()

    def entry():
        kind = rng.randint(0, 3)
        if kind == 0:
            return algebra.zero()
        if kind == 1 and witness is not None:
            return _random_entry(algebra, rng) * witness * _random_entry(algebra, rng)
        return _random_entry(algebra, rng)
    if rng.randint(0, 2) == 0:
        inner = rng.randint(1, min(m, n))
        A = CompMatrix(algebra, [[entry() for _ in range(inner)] for _ in range(m)])
        B = CompMatrix(algebra, [[entry() for _ in range(n)] for _ in range(inner)])
        return A * B
    return CompMatrix(algebra, [[entry() for _ in range(n)] for _ in range(m)])


RANK_ALGEBRAS = [
    ("(-1,-1)_QQ", QuatAlgebra(QQ, -1, -1), 40),
    ("(2,5)_QQ", QuatAlgebra(QQ, 2, 5), 40),
    ("(1,-1)_QQ", QuatAlgebra(QQ, 1, -1), 40),
    ("(2,-2)_QQ", QuatAlgebra(QQ, 2, -2), 25),
    ("Mat2(GF(3))", Mat2Algebra(PrimeField(3)), 40),
    ("Mat2(GF(7))", Mat2Algebra(PrimeField(7)), 40),
]


@pytest.mark.parametrize("name,algebra,count", RANK_ALGEBRAS, ids=[a[0] for a in RANK_ALGEBRAS])
def test_comp_rank_matches_brute_force(name, algebra, count):
    rng = SplitMix64(sum(map(ord, name)))
    ranks = set()
    for _ in range(count):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        Z = _random_matrix(algebra, m, n, rng)
        expected = brute_force_rank(Z)
        assert comp_rank(Z) == expected, (name, Z.entries)
        ranks.add(expected)
    assert len(ranks) >= 2  # the samples reach more than one rank


def test_comp_rank_below_strict_bound(lz):
    M2 = Mat2Algebra(QQ)
    e11, e22, zero = M2.element((1, 0, 0, 0)), M2.element((0, 0, 0, 1)), M2.zero()
    cases = [
        ([[e11, e22]], 0),  # flattened rank 2 and rank_k L(Z) = 4, yet no unit entry
        ([[e11, zero], [zero, e22]], 0),  # block-diagonal non-units
        ([[e11, e22], [e22, e11]], 2),  # non-unit entries, invertible as a whole
        ([[e11, zero, zero], [zero, M2.one(), zero], [zero, zero, e22]], 1),
    ]
    for entries, expected in cases:
        Z = CompMatrix(M2, entries)
        top = field_rank(lz.left_regular_rep(Z), QQ) // 4
        assert comp_rank(Z) == brute_force_rank(Z) == expected
        if expected < min(Z.m, Z.n):
            assert top > expected


def test_comp_rank_of_zero_matrix():
    for alg in (HQ, QuatAlgebra(QQ, 2, -2), Mat2Algebra(F3)):
        for m, n in ((1, 1), (2, 3), (3, 2)):
            assert comp_rank(CompMatrix.zero(alg, m, n)) == 0


def test_comp_rank_when_the_split_decision_is_infeasible():
    alg = QuatAlgebra(QQ, 1_000_003 * 1_000_033, 5)
    with pytest.raises(InfeasibleError):
        alg.is_split_decision()
    u, v, one = alg.u(), alg.v(), alg.one()
    for entries in ([[u, v]], [[one, u], [u, u * u]], [[u, v], [v, u]]):
        Z = CompMatrix(alg, entries)
        assert comp_rank(Z) == brute_force_rank(Z)


def test_left_regular_rep_is_left_multiplication(lz):
    rng = SplitMix64(31)
    for alg in (HQ, Mat2Algebra(PrimeField(5))):
        Z = CompMatrix(alg, [[_random_entry(alg, rng) for _ in range(3)] for _ in range(2)])
        X = [_random_entry(alg, rng) for _ in range(3)]
        L = lz.left_regular_rep(Z)
        assert len(L) == 8 and len(L[0]) == 12
        flat = [c for x in X for c in x.coeffs]
        image = [sum((a * b for a, b in zip(row, flat)), alg.field._coerce(0)) for row in L]
        expected = [
            c
            for i in range(2)
            for c in sum((Z[i, j] * X[j] for j in range(3)), alg.zero()).coeffs
        ]
        if isinstance(alg.field, PrimeField):
            image = [x % alg.field.p for x in image]
        assert image == expected


def _field_solve_homogeneous(rows, ncols, spec):
    """Test oracle: first kernel vector of Scalar rows by Gauss-Jordan, or None.

    Columns are processed left to right; the first free column gets
    coefficient one and the other free columns zero.
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivot_of_col = {}
    rank = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if not work[r][col].is_zero()), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [e * inv for e in work[rank]]
        for r in range(nrows):
            if r != rank and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [work[r][j] - factor * work[rank][j] for j in range(ncols)]
        pivot_of_col[col] = rank
        rank += 1
    free = next((c for c in range(ncols) if c not in pivot_of_col), None)
    if free is None:
        return None
    sol = [spec.zero()] * ncols
    sol[free] = spec.one()
    for col, prow in pivot_of_col.items():
        sol[col] = -work[prow][free]
    return sol


def _independent(rows, cols, spec):
    sub = [[Scalar(spec, row[c]) for c in cols] for row in rows]
    return _field_solve_homogeneous(sub, len(cols), spec) is None


def test_field_rank_matches_field_solve_homogeneous():
    # the rank is the largest number of columns that admit no kernel vector
    rng = SplitMix64(32)
    for spec in (QQ, PrimeField(2), PrimeField(5)):
        def value():
            if spec == QQ:
                return Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            return rng.randint(0, spec.p - 1)

        for _ in range(40):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[value() for _ in range(n)] for _ in range(m)]
            if rng.randint(0, 1):  # one dependent row
                rows.append([spec._add(x, y) for x, y in zip(rows[0], rows[-1])])
            expected = max(
                (
                    size
                    for size in range(1, n + 1)
                    for cols in combinations(range(n), size)
                    if _independent(rows, cols, spec)
                ),
                default=0,
            )
            assert field_rank(rows, spec) == expected
    assert field_rank([], QQ) == 0
    with pytest.raises(FieldMismatchError):
        field_rank([[1]], QuadExt(QQ, 2))


def test_displayed_rank_examples():
    assert comp_rank(fixture_matrix("z1")) == 2
    assert comp_rank(fixture_matrix("z2")) == 1
    assert comp_rank(fixture_matrix("z3")) == 0


def test_identity_has_full_rank():
    for alg in (HQ, Mat2Algebra(QQ)):
        for n in (1, 2, 3):
            assert comp_rank(CompMatrix.identity(alg, n)) == n


def test_rank_invariant_under_permutations():
    rng = SplitMix64(21)
    M2 = Mat2Algebra(F3)
    Z = fixture_matrix("z2")
    Zf3 = CompMatrix(
        M2,
        [
            [M2.element([c % 3 for c in e.entries]) for e in row]
            for row in Z.entries
        ],
    )
    base_rank = comp_rank(Zf3)
    perms2 = list(permutations(range(2)))
    for _ in range(500):
        rp = rng.choice(perms2)
        cp = rng.choice(perms2)
        assert comp_rank(Zf3.submatrix(rp, cp)) == base_rank


def test_block_diagonal_rank_counts_invertible_blocks():
    M2 = Mat2Algebra(QQ)
    unit = M2.one()
    nonunit = M2.element((1, 0, 0, 0))
    zero = M2.zero()
    for r in range(4):
        diag = [unit] * r + [nonunit] * (3 - r)
        Z = CompMatrix(
            M2, [[diag[i] if i == j else zero for j in range(3)] for i in range(3)]
        )
        assert comp_rank(Z) == r


def test_nonsplit_rank_equals_skew_column_rank():
    rng = SplitMix64(22)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(m, 3)
        Z = CompMatrix(
            HQ,
            [
                [HQ.element([rng.randint(-1, 1) for _ in range(4)]) for _ in range(n)]
                for _ in range(m)
            ],
        )
        assert comp_rank(Z) == skew_column_rank(Z)


def test_dependence_bound_values():
    assert dependence_bound(HQ, 3, 2) == 2
    assert dependence_bound(Mat2Algebra(QQ), 2, 1) == 8
    assert dependence_bound(HQ, 3, 3) == 1
    assert dependence_bound(Mat2Algebra(QQ), 3, 3) == 4
    assert dependence_bound(QuatAlgebra(QQ, 2, 5), 2, 1) == 2
    with pytest.raises(ValueError):
        dependence_bound(HQ, 2, 3)


def test_low_rank_combination_smallest_family():
    # m = n = d = 1 over a division algebra: threshold 1, so any two distinct
    # one-entry matrices admit a combination that vanishes outright
    Z = CompMatrix(HQ, [[HQ.element((1, 2, 3, 4))]])
    W = CompMatrix(HQ, [[HQ.element((0, 1, 0, 0))]])
    coeffs = low_rank_combination([Z, W], 1)
    combo = combine([Z, W], coeffs)
    assert combo.take_rows(1).is_zero()
    assert comp_rank(combo) == 0
    assert coeffs[0] == HQ.one()  # normalized: first nonzero coefficient is one


def test_low_rank_combination_split_f2_with_exhaustive_oracle():
    M2 = Mat2Algebra(PrimeField(2))
    rng = SplitMix64(23)
    mats = sample_distinct_matrices(M2, 1, 1, 5, rng)
    coeffs = low_rank_combination(mats, 1)
    combo = combine(mats, coeffs)
    assert combo.is_zero()
    assert comp_rank(combo) == 0
    # independent enumeration: some nonzero scalar tuple over GF(2) kills the family
    found = False
    for bits in product((0, 1), repeat=5):
        if not any(bits):
            continue
        acc = CompMatrix.zero(M2, 1, 1)
        for bit, Z in zip(bits, mats):
            if bit:
                acc = acc + Z
        if acc.is_zero():
            found = True
            break
    assert found


def test_low_rank_combination_nonsplit_kills_rows():
    rng = SplitMix64(24)
    mats = sample_distinct_matrices(HQ, 2, 2, 5, rng)
    coeffs = low_rank_combination(mats, 1)  # threshold 2, needs M >= 5
    assert any(not c.is_zero() for c in coeffs)
    combo = combine(mats, coeffs)
    assert combo.take_rows(2).is_zero()
    assert comp_rank(combo) == 0


SPLIT_ALGEBRAS = [
    ("(1,-1)_QQ", QuatAlgebra(QQ, 1, -1)),
    ("Mat2(GF(3))", Mat2Algebra(PrimeField(3))),
    ("Mat2(GF(7))", Mat2Algebra(PrimeField(7))),
]


@pytest.mark.parametrize("name,algebra", SPLIT_ALGEBRAS, ids=[a[0] for a in SPLIT_ALGEBRAS])
def test_low_rank_combination_matches_gauss_jordan_oracle(name, algebra):
    # over a split algebra the coefficients are the first kernel vector of the
    # coefficient rows, normalized so the first nonzero one is 1
    rng = SplitMix64(sum(map(ord, name)) + 1)
    spec = algebra.field
    for _ in range(12):
        m = rng.randint(1, 2)
        n = rng.randint(m, 3)
        d = rng.randint(1, m)
        count = 1 + n * dependence_bound(algebra, m, d)
        mats = sample_distinct_matrices(algebra, m, n, count, rng.fork(), entry_bound=2)
        rows = [
            [Scalar(spec, Z.entries[i][j].coeffs[c]) for Z in mats]
            for i in range(m - d + 1)
            for j in range(n)
            for c in range(4)
        ]
        sol = _field_solve_homogeneous(rows, count, spec)
        inv = next(c for c in sol if not c.is_zero()).inverse()
        expected = tuple(algebra.from_base((c * inv).raw) for c in sol)
        assert low_rank_combination(mats, d) == expected, (m, n, d)


def test_low_rank_combination_precondition():
    rng = SplitMix64(25)
    mats = sample_distinct_matrices(HQ, 2, 2, 4, rng)
    with pytest.raises(BoundNotMetError):
        low_rank_combination(mats, 1)
    # a repeat is refused before the count, also when built apart or from other residues
    twin = CompMatrix(HQ, [list(row) for row in mats[0].rows])
    with pytest.raises(ValueError, match="mutually distinct"):
        low_rank_combination(mats + [twin], 1)
    F3 = Mat2Algebra(PrimeField(3))
    pair = [CompMatrix(F3, [[F3.element(e)]]) for e in ((4, 0, 0, 1), (1, 0, 0, 1))]
    with pytest.raises(ValueError, match="mutually distinct"):
        low_rank_combination(pair, 1)


def test_verify_span_bound_empty():
    report = verify_span_bound(HQ, 1, 1, 1, trials=0, seed=1)
    assert report.trials == 0 and report.successes == 0
    assert report.counterexample is None


def test_verify_span_bound_runs_and_is_deterministic():
    a = verify_span_bound(Mat2Algebra(PrimeField(2)), 1, 1, 1, trials=10, seed=7)
    b = verify_span_bound(Mat2Algebra(PrimeField(2)), 1, 1, 1, trials=10, seed=7)
    assert a.to_json() == b.to_json()
    assert a.successes == 10
    c = verify_span_bound(HQ, 2, 2, 2, trials=5, seed=3)
    assert c.successes == 5 and c.counterexample is None


def test_verify_span_bound_stops_when_the_trial_budget_runs_out(monkeypatch):
    # the clock is read at the start and before each trial: the first trial
    # starts 0.5 s in, within the 1 s budget, and the second 5 s in, past it
    readings = iter([0.0, 0.5, 5.0])
    monkeypatch.setattr(rank, "time", SimpleNamespace(monotonic=lambda: next(readings)))
    with pytest.raises(InfeasibleError, match="^trial budget exhausted$"):
        verify_span_bound(HQ, 2, 2, 1, trials=3, seed=7, budget_ms=1000)
    assert next(readings, None) is None


def test_corpus_fixture_inventory():
    names = set(fixture_names())
    assert {"z1", "z2", "z3", "cl01", "cl10", "cl02", "cl11", "cl20"} <= names


def _combine_by_definition(mats, coeffs):
    acc = mats[0].scale_right(coeffs[0])
    for Z, q in zip(mats[1:], coeffs[1:]):
        acc = acc + Z.scale_right(q)
    return acc


COMBINE_ALGEBRAS = [
    ("(-1,-1)_QQ", HQ),
    ("(1,-1)_QQ", QuatAlgebra(QQ, 1, -1)),
    ("(2,5)_QQ", QuatAlgebra(QQ, 2, 5)),
    ("(1/2,3)_QQ", QuatAlgebra(QQ, Fraction(1, 2), 3)),
    ("Mat2(GF(2))", Mat2Algebra(PrimeField(2))),
    ("Mat2(GF(3))", Mat2Algebra(F3)),
    ("Mat2(GF(7))", Mat2Algebra(PrimeField(7))),
]


@pytest.mark.parametrize("name,algebra", COMBINE_ALGEBRAS, ids=[a[0] for a in COMBINE_ALGEBRAS])
def test_combine_is_the_sum_of_right_scalings(name, algebra):
    # base coefficients (with denominators over QQ), general ones and zeros,
    # on entries that are units, zero divisors, zeros and Fractions
    rng = SplitMix64(sum(map(ord, name)) + 3)
    for _ in range(15):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        mats = [_random_matrix(algebra, m, n, rng) for _ in range(rng.randint(1, 5))]
        coeffs = []
        for _ in mats:
            kind = rng.randint(0, 3)
            if kind == 0:
                f = algebra.field
                c = rng.randint(0, f.p - 1) if isinstance(f, PrimeField) else Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                coeffs.append(algebra.from_base(c))
            elif kind == 1:
                coeffs.append(_random_entry(algebra, rng))
            else:  # zero, or diagonal but not a base scalar: (1, 0, 0, 2) is not from_base(1)
                coeffs.append(algebra.zero() if kind == 2 else algebra.element((1, 0, 0, 2)))
        assert combine(mats, coeffs) == _combine_by_definition(mats, coeffs)


def test_combine_rejects_other_algebras_and_shapes():
    S = QuatAlgebra(QQ, 1, -1)
    Z = CompMatrix(HQ, [[HQ.element((1, 2, 0, -1))]])
    with pytest.raises(AlgebraMismatchError):
        combine([Z, Z], [HQ.one(), S.one()])
    with pytest.raises(AlgebraMismatchError):
        combine([Z], [S.one()])
    with pytest.raises(AlgebraMismatchError):
        combine([Z, CompMatrix(S, [[S.one()]])], [HQ.one(), HQ.one()])
    with pytest.raises(ShapeError):
        combine([Z, CompMatrix(HQ, [[HQ.one(), HQ.one()]])], [HQ.one(), HQ.one()])


def _raw_coordinates(mats):
    return [[[tuple(int(x) for x in e.coeffs) for e in row] for row in Z.rows] for Z in mats]


def test_sampled_matrices_are_pinned():
    # drawn coordinates and rejections are pinned, so the rng call order cannot drift
    assert _raw_coordinates(sample_distinct_matrices(HQ, 1, 2, 2, SplitMix64(5))) == [
        [[(0, 2, -1, -1), (0, -3, -2, -2)]],
        [[(3, 3, 1, 1), (2, 2, 3, -2)]],
    ]
    assert _raw_coordinates(sample_distinct_matrices(Mat2Algebra(F3), 1, 1, 3, SplitMix64(5))) == [
        [[(2, 1, 2, 2)]],
        [[(1, 1, 0, 0)]],
        [[(1, 2, 0, 1)]],
    ]
    pinned = [
        (HQ, 2, 2, 5, 24, 3, "6314a9f2905e3bf7"),
        (QuatAlgebra(QQ, 1, -1), 2, 3, 13, 11, 1, "214d6efab9836c6c"),
        (Mat2Algebra(F3), 2, 2, 9, 12, 3, "1b36c8925716f19c"),
        (Mat2Algebra(PrimeField(2)), 1, 1, 16, 13, 3, "9e896db5b83b6343"),  # every matrix, many rejections
    ]
    for algebra, m, n, count, seed, bound, digest in pinned:
        mats = sample_distinct_matrices(algebra, m, n, count, SplitMix64(seed), entry_bound=bound)
        assert hashlib.sha256(repr(_raw_coordinates(mats)).encode()).hexdigest()[:16] == digest
        assert len(set(mats)) == count
    rng = SplitMix64(14)
    sample_distinct_matrices(HQ, 1, 1, 50, rng, entry_bound=1)
    assert rng.next_u64() == 17922827041018644926


def test_witness_checks_still_run(monkeypatch):
    # each check of the span path rejects a wrong witness handed to it
    mats = sample_distinct_matrices(HQ, 2, 2, 5, SplitMix64(24))
    stacked = CompMatrix(HQ, [[T.rows[i][j] for T in mats] for i in range(2) for j in range(2)])

    def wrong_kernel(algebra, rows):
        return [1] + [0] * (4 * len(rows[0]) - 1), 1

    with monkeypatch.context() as patch:
        patch.setattr(matrices, "_skew_kernel", wrong_kernel)
        with pytest.raises(AssertionError, match="bad kernel vector"):
            matrices.skew_solve(stacked)
    with monkeypatch.context() as patch:
        # over a division algebra skew_solve's substitution is the one witness check
        patch.setattr(matrices, "_skew_kernel", wrong_kernel)
        with pytest.raises(AssertionError, match="bad kernel vector"):
            low_rank_combination(mats, 1)
    split = sample_distinct_matrices(Mat2Algebra(QQ), 1, 1, 5, SplitMix64(24))
    assert not split[0].rows[0][0].is_zero()
    with monkeypatch.context() as patch:
        # over a split algebra the combination itself is checked
        patch.setattr(rank, "field_echelon", lambda rows, f: ([0], None, lambda: ([1] + [0] * 4, 1)))
        with pytest.raises(AssertionError, match="failed to kill the truncated rows"):
            low_rank_combination(split, 1)
    # the trials run the same checked raw core, so a wrong witness in it reaches the trial's report
    with monkeypatch.context() as patch:
        patch.setattr(matrices, "_skew_kernel", wrong_kernel)
        report = verify_span_bound(HQ, 2, 2, 1, trials=1, seed=3)
    assert report.successes == 0 and report.counterexample["reason"] == "skew elimination produced a bad kernel vector"
    with monkeypatch.context() as patch:
        patch.setattr(rank, "field_echelon", lambda rows, f: ([0], None, lambda: ([1] + [0] * 4, 1)))
        report = verify_span_bound(Mat2Algebra(QQ), 1, 1, 1, trials=1, seed=3)
    assert report.successes == 0 and report.counterexample["reason"] == "combination failed to kill the truncated rows"


def test_comp_rank_of_full_rank_square_is_one_elimination(monkeypatch):
    # 6 x 6 over Mat2(QQ), every entry of rank 1 (u v^T), Z invertible: rank L(Z) = 24
    # already gives the answer, with no Study determinant of the full minor after it
    M2 = Mat2Algebra(QQ)
    rng = SplitMix64(41)

    def vector():
        while not any(v := (rng.randint(-2, 2), rng.randint(-2, 2))):
            pass
        return v

    def rank_one():
        (a, b), (c, e) = vector(), vector()
        return M2.element((a * c, a * e, b * c, b * e))

    Z = CompMatrix(M2, [[rank_one() for _ in range(6)] for _ in range(6)])
    assert all(not e.is_zero() and e.norm().is_zero() for row in Z.rows for e in row)
    assert brute_force_rank(Z) == 6
    calls = []
    echelon = matrices.field_echelon
    monkeypatch.setattr(matrices, "field_echelon", lambda rows, f: calls.append(1) or echelon(rows, f))
    assert comp_rank(Z) == 6
    assert len(calls) == 1


def _per_coordinate_sample(algebra, m, n, count, rng, entry_bound=3):
    """The raw sampler with one `randint` call per coordinate: (matrices, draws)."""
    f = algebra.field
    lo, hi = (0, f.p - 1) if isinstance(f, PrimeField) else (-entry_bound, entry_bound)
    seen, out, attempts = set(), [], 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise InfeasibleError("matrix space too small to sample distinct members")
        raw = tuple(tuple(tuple(rng.randint(lo, hi) for _ in range(4)) for _ in range(n)) for _ in range(m))
        if raw not in seen:
            seen.add(raw)
            out.append(raw)
    return out, attempts


def _oracle_sample(algebra, m, n, count, rng, entry_bound=3):
    """The element-based sampler: every accepted draw built as a CompMatrix at once."""
    raws = _per_coordinate_sample(algebra, m, n, count, rng, entry_bound)[0]
    return [CompMatrix(algebra, [[algebra.element(e) for e in row] for row in raw]) for raw in raws]


def test_randints_is_successive_randint_calls():
    # the published splitmix64 outputs for seed 1234567, one by one and batched
    reference = [6457827717110365317, 3203168211198807973, 9817491932198370423, 4593380528125082431, 16408922859458223821]
    single = SplitMix64(1234567)
    assert [single.next_u64() for _ in range(5)] == reference == SplitMix64(1234567).randints(0, 2**64 - 1, 5)
    for seed in (0, 1, 5, 2**63 + 17, 2**64 - 1):
        for lo, hi, count in ((0, 6, 50), (-3, 3, 41), (4, 4, 9), (0, 2**70, 12), (-1, 0, 0), (0, 1, 1)):
            batched, single = SplitMix64(seed), SplitMix64(seed)
            assert batched.randints(lo, hi, count) == [single.randint(lo, hi) for _ in range(count)]
            assert batched._state == single._state and batched.next_u64() == single.next_u64()
    for lo, hi in ((3, 2), (0, -1)):
        with pytest.raises(ValueError, match="empty range"):
            SplitMix64(1).randints(lo, hi, 4)


def _splitmix64_reference(state, lo, hi, count):
    """splitmix64 written out one state at a time: (values in [lo, hi], final state)."""
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(lo + (z ^ (z >> 31)) % (hi - lo + 1))
    return out, state


def test_randints_matches_the_one_at_a_time_reference():
    # every count from 0 to 300 (the packed sampler doubles its slots at 64, 128, 256),
    # in one stream per span, the state checked after each call
    for seed in (2024, 2**64 - 1):
        for span in (1, 7, 9973, 2**64, 2**70):
            rng, state, lo = SplitMix64(seed), seed, -(span // 2)
            for count in range(301):
                expected, state = _splitmix64_reference(state, lo, lo + span - 1, count)
                assert rng.randints(lo, lo + span - 1, count) == expected and rng._state == state, (seed, span, count)
            expected, state = _splitmix64_reference(state, 0, 2**64 - 1, 1)
            assert [rng.next_u64()] == expected and rng._state == state


def test_single_draws_match_the_one_at_a_time_reference():
    # next_u64, randint, choice and fork each step the state once, as the reference does
    for seed in (0, 2024, 2**63 + 17, 2**64 - 1):
        rng, state = SplitMix64(seed), seed
        for step in range(200):
            lo, hi = ((0, 2**64 - 1), (-3, 3), (5, 5), (0, 2**70), (-(2**65), 2**65))[step % 5]
            expected, state = _splitmix64_reference(state, lo, hi, 1)
            assert rng.randint(lo, hi) == expected[0] and rng._state == state, (seed, step)
            expected, state = _splitmix64_reference(state, 0, 2**64 - 1, 1)
            assert rng.next_u64() == expected[0] and rng._state == state, (seed, step)
            expected, state = _splitmix64_reference(state, 0, 2**64 - 1, 1)
            child = rng.fork()
            assert child._state == expected[0] and rng._state == state, (seed, step)
            assert [child.next_u64()] == _splitmix64_reference(expected[0], 0, 2**64 - 1, 1)[0]
            expected, state = _splitmix64_reference(state, 0, 6, 1)
            assert rng.choice("abcdefg") == "abcdefg"[expected[0]] and rng._state == state, (seed, step)
    rng = SplitMix64(9)
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(1, 0)
    assert rng._state == 9  # a refused draw leaves the stream where it was


def test_sampler_reads_little_endian_words_on_either_host(monkeypatch):
    # randints reads its words from little-endian bytes with array('Q'), which reads host
    # order, and swaps them on a big-endian host; with the swap flipped every word comes
    # out byte-reversed, on either host, so the swap runs here too
    state = 2024
    words, _ = _splitmix64_reference(state, 0, 2**64 - 1, 70)
    assert SplitMix64(state).randints(0, 2**64 - 1, 70) == words
    monkeypatch.setattr(rng_module, "_SWAP", not rng_module._SWAP)
    flipped = [int.from_bytes(v.to_bytes(8, "little"), "big") for v in words]
    assert SplitMix64(state).randints(0, 2**64 - 1, 70) == flipped != words


def test_batched_sampler_matches_the_per_coordinate_sampler():
    # the same families from the same stream, and the stream left in the same place
    cases = [
        (HQ, 2, 2, 5, 3),
        (QuatAlgebra(QQ, 1, -1), 2, 3, 13, 3),
        (HQ, 1, 1, 50, 1),  # 50 of the 81 matrices: many rejections
        (Mat2Algebra(F3), 2, 2, 9, 3),
        (Mat2Algebra(PrimeField(7)), 3, 1, 4, 3),
        (Mat2Algebra(PrimeField(2)), 1, 1, 16, 3),  # every matrix of Mat2(GF(2)): many rejections
    ]
    for seed in range(6):
        for algebra, m, n, count, bound in cases:
            batched, single = SplitMix64(seed), SplitMix64(seed)
            expected, draws = _per_coordinate_sample(algebra, m, n, count, single, bound)
            assert rank._sample(algebra, m, n, count, batched, bound) == expected
            assert batched._state == single._state
            if count == 16:
                assert draws > 2 * count
    # a space too small: both give up after the same 1000 * count draws
    batched, single = SplitMix64(3), SplitMix64(3)
    for sampler, rng in ((rank._sample, batched), (_per_coordinate_sample, single)):
        with pytest.raises(InfeasibleError, match="too small"):
            sampler(HQ, 1, 1, 2, rng, 0)
    assert batched._state == single._state


def _oracle_low_rank_combination(mats, d, lz):
    """The element-based combination: coefficients as elements, checks by
    `_combine_by_definition`; the first kernel vector by `gauss_jordan`, which
    shares no code with the library's kernels, of the coordinate rows over a
    split algebra and of L over a division algebra."""
    algebra, m, n = mats[0].ring, mats[0].m, mats[0].n
    keep = m - d + 1
    truncated = [Z.take_rows(keep) for Z in mats]
    f = algebra.field
    if algebra.is_split_decision() == "split":
        rows = [[(T.rows[i][j].coeffs[c], 0) for T in truncated] for i in range(keep) for j in range(n) for c in range(4)]
        sol = [x for x, _ in gauss_jordan(rows, p=f.characteristic)[2]]
        inv = f._inv(next(c for c in sol if c))
        coeffs = tuple(algebra.from_base(f._mul(c, inv)) for c in sol)
    else:
        stacked = CompMatrix(algebra, [[T.rows[i][j] for T in truncated] for i in range(keep) for j in range(n)])
        kernel = [x for x, _ in gauss_jordan([[(x, 0) for x in row] for row in lz.left_regular_rep(stacked)])[2]]
        sol = [algebra.element(kernel[4 * t : 4 * t + 4]) for t in range(len(mats))]
        inv = next(c for c in sol if not c.is_zero()).inverse()
        coeffs = tuple(c * inv for c in sol)
    assert _combine_by_definition(truncated, coeffs).is_zero()
    return coeffs


def _oracle_verify_span_bound(algebra, m, n, d, trials, seed, lz):
    """The element-based trial loop of `verify_span_bound`, with the same report."""
    size = 1 + n * dependence_bound(algebra, m, d)
    params = {"algebra": repr(algebra), "m": m, "n": n, "d": d, "family_size": size, "seed": seed, "entry_bound": 3}
    report = {"params": params, "trials": trials, "successes": 0, "counterexample": None}
    rng = SplitMix64(seed)
    for trial in range(trials):
        mats = _oracle_sample(algebra, m, n, size, rng.fork())
        coeffs = _oracle_low_rank_combination(mats, d, lz)
        full = _combine_by_definition(mats, coeffs)
        failure = None
        if not full.take_rows(m - d + 1).is_zero():
            failure = "truncated combination is nonzero"
        elif all(c.is_zero() for c in coeffs):
            failure = "coefficients all zero"
        elif (r := comp_rank(full)) > d - 1:
            failure = f"rank {r} exceeds {d - 1}"
        if failure is None:
            report["successes"] += 1
        elif report["counterexample"] is None:
            report["counterexample"] = {"trial": trial, "reason": failure, "matrices": [matrix_to_json(Z) for Z in mats]}
    return report


ORACLE_ALGEBRAS = [
    ("(-1,-1)_QQ", HQ),
    ("(2,5)_QQ", QuatAlgebra(QQ, 2, 5)),
    ("(1,-1)_QQ", QuatAlgebra(QQ, 1, -1)),
    ("Mat2(GF(2))", Mat2Algebra(PrimeField(2))),
    ("Mat2(GF(7))", Mat2Algebra(PrimeField(7))),
    ("(3,6)_GF(7)", QuatAlgebra(PrimeField(7), 3, 6)),
]


@pytest.mark.parametrize("name,algebra", ORACLE_ALGEBRAS, ids=[a[0] for a in ORACLE_ALGEBRAS])
def test_raw_span_trials_match_the_element_oracle(name, algebra, lz):
    # the raw-coordinate path gives the element path's coefficients and reports
    for k, (m, n, d) in enumerate(((1, 1, 1), (2, 2, 1), (2, 3, 2), (2, 2, 2))):
        seed = sum(map(ord, name)) + k
        size = 1 + n * dependence_bound(algebra, m, d)
        mats = _oracle_sample(algebra, m, n, size, SplitMix64(seed))
        assert sample_distinct_matrices(algebra, m, n, size, SplitMix64(seed)) == mats
        assert low_rank_combination(mats, d) == _oracle_low_rank_combination(mats, d, lz), (m, n, d)
        assert verify_span_bound(algebra, m, n, d, trials=3, seed=seed).to_json() == _oracle_verify_span_bound(
            algebra, m, n, d, 3, seed, lz
        ), (m, n, d)


# the families of verify_span_bound(algebra, 1, 1, 1, trials=1, seed=3), as the
# element path reported them: entry coordinates over (-1,-1)_QQ, blocks over Mat2(GF(2))
SPLIT_F2 = Mat2Algebra(PrimeField(2))
PINNED_FAMILIES = {
    HQ: [["3", "0", "2", "3"], ["-3", "2", "1", "-3"]],
    SPLIT_F2: [[[1, 0], [0, 0]], [[0, 1], [1, 1]], [[0, 0], [0, 0]], [[1, 1], [1, 1]], [[0, 0], [1, 0]]],
}


def _echelon_giving(pivots, kernel_is_first_column):
    """A stand-in for `field_echelon`: these pivots, no determinant, and the kernel vector e_0 or None."""
    def echelon(rows, f):
        return pivots, None, lambda: ([1] + [0] * (len(rows[0]) - 1), 1) if kernel_is_first_column else None
    return echelon


def _pair_echelon_giving(pivots, kernel_is_first_column):
    """A stand-in for `pair_echelon`: these pivots, no determinant, and the kernel vector e_0 or None."""
    def echelon(rows, k, a):
        return pivots, None, lambda: ([(1, 0)] + [(0, 0)] * (len(rows[0]) - 1), 1) if kernel_is_first_column else None
    return echelon


def _combination_giving(first):
    """A stand-in for `rank._combination`: coefficient `first` on matrix 0, zero on the rest, over 1."""
    def combination(algebra, family, keep):
        return [list(first)] + [[0] * 4 for _ in family[1:]], 1
    return combination


def test_every_trial_check_reaches_the_report(monkeypatch):
    # each check of a trial, made to fail, is the counterexample's reason, and the
    # counterexample holds the sampled family; the rank check runs only from d = 2
    cases = [
        (SPLIT_F2, rank, "field_echelon", _echelon_giving([], True), "combination failed to kill the truncated rows"),
        (SPLIT_F2, rank, "field_echelon", _echelon_giving([0], False), "dependence guaranteed by dimension count was not found"),
        (HQ, matrices, "pair_echelon", _pair_echelon_giving([], True), "skew elimination produced a bad kernel vector"),
        (HQ, matrices, "pair_echelon", _pair_echelon_giving([0], True), "pivots of the half-size matrix over a division algebra are not whole pairs"),
        (HQ, matrices, "pair_echelon", _pair_echelon_giving([0, 1], False), "dependence guaranteed by dimension count was not found"),
        (HQ, rank, "_combination", _combination_giving((0, 0, 0, 0)), "coefficients all zero"),
    ]
    cases = [(1, 1, 1, *case) for case in cases] + [
        (2, 2, 2, HQ, rank, "_comp_rank_raw", lambda algebra, raw: 5, "rank 5 exceeds 1"),
        (2, 2, 2, SPLIT_F2, rank, "_comp_rank_raw", lambda algebra, raw: 5, "rank 5 exceeds 1"),
    ]
    for m, n, d, algebra, module, attribute, stand_in, reason in cases:
        with monkeypatch.context() as patch:
            patch.setattr(module, attribute, stand_in)
            report = verify_span_bound(algebra, m, n, d, trials=1, seed=3).to_json()
        assert report["successes"] == 0 and report["counterexample"]["reason"] == reason
        size = report["params"]["family_size"]
        family = sample_distinct_matrices(algebra, m, n, size, SplitMix64(3).fork())
        assert report["counterexample"]["matrices"] == [matrix_to_json(Z) for Z in family]
        if m == 1:
            pinned = PINNED_FAMILIES[algebra]
            key = "entries" if algebra is HQ else "blocks"
            assert [Z[key][0] for Z in report["counterexample"]["matrices"]] == pinned


def test_verify_span_bound_refuses_more_rows_than_columns():
    with pytest.raises(ValueError, match="m <= n"):
        verify_span_bound(HQ, 3, 2, 1, trials=1, seed=1)
    assert verify_span_bound(HQ, 3, 2, 1, trials=0, seed=1).trials == 0


LZ_ALGEBRAS = [
    HQ,
    QuatAlgebra(QQ, -2, -5),
    QuatAlgebra(QQ, 2, 7),
    QuatAlgebra(QQ, 3, -3),
    QuatAlgebra(QQ, 1, -1),
    QuatAlgebra(QQ, 4, -3),
    QuatAlgebra(PrimeField(7), 3, -1),
    Mat2Algebra(PrimeField(2)),
    Mat2Algebra(PrimeField(7)),
]


@pytest.mark.parametrize("alg", LZ_ALGEBRAS, ids=repr)
def test_comp_rank_matches_the_lz_oracle(alg, lz):
    # 230 seeded matrices per algebra (2,070 in all), square and rectangular,
    # with rational entries and low-rank products: the rank from the half-size
    # matrix is the one read off L(Z)
    rng = SplitMix64(sum(map(ord, repr(alg))) + 52)
    ranks = set()
    for _ in range(230):
        Z = lz.matrix(alg, rng.randint(1, 3), rng.randint(1, 3), rng)
        ranks.add(expected := lz.comp_rank(Z))
        assert comp_rank(Z) == expected, Z.entries
    assert ranks == {0, 1, 2, 3}


@pytest.mark.parametrize("algebra", [Mat2Algebra(PrimeField(7)), QuatAlgebra(QQ, 1, -1), SPLIT_F2, HQ], ids=repr)
def test_span_trial_forms_its_combination_once(algebra, monkeypatch, lz):
    # each row of a trial's combination is formed once: rows 0..keep-1 inside _combination (the scaled
    # sum when split, skew_solve's substitution over a division algebra), where they vanish, and rows
    # keep..m-1 in the trial, from integer numerators, equal to the element oracle's rows times the
    # denominator (and D), and ranked; at d = 1 the trial forms and ranks nothing
    split = algebra.is_split_decision() == "split"
    p, D = algebra.field.characteristic, 1 if split else algebra._den
    calls, ranked, combined, inside = [], [], [], []

    def recorded(module, name):
        form = getattr(module, name)

        def call(*args):
            out = form(*args)
            family = args[1] if name == "_combine_raw" else args[0]
            calls.append((name, "inside" if inside else "trial", len(family[0]), out))
            return out
        monkeypatch.setattr(module, name, call)

    combination = rank._combination

    def combination_inside(alg, family, keep):
        inside.append(True)
        try:
            ys, den = combination(alg, family, keep)
        finally:
            inside.pop()
        combined.append((family, den))
        return ys, den

    for module, name in ((rank, "_scaled_sum"), (rank, "_combine_raw"), (matrices, "_combine_raw")):
        recorded(module, name)
    monkeypatch.setattr(rank, "_combination", combination_inside)
    rank_of = rank._comp_rank_raw
    monkeypatch.setattr(rank, "_comp_rank_raw", lambda alg, raw: ranked.append(raw) or rank_of(alg, raw))
    for k, (m, n, d) in enumerate(((2, 3, 2), (2, 2, 1), (3, 3, 3))):
        for log in (calls, ranked, combined):
            log.clear()
        assert verify_span_bound(algebra, m, n, d, trials=2, seed=9 + k).successes == 2
        keep = m - d + 1
        assert len(combined) == 2
        # rows 0..keep-1: one scaled sum of keep rows when split, one substitution of keep * n stacked
        # entries (after the norm of y_f, one row) over a division algebra
        first = [c for c in calls if c[1] == "inside"]
        assert [(name, rows) for name, _, rows, _ in first] == (
            [("_scaled_sum", keep)] * 2 if split else [("_combine_raw", 1), ("_combine_raw", keep * n)] * 2
        ), (m, n, d)
        substituted = first if split else first[1::2]  # the other calls form the norm of y_f
        assert all(matrices._vanishes(out, p) for *_, out in substituted)
        # rows keep..m-1: formed once in the trial (none at d = 1), equal to the oracle's rows, and ranked
        rest = [c for c in calls if c[1] == "trial"]
        assert [name for name, *_ in rest] == ([] if d == 1 else ["_scaled_sum" if split else "_combine_raw"] * 2)
        assert ranked == [out for *_, out in rest]
        for (family, den), (*_, out) in zip(combined, rest):
            assert len(out) == d - 1 and all(type(v) is int for row in out for e in row for v in e)
            mats = [rank._matrix(algebra, raw) for raw in family]
            full = _combine_by_definition(mats, _oracle_low_rank_combination(mats, d, lz))
            expected = full.submatrix(range(keep, m), range(n)).scale_right(algebra.from_base(den * D))
            assert rank._matrix(algebra, out) == expected, (m, n, d)


MINOR_SEARCH_ALGEBRAS = [
    Mat2Algebra(PrimeField(7)),
    Mat2Algebra(QQ),
    QuatAlgebra(QQ, 1, -1),
    QuatAlgebra(QQ, 4, -3),
    QuatAlgebra(QQ, 3, -3),  # sqrt(3) not in QQ: H and each minor over QQ(sqrt(3))
]


def _non_unit_menus(algebra):
    """Entry menus: E11 and E12 over Mat2, else products with a zero divisor w;
    alone, with zero, with E22 and zero, and all four with the unit one."""
    if isinstance(algebra, Mat2Algebra):
        e11, e12, e22, e21 = (algebra.element(c) for c in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    else:
        w, v = algebra.split_witness(), algebra.v()
        e11, e12, e22, e21 = w, w * v, v * w * v, v * w
    zero = algebra.zero()
    return [[e11, e12], [e11, e12, zero], [e11, e22, zero], [e11, e12, e22, e21, algebra.one()]]


@pytest.mark.parametrize("algebra", MINOR_SEARCH_ALGEBRAS, ids=repr)
def test_comp_rank_matches_the_element_minor_search(algebra, lz):
    # minors read off the one H of the input give the element minor search's
    # rank: non-unit menus up to 6 x 6, and seeded matrices with rational
    # entries and low-rank products up to 3 x 4
    rng = SplitMix64(sum(map(ord, repr(algebra))) + 53)
    below_bound = set()
    cases = []
    for size in range(1, 7):
        for menu in _non_unit_menus(algebra):
            for _ in range(3 if size < 5 else 1):
                m = size if rng.randint(0, 2) else max(1, size - 1)
                cases.append(CompMatrix(algebra, [[menu[rng.randint(0, len(menu) - 1)] for _ in range(size)] for _ in range(m)]))
    cases += [lz.matrix(algebra, rng.randint(1, 3), rng.randint(1, 4), rng) for _ in range(60)]
    for Z in cases:
        expected = lz.minor_search_rank(Z)
        assert comp_rank(Z) == expected, Z.entries
        top = len(matrices._half_echelon(algebra, *matrices._half(algebra, matrices._raw(Z)))[0]) // 2
        if expected < min(top, Z.m, Z.n):
            below_bound.add(expected > 0)
    assert below_bound == {False, True}  # the search ran, both to a minor and to 0


def test_minors_of_a_pair_path_matrix_check_their_sqrt_a_part(monkeypatch):
    # over (3,-3)_QQ every minor is eliminated over QQ(sqrt(3)), so a determinant
    # with a sqrt(3) part is caught in the search, past the 1 x 2 input itself
    algebra = QuatAlgebra(QQ, 3, -3)
    w = algebra.split_witness()
    v = algebra.v()
    Z = CompMatrix(algebra, [[w, v * w * v]])  # rank H = 2, yet both entries are zero divisors
    assert comp_rank(Z) == 0
    pair = matrices.pair_echelon

    def tilted(rows, k, a):
        pivots, d, kernel = pair(rows, k, a)
        return pivots, None if d is None else (d[0], d[1] + 1), kernel

    monkeypatch.setattr(matrices, "pair_echelon", tilted)
    with pytest.raises(AssertionError, match="nonzero sqrt\\(a\\) part"):
        comp_rank(Z)


@pytest.mark.parametrize("algebra", [Mat2Algebra(PrimeField(7)), QuatAlgebra(PrimeField(7), 3, 6), SPLIT_F2, HQ,
                                     QuatAlgebra(QQ, 1, -1), QuatAlgebra(QQ, 3, -3)], ids=repr)
def test_span_trial_rank_on_raw_acc_is_the_comp_matrix_rank(algebra, monkeypatch):
    # from d = 2 a trial ranks the last d - 1 rows of its combination on the raw,
    # unreduced acc; through CompMatrix, whose entries are reduced, the rank is the
    # same; at d = 1 it ranks nothing
    seen = []
    rank_of = rank._comp_rank_raw

    def recorded(alg, acc):
        seen.append((acc, rank_of(alg, acc)))
        return seen[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(rank, "_comp_rank_raw", recorded)
        for k, (m, n, d) in enumerate(((1, 1, 1), (2, 2, 1), (1, 3, 1))):
            assert verify_span_bound(algebra, m, n, d, trials=2, seed=61 + k).successes == 2
        assert seen == []
        for k, (m, n, d) in enumerate(((2, 3, 2), (2, 2, 2), (3, 3, 2), (3, 3, 3))):
            assert verify_span_bound(algebra, m, n, d, trials=2, seed=63 + k).successes == 2
    assert [len(acc) for acc, _ in seen] == [1, 1, 1, 1, 1, 1, 2, 2]
    for acc, r in seen:
        assert r == comp_rank(rank._matrix(algebra, acc))
    p = algebra.field.characteristic
    if p:  # the acc handed over is unreduced
        assert any(not 0 <= v < p for acc, _ in seen for row in acc for e in row for v in e)
