from fractions import Fraction
from itertools import product

import pytest

from compalg import matrices, rank, ratlin
from compalg.errors import (
    AlgebraMismatchError,
    FieldMismatchError,
    NotDiagonalError,
    NotSplitFormError,
    ShapeError,
    UnexpectedZeroDivisorError,
)
from compalg.fields import QQ, PrimeField, QuadExt, from_split_components, split_components
from compalg.matrices import (
    CompMatrix,
    FieldMatrix,
    field_echelon,
    flatten_split,
    is_invertible,
    mat2_matrix_to_quat,
    skew_column_rank,
    skew_solve,
    split_pair,
    study_det,
    symplectic_rep,
    unflatten_split,
)
from compalg.quaternion import NONSPLIT, Mat2Algebra, QuatAlgebra, quat_to_mat2
from compalg.rank import comp_rank, dependence_bound, low_rank_combination, sample_distinct_matrices
from compalg.rng import SplitMix64
from compalg.serialize import matrix_from_json
from compalg.corpus import load_fixture
from compalg.zmodule import IntMatrix

HQ = QuatAlgebra(QQ, -1, -1)
F3 = PrimeField(3)


def random_matrix(alg, m, n, rng, bound=2):
    def elem():
        if isinstance(alg.field, PrimeField):
            return alg.element([rng.randint(0, alg.field.p - 1) for _ in range(4)])
        return alg.element([rng.randint(-bound, bound) for _ in range(4)])

    return CompMatrix(alg, [[elem() for _ in range(n)] for _ in range(m)])


def test_identity_and_one_by_one():
    rng = SplitMix64(1)
    Z = random_matrix(HQ, 2, 2, rng)
    assert CompMatrix.identity(HQ, 2) * Z == Z
    x = HQ.element((1, 2, 3, 4))
    y = HQ.element((2, 0, -1, 1))
    assert (CompMatrix(HQ, [[x]]) * CompMatrix(HQ, [[y]])).entries[0][0] == x * y


def test_right_scalar_action_associates():
    rng = SplitMix64(2)
    for _ in range(50):
        Z = random_matrix(HQ, 2, 2, rng)
        W = random_matrix(HQ, 2, 2, rng)
        q = HQ.element([rng.randint(-2, 2) for _ in range(4)])
        assert (Z * W).scale_right(q) == Z * W.scale_right(q)


def test_symplectic_rep_of_j():
    L = HQ.quad_subfield()
    rep = symplectic_rep(CompMatrix(HQ, [[HQ.v()]]))
    assert rep == FieldMatrix(L, [[0, -1], [1, 0]])


def test_symplectic_rep_identity():
    for n in (1, 2, 3):
        rep = symplectic_rep(CompMatrix.identity(HQ, n))
        assert rep == FieldMatrix.identity(HQ.quad_subfield(), 2 * n)


@pytest.mark.parametrize(
    "alg",
    [HQ, QuatAlgebra(QQ, 2, 5), QuatAlgebra.split_form(QQ), QuatAlgebra(F3, 1, -1)],
    ids=repr,
)
def test_symplectic_rep_is_homomorphism(alg):
    rng = SplitMix64(3)
    for _ in range(60):
        n = rng.randint(1, 3)
        Z = random_matrix(alg, n, n, rng)
        W = random_matrix(alg, n, n, rng)
        assert symplectic_rep(Z * W) == symplectic_rep(Z) * symplectic_rep(W)
        assert symplectic_rep(Z + W) == symplectic_rep(Z) + symplectic_rep(W)


def test_symplectic_rep_injective_sample():
    rng = SplitMix64(4)
    for _ in range(1000):
        Z = random_matrix(HQ, 2, 2, rng, bound=1)
        if not Z.is_zero():
            assert not symplectic_rep(Z).is_zero()


def test_det_basics():
    assert FieldMatrix.identity(QQ, 3).det() == QQ.one()
    M = FieldMatrix(QQ, [[1, 2], [3, 4]])
    assert M.det() == QQ.element(-2)


@pytest.mark.parametrize(
    "spec",
    [QQ, PrimeField(7), QuadExt(QQ, -1), QuadExt(PrimeField(5), 4), QuadExt(QQ, 1)],
    ids=repr,
)
def test_det_multiplicative(spec):
    rng = SplitMix64(5)

    def rand_entry():
        if spec == QQ:
            return spec.element(rng.randint(-3, 3))
        if isinstance(spec, PrimeField):
            return spec.element(rng.randint(0, spec.p - 1))
        if isinstance(spec.base, PrimeField):
            return spec.element((rng.randint(0, spec.base.p - 1), rng.randint(0, spec.base.p - 1)))
        return spec.element((rng.randint(-3, 3), rng.randint(-3, 3)))

    for _ in range(200):
        n = rng.randint(1, 3)
        M = FieldMatrix(spec, [[rand_entry() for _ in range(n)] for _ in range(n)])
        N = FieldMatrix(spec, [[rand_entry() for _ in range(n)] for _ in range(n)])
        assert (M * N).det() == M.det() * N.det()


def test_study_det_values():
    assert study_det(CompMatrix.identity(HQ, 2)) == QQ.one()
    z = HQ.element((2, 1, 0, 0))
    assert study_det(CompMatrix(HQ, [[z]])) == QQ.element(25)


def test_study_det_multiplicative_and_tau_fixed():
    rng = SplitMix64(6)
    for alg in (HQ, QuatAlgebra(QQ, 2, 5), QuatAlgebra(F3, 1, -1)):
        for _ in range(60):
            n = rng.randint(1, 2)
            Z = random_matrix(alg, n, n, rng)
            W = random_matrix(alg, n, n, rng)
            assert study_det(Z * W) == study_det(Z) * study_det(W)
            d = symplectic_rep(Z).det()
            assert d.conjugate() == d
            L = alg.quad_subfield()
            assert L.embed(study_det(Z)) == d * d


def test_flatten_identity_and_roundtrip():
    M2 = Mat2Algebra(QQ)
    flat = flatten_split(CompMatrix.identity(M2, 1))
    assert flat == FieldMatrix.identity(QQ, 2)
    z1 = matrix_from_json(load_fixture("z1")["matrix"])
    assert unflatten_split(flatten_split(z1), z1.algebra) == z1


def test_flatten_multiplicative():
    rng = SplitMix64(7)
    M2 = Mat2Algebra(F3)
    for _ in range(200):
        n = rng.randint(1, 3)
        Z = random_matrix(M2, n, n, rng)
        W = random_matrix(M2, n, n, rng)
        assert flatten_split(Z * W) == flatten_split(Z) * flatten_split(W)


def test_flatten_rejects_generic_algebra():
    with pytest.raises(NotSplitFormError):
        flatten_split(CompMatrix.identity(HQ, 1))


def test_split_pair_read_off_and_homomorphism():
    M2 = Mat2Algebra(QQ)
    ident = CompMatrix.identity(M2, 2)
    p1, p2 = split_pair(ident)
    assert p1 == FieldMatrix.identity(QQ, 2) and p2 == FieldMatrix.identity(QQ, 2)
    d = CompMatrix(M2, [[M2.element((2, 0, 0, 3))]])
    p1, p2 = split_pair(d)
    assert p1 == FieldMatrix(QQ, [[2]]) and p2 == FieldMatrix(QQ, [[3]])
    rng = SplitMix64(8)
    for _ in range(200):
        n = rng.randint(1, 3)

        def diag():
            return M2.element((rng.randint(-3, 3), 0, 0, rng.randint(-3, 3)))

        Z = CompMatrix(M2, [[diag() for _ in range(n)] for _ in range(n)])
        W = CompMatrix(M2, [[diag() for _ in range(n)] for _ in range(n)])
        z1, z2 = split_pair(Z)
        w1, w2 = split_pair(W)
        assert split_pair(Z * W) == (z1 * w1, z2 * w2)
    with pytest.raises(NotDiagonalError):
        split_pair(CompMatrix(M2, [[M2.element((0, 1, 0, 0))]]))


def test_is_invertible_basics():
    assert is_invertible(CompMatrix.identity(HQ, 2))
    assert not is_invertible(CompMatrix.zero(HQ, 2, 2))
    M2 = Mat2Algebra(QQ)
    singular_block = CompMatrix(M2, [[M2.element((1, 0, 0, 0))]])
    assert not is_invertible(singular_block)


def test_invertibility_paths_agree_on_split_f3():
    # every 2 x 2 matrix over the seven sample entries: det L(Z), the flattening
    # and the doubling representation give one verdict
    split3 = QuatAlgebra(F3, 1, -1)
    sample = [
        split3.element((1, 0, 0, 0)),
        split3.element((0, 1, 0, 0)),
        split3.element((1, 1, 0, 0)),
        split3.element((0, 0, 1, 2)),
        split3.element((2, 1, 1, 0)),
        split3.element((0, 0, 0, 0)),
        split3.element((1, 2, 0, 1)),
    ]
    verdicts = set()
    for a, b, c, d in product(sample, repeat=4):
        Z = CompMatrix(split3, [[a, b], [c, d]])
        verdict = is_invertible(Z)
        assert verdict == (not flatten_split(Z).det().is_zero()), Z.entries
        assert verdict == (not symplectic_rep(Z).det().is_zero()), Z.entries
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "alg",
    [HQ, QuatAlgebra(QQ, 2, 5), QuatAlgebra.split_form(QQ), QuatAlgebra(F3, 1, -1)],
    ids=repr,
)
def test_study_det_is_norm_of_doubling_determinant(alg):
    rng = SplitMix64(16)
    L = alg.quad_subfield()
    sizes = set()
    for _ in range(40):
        n = rng.randint(1, 4)
        Z = random_matrix(alg, n, n, rng, bound=1)
        d = symplectic_rep(Z).det()
        assert L.embed(study_det(Z)) == d * d.conjugate(), Z.entries
        sizes.add(n)
    assert sizes == {1, 2, 3, 4}


@pytest.mark.parametrize("field", [PrimeField(2), F3, QQ], ids=repr)
def test_study_det_is_square_of_flattened_determinant(field):
    alg = Mat2Algebra(field)
    rng = SplitMix64(17)
    zero = False
    for _ in range(60):
        n = rng.randint(1, 3)
        Z = random_matrix(alg, n, n, rng, bound=1)
        d = flatten_split(Z).det()
        assert study_det(Z) == d * d, Z.entries
        assert is_invertible(Z) == (not d.is_zero())
        zero = zero or d.is_zero()
    assert zero


def quat_matrix_to_mat2(Z):
    """Oracle: the (1,-1) matrix entry by entry through `quat_to_mat2`."""
    target = Mat2Algebra(Z.ring.field)
    return CompMatrix(target, [[quat_to_mat2(e, target) for e in row] for row in Z.rows])


def test_mat2_quat_matrix_conversions_roundtrip():
    rng = SplitMix64(10)
    quat = QuatAlgebra.split_form(QQ)
    for _ in range(50):
        Z = random_matrix(quat, 2, 2, rng)
        back = mat2_matrix_to_quat(quat_matrix_to_mat2(Z), quat)
        assert back == Z


def _oracle_skew_echelon(A):
    """Test oracle: left row reduction over the division algebra, entry by entry.

    Returns (work rows, pivot column -> pivot row).  Left row operations keep
    the right null space.
    """
    work = [list(row) for row in A.entries]
    pivot_of_col = {}
    rank = 0
    for col in range(A.n):
        pivot_row = next((r for r in range(rank, A.m) if not work[r][col].is_zero()), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [inv * e for e in work[rank]]
        for r in range(A.m):
            if r != rank and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [work[r][j] - factor * work[rank][j] for j in range(A.n)]
        pivot_of_col[col] = rank
        rank += 1
    return work, pivot_of_col


def _oracle_skew_column_rank(A):
    return len(_oracle_skew_echelon(A)[1])


def _oracle_skew_solve(A):
    """First free column one, later free columns zero, first nonzero coefficient one."""
    work, pivot_of_col = _oracle_skew_echelon(A)
    free = next((c for c in range(A.n) if c not in pivot_of_col), None)
    if free is None:
        return None
    sol = [A.algebra.zero()] * A.n
    sol[free] = A.algebra.one()
    for col, prow in pivot_of_col.items():
        sol[col] = -work[prow][free]
    inv = next(c for c in sol if not c.is_zero()).inverse()
    return tuple(c * inv for c in sol)


@pytest.mark.parametrize("alg", [HQ, QuatAlgebra(QQ, 2, 5)], ids=repr)
def test_skew_solve_and_rank_match_row_reduction_oracle(alg):
    rng = SplitMix64(12)
    shapes, full, deficient = set(), 0, 0

    def entry():
        if rng.randint(0, 3) == 0:
            return alg.zero()
        return alg.element([Fraction(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(4)])

    for _ in range(120):
        shape = rng.randint(0, 2)  # 1 x n, m x 1, or m x n
        m = 1 if shape == 0 else rng.randint(1, 4)
        n = 1 if shape == 1 else rng.randint(1, 4)
        if rng.randint(0, 2) == 0:  # a product through a smaller inner size
            inner = rng.randint(1, min(m, n))
            A = CompMatrix(alg, [[entry() for _ in range(inner)] for _ in range(m)])
            Z = A * CompMatrix(alg, [[entry() for _ in range(n)] for _ in range(inner)])
        else:
            Z = CompMatrix(alg, [[entry() for _ in range(n)] for _ in range(m)])
        rank = _oracle_skew_column_rank(Z)
        assert skew_column_rank(Z) == rank, Z.entries
        assert skew_solve(Z) == _oracle_skew_solve(Z), Z.entries
        shapes.add((m == 1, n == 1))
        full += rank == min(m, n)
        deficient += rank < min(m, n)
    assert len(shapes) == 4 and full and deficient


@pytest.mark.parametrize("alg", [HQ, QuatAlgebra(QQ, 2, 5)], ids=repr)
def test_low_rank_combination_matches_row_reduction_oracle(alg):
    # over a division algebra the coefficients are the oracle's kernel vector
    # of the stacked truncations
    rng = SplitMix64(15)
    for _ in range(12):
        m = rng.randint(1, 2)
        n = rng.randint(m, 3)
        d = rng.randint(1, m)
        count = 1 + n * dependence_bound(alg, m, d)
        mats = sample_distinct_matrices(alg, m, n, count, rng.fork(), entry_bound=2)
        stacked = CompMatrix(
            alg, [[Z.entries[i][j] for Z in mats] for i in range(m - d + 1) for j in range(n)]
        )
        assert low_rank_combination(mats, d) == _oracle_skew_solve(stacked), (m, n, d)


def _scalar_det(M):
    """Test oracle: division elimination on Scalars, componentwise over a split k[sqrt(a)]."""
    spec = M.spec
    if isinstance(spec, QuadExt) and spec.split:
        parts = [[split_components(e) for e in row] for row in M.rows]
        d1, d2 = (
            _scalar_det(FieldMatrix(spec.base, [[e[k] for e in row] for row in parts])) for k in (0, 1)
        )
        return from_split_components(spec, d1, d2)
    work = [list(row) for row in M.rows]
    det = spec.one()
    for col in range(M.n):
        pivot_row = next((r for r in range(col, M.n) if not work[r][col].is_zero()), None)
        if pivot_row is None:
            return spec.zero()
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        det = det * work[col][col]
        inv = work[col][col].inverse()
        for r in range(col + 1, M.n):
            factor = work[r][col] * inv
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


DET_SPECS = [
    QQ,
    PrimeField(5),
    QuadExt(QQ, 1),
    QuadExt(PrimeField(5), 4),
    QuadExt(QQ, 2),
    QuadExt(QQ, -1),
    QuadExt(QQ, Fraction(3, 2)),
    QuadExt(PrimeField(7), 3),
    QuadExt(PrimeField(5), 2),
]


@pytest.mark.parametrize("spec", DET_SPECS, ids=repr)
def test_det_matches_scalar_elimination(spec):
    # over a quadratic field `FieldMatrix.det` is `pair_echelon`; the oracle
    # is division elimination on the scalars
    rng = SplitMix64(13)

    def value():
        if rng.randint(0, 2) == 0:
            return 0
        if isinstance(spec, QuadExt):
            if isinstance(spec.base, PrimeField):
                return (rng.randint(0, 4), rng.randint(0, 4))
            return (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))
        if isinstance(spec, PrimeField):
            return rng.randint(0, spec.p - 1)
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    seen = set()
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = [[value() for _ in range(n)] for _ in range(n)]
        kind = rng.randint(0, 3)
        if kind == 0 and n > 1:  # singular: a repeated row
            rows[-1] = list(rows[0])
        elif kind == 1:  # a zero row
            rows[rng.randint(0, n - 1)] = [0] * n
        M = FieldMatrix(spec, rows)
        expected = _scalar_det(M)
        assert M.det() == expected, rows
        seen.add((n == 1, expected.is_zero()))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_skew_solve_equal_columns():
    cols = CompMatrix(HQ, [[HQ.element((1, 2, 0, 1)), HQ.element((1, 2, 0, 1))]])
    sol = skew_solve(cols)
    assert sol == (HQ.one(), -HQ.one())


def test_skew_solve_overdetermined_always_finds_relation():
    rng = SplitMix64(11)
    for _ in range(50):
        A = random_matrix(HQ, 2, 3, rng)
        sol = skew_solve(A)
        assert sol is not None and any(not c.is_zero() for c in sol)


def test_skew_solve_independent_columns():
    ident = CompMatrix.identity(HQ, 3)
    assert skew_solve(ident) is None
    assert skew_column_rank(ident) == 3


def test_skew_solve_rejects_split_algebra():
    split3 = QuatAlgebra(F3, 1, -1)
    with pytest.raises(UnexpectedZeroDivisorError):
        skew_solve(CompMatrix.identity(split3, 2))


def test_shape_errors():
    with pytest.raises(ShapeError):
        FieldMatrix(QQ, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        FieldMatrix(QQ, [[1, 2]]) * FieldMatrix(QQ, [[1, 2]])
    with pytest.raises(ShapeError):
        study_det(CompMatrix(HQ, [[HQ.one(), HQ.one()]]))


F5 = PrimeField(5)
M2F2 = Mat2Algebra(PrimeField(2))
MATRIX_RINGS = [
    (FieldMatrix, QQ, lambda rng: rng.randint(-3, 3)),
    (FieldMatrix, F5, lambda rng: rng.randint(0, 4)),
    (FieldMatrix, QuadExt(QQ, 2), lambda rng: (rng.randint(-3, 3), rng.randint(-3, 3))),
    (FieldMatrix, QuadExt(F5, 4), lambda rng: (rng.randint(0, 4), rng.randint(0, 4))),
    (CompMatrix, HQ, lambda rng: HQ.element([rng.randint(-2, 2) for _ in range(4)])),
    (CompMatrix, M2F2, lambda rng: M2F2.element([rng.randint(0, 1) for _ in range(4)])),
]
MISMATCH = {
    FieldMatrix: (FieldMismatchError, "matrices over different fields"),
    CompMatrix: (AlgebraMismatchError, "matrices over different algebras"),
}


@pytest.mark.parametrize(
    "cls, ring, entry", MATRIX_RINGS, ids=[f"{c.__name__}-{r!r}" for c, r, _ in MATRIX_RINGS]
)
def test_matrix_laws_on_field_and_algebra_matrices(cls, ring, entry):
    rng = SplitMix64(31)

    def rand(m, n):
        return cls(ring, [[entry(rng) for _ in range(n)] for _ in range(m)])

    for _ in range(15):
        A, B, C, D = rand(2, 3), rand(2, 3), rand(3, 2), rand(2, 2)
        assert (A + B) - B == A and A + B == B + A
        assert (A + (-A)).is_zero() and A - A == cls.zero(ring, 2, 3)
        assert cls.identity(ring, 2) * A == A == A * cls.identity(ring, 3)
        assert (A * C) * D == A * (C * D)
        assert (A * C).is_square() and not A.is_square()
        for result in (A + B, A - B, -A, A * C, A.submatrix((1,), (2, 0))):
            assert type(result) is cls and result.ring == ring
        sub = A.submatrix((1,), (2, 0))
        assert (sub.m, sub.n) == (1, 2) and sub.rows == ((A[1, 2], A[1, 0]),)
        twin = cls(ring, [list(row) for row in A.rows])
        assert twin == A and hash(twin) == hash(A) and len({twin, A}) == 1
        assert A + cls(ring, [[ring.one()] * 3] * 2) != A
    assert isinstance(A.rows, tuple) and all(isinstance(row, tuple) for row in A.rows)
    if cls is FieldMatrix:
        assert A.spec is A.ring
    else:
        assert A.algebra is A.ring and A.entries is A.rows
    for name in ("rows", "ring", "m", "spec" if cls is FieldMatrix else "entries"):
        with pytest.raises(AttributeError, match=f"{cls.__name__} is immutable"):
            setattr(A, name, None)

    error, message = MISMATCH[cls]
    with pytest.raises(error, match=message):
        A + ring.one()
    for other_cls, other_ring, other_entry in MATRIX_RINGS:
        if other_ring == ring:
            continue
        X = other_cls(other_ring, [[other_entry(rng) for _ in range(3)] for _ in range(2)])
        assert A != X
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(error, match=message):
                op(A, X)
        with pytest.raises(error, match=message):
            A * other_cls(other_ring, [[other_entry(rng)] for _ in range(3)])
        if cls is CompMatrix and other_cls is CompMatrix:
            with pytest.raises(AlgebraMismatchError, match="entry from a different algebra"):
                CompMatrix(ring, [[other_ring.one()]])

    with pytest.raises(ShapeError, match="addition needs equal shapes"):
        A + C
    with pytest.raises(ShapeError, match="subtraction needs equal shapes"):
        A - C
    with pytest.raises(ShapeError, match="cannot multiply 2x3 by 2x3"):
        A * B
    with pytest.raises(ShapeError, match="ragged rows"):
        cls(ring, [[entry(rng), entry(rng)], [entry(rng)]])
    with pytest.raises(ShapeError, match="dimensions must be positive"):
        cls(ring, [])


def _lrep_by_products(Z):
    """L(Z) from its definition: z_l * c at (4i + t, 4j + k), each a base-field product."""
    alg, f = Z.ring, Z.ring.field
    out = [[f._coerce(0)] * (4 * Z.n) for _ in range(4 * Z.m)]
    for i, row in enumerate(Z.rows):
        for j, z in enumerate(row):
            for l, terms in enumerate(alg._terms):
                for k, (t, c) in enumerate(terms):
                    if c and z.coeffs[l]:
                        out[4 * i + t][4 * j + k] = f._mul(z.coeffs[l], c)
    return out


LREP_ALGEBRAS = [
    QuatAlgebra(QQ, 2, 5),
    QuatAlgebra(QQ, Fraction(1, 2), 3),
    HQ,
    QuatAlgebra(QQ, 1, -1),
    QuatAlgebra(PrimeField(7), 3, -1),
    Mat2Algebra(PrimeField(7)),
]


@pytest.mark.parametrize("alg", LREP_ALGEBRAS, ids=repr)
def test_integer_left_regular_rep_gives_the_fraction_answers(alg, lz):
    # L(Z) and the half-size matrix hold ints for integral values; the verdicts
    # read off L(Z) are those read off L(Z) built from Fraction products, and
    # the library's, read off the half-size matrix, are the same
    rng = SplitMix64(sum(map(ord, repr(alg))))

    def entry():
        return alg.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])

    cases = []
    for _ in range(10):
        n = rng.randint(1, 3)
        if rng.randint(0, 1) and n > 1:
            r = rng.randint(1, n - 1)
            A = CompMatrix(alg, [[entry() for _ in range(r)] for _ in range(n)])
            Z = A * CompMatrix(alg, [[entry() for _ in range(n)] for _ in range(r)])
        else:
            Z = CompMatrix(alg, [[entry() for _ in range(n)] for _ in range(n)])
        cases.append(Z)
    cases.append(CompMatrix(alg, [[alg.element((1, -2, 3, 0)), alg.zero()], [alg.one(), alg.element((0, 0, 5, -1))]]))
    for Z in cases:
        L = lz.left_regular_rep(Z)
        assert L == _lrep_by_products(Z)
        assert all(type(v) is int for row in L for v in row if v.denominator == 1)
        raw = matrices._raw(Z)
        H, a = matrices._half(alg, raw)
        values = [x for row in H for e in row for x in (e if a is not None else (e,))]
        if all(type(x) is int for row in raw for e in row for x in e):
            assert all(type(v) is int for v in values)

    def answers(lrep):
        return [(lz.study_det(Z, lrep), lz.comp_rank(Z, lrep)) for Z in cases]

    expected = answers(_lrep_by_products)
    assert answers(lz.left_regular_rep) == expected
    assert [(study_det(Z), comp_rank(Z)) for Z in cases] == expected
    assert [is_invertible(Z) for Z in cases] == [not d.is_zero() for d, _ in expected]
    if alg.is_split_decision() == NONSPLIT:
        assert [skew_column_rank(Z) for Z in cases] == [r for _, r in expected]


def test_field_echelon_agrees_on_int_fraction_and_mixed_rows():
    rng = SplitMix64(83)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2 and rng.randint(0, 1):
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        frozen = [list(row) for row in rows]
        def run(rows):
            pivots, det, kernel = field_echelon(rows, QQ)
            return pivots, det, kernel()

        as_int = run(rows)
        assert rows == frozen  # int rows are copied, not eliminated in place
        as_fraction = run([[Fraction(x) for x in row] for row in rows])
        mixed = run([[Fraction(x) if (i + j) % 2 else x for j, x in enumerate(row)] for i, row in enumerate(rows)])
        by_rows = run([[Fraction(x) for x in row] if i % 2 else row for i, row in enumerate(rows)])
        assert as_int == as_fraction == mixed == by_rows
        pivots, det, kernel = as_int
        assert kernel is None or all(type(v) is Fraction for v in kernel)
        if nrows == ncols:
            assert type(det) is Fraction
            # a Fraction row scales the determinant; the int rows around it add nothing
            halved = [[Fraction(x, 2) for x in rows[0]]] + rows[1:]
            assert field_echelon(halved, QQ)[1] == det / 2


def test_determinants_and_verdicts_never_run_the_kernel(monkeypatch):
    # field_echelon's back substitution runs only for a caller that asks for a kernel vector
    echelon = matrices.field_echelon

    def no_kernel(rows, spec):
        pivots, det, _ = echelon(rows, spec)

        def kernel():
            raise AssertionError("kernel vector asked for")

        return pivots, det, kernel

    for module in (matrices, ratlin):
        monkeypatch.setattr(module, "field_echelon", no_kernel)
    singular = [[1, 2, 0], [2, 4, 0], [0, 1, 3]]
    assert ratlin.det(singular) == 0 and IntMatrix(singular).det() == 0
    assert all(FieldMatrix(spec, singular).det().is_zero() for spec in (QQ, PrimeField(7)))
    for alg in (Mat2Algebra(QQ), Mat2Algebra(PrimeField(7)), QuatAlgebra(QQ, 1, -1)):
        if isinstance(alg, Mat2Algebra):
            e11, e22 = alg.element((1, 0, 0, 0)), alg.element((0, 0, 0, 1))
        else:
            e11 = alg.split_witness()
            e22 = alg.v() * e11 * alg.v()
        Z = CompMatrix(alg, [[e11, e22], [e22, e11], [e11, e11]])
        assert comp_rank(Z) == 2 and comp_rank(Z.take_rows(1)) == 0  # the second by the minor search
        assert not study_det(Z.take_rows(2)).is_zero() and not is_invertible(CompMatrix(alg, [[e11]]))
    with pytest.raises(AssertionError, match="kernel vector asked for"):
        ratlin.solve_square([[1, 0], [0, 1]], [1, 1])


AGREEMENT_ALGEBRAS = [
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


@pytest.mark.parametrize("alg", AGREEMENT_ALGEBRAS, ids=repr)
def test_half_size_verdicts_match_the_lz_oracle(alg, lz):
    # 230 seeded square matrices per algebra (2,070 in all): the Study
    # determinant and invertibility from the half-size matrix are those of
    # L(Z); over a division algebra so is the skew rank of a rectangular one
    rng = SplitMix64(sum(map(ord, repr(alg))) + 51)
    division = alg.is_split_decision() == NONSPLIT
    verdicts, ranks = set(), set()
    for _ in range(230):
        n = rng.randint(1, 3)
        Z = lz.matrix(alg, n, n, rng)
        expected = lz.study_det(Z)
        assert study_det(Z) == expected, Z.entries
        assert is_invertible(Z) == (not expected.is_zero()), Z.entries
        verdicts.add(expected.is_zero())
        if division:
            A = lz.matrix(alg, rng.randint(1, 3), rng.randint(1, 3), rng)
            ranks.add(expected_rank := lz.skew_column_rank(A))
            assert skew_column_rank(A) == expected_rank, A.entries
    assert verdicts == {True, False}
    assert not division or ranks == {0, 1, 2, 3}


DIVISION_ALGEBRAS = [
    HQ,
    QuatAlgebra(QQ, 2, 5),
    QuatAlgebra(QQ, -2, -5),
    QuatAlgebra(QQ, -1, 3),
    QuatAlgebra(QQ, Fraction(-1, 3), Fraction(5, 2)),
    QuatAlgebra(QQ, Fraction(7, 4), Fraction(-3, 5)),
]


@pytest.mark.parametrize("alg", DIVISION_ALGEBRAS, ids=repr)
def test_skew_kernel_matches_the_lz_oracle(alg, lz, monkeypatch):
    # 350 seeded matrices per algebra (2,100 in all), 1 x n, m x 1 and m x n,
    # with zero columns and low-rank products: the kernel vector read off the
    # half-size matrix is the first kernel vector of L(A), and skew_solve and
    # low_rank_combination give what they give with the kernel of L(A)
    assert alg.is_split_decision() == NONSPLIT
    rng = SplitMix64(sum(map(ord, repr(alg))) + 53)
    cases, seen = [], set()
    for _ in range(350):
        shape = rng.randint(0, 2)  # 1 x n, m x 1, or m x n
        m = 1 if shape == 0 else rng.randint(1, 3)
        n = 1 if shape == 1 else rng.randint(1, 4)
        A = lz.matrix(alg, m, n, rng)
        if rng.randint(0, 3) == 0:
            c = rng.randint(0, n - 1)
            A = CompMatrix(alg, [[alg.zero() if j == c else e for j, e in enumerate(row)] for row in A.rows])
        raw = matrices._raw(A)
        kernel = lz.skew_kernel(alg, raw)
        assert matrices._skew_kernel(alg, raw) == kernel, A.entries
        zero_column = any(all(A[i, j].is_zero() for i in range(m)) for j in range(n))
        seen.update({("shape", m == 1, n == 1), ("kernel", kernel is not None), ("zero column", zero_column)})
        cases.append((A, skew_solve(A)))
    families = []
    for m, n, d in [(1, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2)]:
        mats = sample_distinct_matrices(alg, m, n, 1 + n * dependence_bound(alg, m, d), rng.fork(), entry_bound=2)
        families.append((mats, d, low_rank_combination(mats, d)))
    monkeypatch.setattr(matrices, "_skew_kernel", lz.skew_kernel)
    for A, solution in cases:
        assert skew_solve(A) == solution, A.entries
    for mats, d, coeffs in families:
        assert low_rank_combination(mats, d) == coeffs, d
    shapes = {("shape", one_row, one_column) for one_row in (True, False) for one_column in (True, False)}
    assert seen == shapes | {(k, v) for k in ("kernel", "zero column") for v in (True, False)}
    assert sum(solution is None for _, solution in cases) >= 20


@pytest.mark.parametrize(
    "spec",
    [QuadExt(QQ, 2), QuadExt(QQ, -1), QuadExt(QQ, Fraction(3, 2)), QuadExt(QQ, Fraction(-5, 3)),
     QuadExt(PrimeField(7), 3), QuadExt(PrimeField(5), 2), QuadExt(PrimeField(11), 7)],
    ids=repr,
)
def test_pair_kernel_is_the_first_kernel_vector(spec):
    # on seeded matrices over k(sqrt(a)): H*u = 0, u is 1 at the first non-pivot
    # column and 0 after it, and u is None exactly when every column is a pivot
    assert not spec.split
    rng = SplitMix64(sum(map(ord, repr(spec))) + 54)
    p = spec.characteristic

    def value():
        if rng.randint(0, 2) == 0:
            return (0, 0)
        if p:
            return (rng.randint(0, p - 1), rng.randint(0, p - 1))
        return (Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), rng.randint(1, 2)))

    outcomes = set()
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        M = FieldMatrix(spec, [[value() for _ in range(n)] for _ in range(m)])
        if min(m, n) > 1 and rng.randint(0, 2) == 0:  # a product through a smaller inner size
            inner = rng.randint(1, min(m, n) - 1)
            M = FieldMatrix(spec, [[value() for _ in range(inner)] for _ in range(m)]) * FieldMatrix(
                spec, [[value() for _ in range(n)] for _ in range(inner)]
            )
        H = [[e.raw for e in row] for row in M.rows]
        pivots, _, kernel = matrices.pair_echelon(H, spec.base, spec.a)
        u = kernel()
        assert (u is None) == (len(pivots) == n), H
        outcomes.add(u is None)
        if u is not None:
            c = next(i for i in range(n) if i not in pivots)
            assert u[c] == (1, 0) and all(x == (0, 0) for x in u[c + 1 :]), H
            assert (M * FieldMatrix(spec, [[x] for x in u])).is_zero(), H
    assert outcomes == {True, False}


def test_pair_kernel_divides_by_a_unit_pivot_of_norm_one(lz):
    # over (2,7)_QQ the first pivot of the doubling matrix is 3 + 2*sqrt(2), of
    # norm 1 but not 1: the next step must still divide by it
    alg = QuatAlgebra(QQ, 2, 7)
    Z = CompMatrix(alg, [[alg.element((3, 2, 0, 0)), alg.v()], [alg.u(), alg.one()]])
    H, a = matrices._half(alg, matrices._raw(Z))
    assert a == 2 and H[0][0] == (3, 2)
    assert study_det(Z) == QQ.element(225) == lz.study_det(Z)
    assert matrices.pair_echelon(H, QQ, a)[1] == (15, 0)
    # and the back substitution of [[3 + 2u, 1 + v]] must divide by that pivot
    Z = CompMatrix(alg, [[alg.element((3, 2, 0, 0)), alg.element((1, 0, 1, 0))]])
    H, a = matrices._half(alg, matrices._raw(Z))
    pivots, _, kernel = matrices.pair_echelon(H, QQ, a)
    assert H[0][0] == (3, 2) and pivots == [0, 1]
    assert kernel() == [(-3, 2), (21, 14), (1, 0), (0, 0)]  # u[0] = -1 / (3 + 2*sqrt(2))


def test_study_det_and_invertibility_need_no_split_decision(lz):
    alg = QuatAlgebra(QQ, 1_000_003 * 1_000_033, 5)  # its split decision is infeasible
    Z = CompMatrix(alg, [[alg.one(), alg.u()], [alg.v(), alg.w()]])
    assert study_det(Z) == lz.study_det(Z) and is_invertible(Z)
    assert alg._split_state is None


def test_half_size_checks_fail_on_a_broken_builder(monkeypatch):
    # each check on the half-size matrix H rejects a builder that breaks it
    half = matrices._half

    def drop_last_row(algebra, rows):  # one pivot over a division algebra: half a pair
        H, a = half(algebra, rows)
        return H[:-1], a

    def block_layout(algebra, rows):  # columns j, n + j apart, as in `symplectic_rep`
        H, a = half(algebra, rows)
        n = len(H[0]) // 2
        return [[row[2 * j + c] for c in (0, 1) for j in range(n)] for row in H], a

    def sqrt_a_determinant(algebra, rows):  # det H = sqrt(a)
        return [[(0, 1), (0, 0)], [(0, 0), (1, 0)]], algebra.a.raw

    row = CompMatrix(HQ, [[HQ.one(), HQ.zero()]])
    assert comp_rank(row) == skew_column_rank(row) == 1
    one = CompMatrix(HQ, [[HQ.one()]])
    assert study_det(one) == QQ.one()
    cases = [
        (drop_last_row, lambda: comp_rank(row), "not whole pairs"),
        (block_layout, lambda: skew_column_rank(row), "not whole pairs"),
        (block_layout, lambda: skew_solve(row), "not whole pairs"),
        (sqrt_a_determinant, lambda: study_det(one), "nonzero sqrt\\(a\\) part"),
        (sqrt_a_determinant, lambda: is_invertible(one), "nonzero sqrt\\(a\\) part"),
    ]
    for builder, call, message in cases:
        with monkeypatch.context() as patch:
            for module in (matrices, rank):  # comp_rank builds H through rank's own binding
                patch.setattr(module, "_half", builder)
            with pytest.raises(AssertionError, match=message):
                call()
