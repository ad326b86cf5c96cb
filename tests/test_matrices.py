from fractions import Fraction
from itertools import product

import pytest

from compalg import matrices, rank
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
    left_regular_rep,
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


@pytest.mark.parametrize(
    "spec", [QQ, PrimeField(5), QuadExt(QQ, 1), QuadExt(PrimeField(5), 4)], ids=repr
)
def test_det_matches_scalar_elimination(spec):
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
def test_integer_left_regular_rep_gives_the_fraction_answers(alg, monkeypatch):
    # L(Z) holds ints for integral values; every verdict read off it must be
    # the one read off L(Z) built from Fraction products
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
        L = left_regular_rep(Z)
        assert L == _lrep_by_products(Z)
        assert all(type(v) is int for row in L for v in row if v.denominator == 1)
    division = alg.is_split_decision() == NONSPLIT

    def answers():
        return [(study_det(Z), is_invertible(Z), comp_rank(Z), division and skew_solve(Z)) for Z in cases]

    expected = answers()
    monkeypatch.setattr(matrices, "left_regular_rep", _lrep_by_products)
    monkeypatch.setattr(rank, "left_regular_rep", _lrep_by_products)
    assert answers() == expected


def test_field_echelon_agrees_on_int_fraction_and_mixed_rows():
    rng = SplitMix64(83)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2 and rng.randint(0, 1):
            rows[-1] = [a - 2 * b for a, b in zip(rows[0], rows[1])]
        frozen = [list(row) for row in rows]
        as_int = field_echelon(rows, QQ)
        assert rows == frozen  # int rows are copied, not eliminated in place
        as_fraction = field_echelon([[Fraction(x) for x in row] for row in rows], QQ)
        mixed = field_echelon([[Fraction(x) if (i + j) % 2 else x for j, x in enumerate(row)] for i, row in enumerate(rows)], QQ)
        by_rows = field_echelon([[Fraction(x) for x in row] if i % 2 else row for i, row in enumerate(rows)], QQ)
        assert as_int == as_fraction == mixed == by_rows
        pivots, kernel, det = as_int
        assert kernel is None or all(type(v) is Fraction for v in kernel)
        if nrows == ncols:
            assert type(det) is Fraction
            # a Fraction row scales the determinant; the int rows around it add nothing
            halved = [[Fraction(x, 2) for x in rows[0]]] + rows[1:]
            assert field_echelon(halved, QQ)[2] == det / 2
