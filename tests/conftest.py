"""The L(Z) oracle shared by the matrix and rank tests.

L(Z) is the 4m x 4n base-field matrix of X -> Z*X (`left_regular_rep`).
The library answers and solves from the 2m x 2n half-size matrix and never
builds L(Z); these answers are read off L(Z) instead: det L(Z) is the Study
determinant, rank_k L(Z) / 4 the rank over a division algebra, and over a
split algebra the minors are searched by det L.  Over a division algebra the
first kernel vector of L(A) is the coefficient vector of `skew_solve`'s core.

`minor_search_rank` is the element-based minor search: each minor is built
as its own `CompMatrix` and decided by `is_invertible`.

`gauss_jordan` is the oracle of the two elimination kernels, which share
nothing with it: plain Gauss-Jordan elimination on Fractions, or on pairs
of Fractions x + y*sqrt(a) over Q(sqrt(a)), or on residues mod a prime p.
`as_fractions` reads a kernel vector (numerators, denominator) as Fractions,
and `field_rank` is the pivot count of `field_echelon`.

`combine` and `sample_distinct_matrices` are the element-level forms of the
raw cores `matrices._combine_raw` and `rank._sample`, which only tests use.

The `canonical` fixture, used by the field and element tests, checks the raw
value convention of `compalg.fields`; `assert_normal` checks an element's
integer numerators over one denominator, and `parent_raw` is `matrices._raw`
as it read `Fraction` coordinates before elements held integers, its oracle.  The `table` fixture is the oracle of
the straight-line products: each algebra's table of single terms, with the
(a,b) table evaluated from the symbolic `_QUAT_TERMS`, and the product that
walks it entry by entry in field arithmetic.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from types import SimpleNamespace

import pytest

from compalg.fields import PrimeField, Scalar
from compalg.errors import AlgebraMismatchError, InfeasibleError, ShapeError
from compalg.matrices import CompMatrix, _half, _half_echelon, _raw, _whole_pairs, field_echelon, is_invertible
from compalg.matrices import _combine_raw
from compalg.quaternion import _QUAT_TERMS, NONSPLIT, QuatAlgebra
from compalg.rank import _matrix, _sample


def gauss_jordan(rows, a=0, p=0):
    """(pivots, determinant or None, first kernel vector or None) of rows of
    pairs (x, y) = x + y*sqrt(a) of rationals, or of integers mod a prime p,
    by Gauss-Jordan elimination in the field's own arithmetic.  The kernel
    vector is 1 at the first column c that is not the c-th pivot, 0 after it,
    and minus the reduced column c above it; pairs with y = 0 throughout are
    base-field values, whatever a is."""
    def field(u):
        return (u[0] % p, u[1] % p) if p else u

    def mul(u, v):
        return field((u[0] * v[0] + a * u[1] * v[1], u[0] * v[1] + u[1] * v[0]))

    def inverse(u):
        norm = u[0] * u[0] - a * u[1] * u[1]
        inv = pow(norm, -1, p) if p else 1 / norm
        return field((u[0] * inv, -u[1] * inv))

    work = [[field((x, y)) if p else (Fraction(x), Fraction(y)) for x, y in row] for row in rows]
    nrows, ncols = len(work), len(work[0])
    zero, one = ((0, 0), (1, 0)) if p else ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
    pivots, det = [], one
    for col in range(ncols):
        rank = len(pivots)
        found = [r for r in range(rank, nrows) if any(work[r][col])]
        if not found:
            continue
        r = found[0]
        if r != rank:
            work[rank], work[r] = work[r], work[rank]
            det = field((-det[0], -det[1]))
        det = mul(det, work[rank][col])
        inv = inverse(work[rank][col])
        work[rank] = [mul(inv, v) for v in work[rank]]
        for i in range(nrows):
            if i != rank and any(work[i][col]):
                f = work[i][col]
                work[i] = [field((v[0] - u[0], v[1] - u[1])) for v, u in zip(work[i], [mul(f, t) for t in work[rank]])]
        pivots.append(col)
    c = next((i for i, col in enumerate(pivots) if col != i), len(pivots))
    kernel = None
    if c < ncols:
        kernel = [field((-work[i][c][0], -work[i][c][1])) for i in range(c)] + [one] + [zero] * (ncols - c - 1)
    if nrows != ncols:
        return pivots, None, kernel
    return pivots, det if len(pivots) == ncols else zero, kernel


def field_rank(rows, spec) -> int:
    """Rank of a matrix of raw QQ or GF(p) values: the pivots of `field_echelon`."""
    return len(field_echelon(rows, spec)[0])


def as_fractions(kernel):
    """A kernel vector (numerators, denominator) as Fractions (pairs of them
    over a quadratic field), or None."""
    if kernel is None:
        return None
    y, d = kernel
    return [(Fraction(v[0], d), Fraction(v[1], d)) if type(v) is tuple else Fraction(v, d) for v in y]


def combine(matrices, coeffs) -> CompMatrix:
    """Sum of matrices[i] . coeffs[i] under the right scalar action, by
    `_combine_raw` on the coefficients as integers over their common
    denominator d, each coordinate divided by d * D once."""
    algebra, m, n = matrices[0].ring, matrices[0].m, matrices[0].n
    for Z, q in zip(matrices, coeffs):
        if q.algebra != algebra or type(Z) is not CompMatrix or Z.ring != algebra:
            raise AlgebraMismatchError("matrices and coefficients must share one algebra")
        if (Z.m, Z.n) != (m, n):
            raise ShapeError("combined matrices must share one shape")
    d = lcm(*(y.denominator for q in coeffs for y in q.coeffs))
    ys = [[v.numerator * (d // v.denominator) for v in q.coeffs] for q in coeffs]
    acc = _combine_raw(algebra, [_raw(Z) for Z in matrices], ys)
    return CompMatrix(algebra, [[algebra.element(a).scale(Fraction(1, d * algebra._den)) for a in row] for row in acc])


def sample_distinct_matrices(algebra, m, n, count, rng, entry_bound=3):
    """Pairwise distinct seeded matrices, drawn by `rank._sample`."""
    return [_matrix(algebra, raw) for raw in _sample(algebra, m, n, count, rng, entry_bound)]


def terms_of(algebra):
    """The table of single terms (k, c), e_i*e_j = c*e_k, each c a raw field value;
    over (a,b) the symbolic entry (k, (sign, i, j)) is evaluated to sign*a^i*b^j."""
    if not isinstance(algebra, QuatAlgebra):
        return algebra._terms
    f, a, b = algebra.field, algebra.a.raw, algebra.b.raw
    value = {(0, 0): f._coerce(1), (1, 0): a, (0, 1): b, (1, 1): f._mul(a, b)}
    return [[(k, value[i, j] if sign > 0 else f._neg(value[i, j])) for k, (sign, i, j) in row] for row in _QUAT_TERMS]


def table_product(algebra, x, y):
    """x * y on raw coordinates by a walk over all the table's entries, one field operation at a time."""
    f = algebra.field
    acc = [f._coerce(0)] * algebra.dim
    for i, row in enumerate(terms_of(algebra)):
        for j, (k, c) in enumerate(row):
            acc[k] = f._add(acc[k], f._mul(f._mul(x[i], y[j]), c))
    return tuple(acc)


def left_regular_rep(Z):
    """Raw 4m x 4n base-field matrix of X -> Z*X on column vectors X in C^n.

    Column 4j + k holds the coordinates of Z[:, j] * e_k and row 4i + c the
    coordinate c of entry i, so the table term e_l * e_k = c * e_t puts
    z_l * c at (4i + t, 4j + k).  Integral QQ values are `int`s.
    """
    return regular_rows(Z.ring, _raw(Z))


def regular_rows(algebra, rows):
    """`left_regular_rep` of a raw matrix (`matrices._raw`)."""
    f = algebra.field
    neg, mul, minus_one = f._neg, f._mul, f._neg(f._coerce(1))
    terms = [(l, k, t, 1 if c == 1 else -1 if c == minus_one else c)
             for l, row in enumerate(terms_of(algebra)) for k, (t, c) in enumerate(row) if c]
    out = [[0] * (4 * len(rows[0])) for _ in range(4 * len(rows))]
    for i, row in enumerate(rows):
        for j, coeffs in enumerate(row):
            for l, k, t, c in terms:
                x = coeffs[l]
                if x:
                    v = x if c == 1 else neg(x) if c == -1 else mul(x, c)
                    out[4 * i + t][4 * j + k] = v.numerator if v.denominator == 1 else v
    return out


def lz_skew_kernel(algebra, rows):
    """First kernel vector of L(A) for raw A over a division algebra, or None:
    the column block of a D-column holds four pivots of L(A) or none."""
    pivots, _, kernel = field_echelon(regular_rows(algebra, rows), algebra.field)
    assert pivots == [4 * (col // 4) + k for col in pivots[::4] for k in range(4)]
    return kernel()


def lz_study_det(Z, lrep=left_regular_rep):
    return Scalar(Z.ring.field, field_echelon(lrep(Z), Z.ring.field)[1])


def lz_skew_column_rank(A, lrep=left_regular_rep):
    pivots = field_echelon(lrep(A), A.ring.field)[0]
    assert pivots == [4 * (col // 4) + k for col in pivots[::4] for k in range(4)]
    return len(pivots) // 4


def lz_comp_rank(Z, lrep=left_regular_rep):
    flat = len(field_echelon(lrep(Z), Z.ring.field)[0])
    if flat == 4 * Z.m == 4 * Z.n:
        return Z.n
    if Z.ring.is_split_decision() == NONSPLIT:
        assert flat % 4 == 0
        return flat // 4
    for size in range(min(Z.m, Z.n, flat // 4), 0, -1):
        for rows in combinations(range(Z.m), size):
            for cols in combinations(range(Z.n), size):
                if not lz_study_det(Z.submatrix(rows, cols), lrep).is_zero():
                    return size
    return 0


def minor_search_rank(Z):
    """`comp_rank` by the bound rank H // 2 and a search of element minors."""
    pivots = _half_echelon(Z.ring, *_half(Z.ring, _raw(Z)))[0]
    if len(pivots) == 2 * Z.m == 2 * Z.n:
        return Z.n
    try:
        division = Z.ring.is_split_decision() == NONSPLIT
    except InfeasibleError:
        division = False
    if division:
        return _whole_pairs(pivots)
    for size in range(min(Z.m, Z.n, len(pivots) // 2), 0, -1):
        for rows in combinations(range(Z.m), size):
            for cols in combinations(range(Z.n), size):
                if is_invertible(Z.submatrix(rows, cols)):
                    return size
    return 0


def agreement_matrix(alg, m, n, rng):
    """Seeded m x n matrix: zero, integral and rational entries (over QQ), and
    one time in three a product through a smaller inner size."""
    f = alg.field

    def entry():
        kind = rng.randint(0, 3)
        if kind == 0:
            return alg.zero()
        if isinstance(f, PrimeField):
            return alg.element([rng.randint(0, f.p - 1) for _ in range(4)])
        if kind == 1:
            return alg.element([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)])
        return alg.element([rng.randint(-2, 2) for _ in range(4)])

    if min(m, n) > 1 and rng.randint(0, 2) == 0:
        inner = rng.randint(1, min(m, n) - 1)
        A = CompMatrix(alg, [[entry() for _ in range(inner)] for _ in range(m)])
        return A * CompMatrix(alg, [[entry() for _ in range(n)] for _ in range(inner)])
    return CompMatrix(alg, [[entry() for _ in range(n)] for _ in range(m)])


def assert_canonical(field, values):
    """Raw QQ values are Fractions; raw GF(p) values are ints in [0, p)."""
    for v in values:
        if field.characteristic:
            assert type(v) is int and 0 <= v < field.characteristic, (field, v)
        else:
            assert type(v) is Fraction, (field, v)


@pytest.fixture
def canonical():
    return assert_canonical


def assert_normal(e):
    """e's coordinates num / den are in normal form, and `coeffs` reads them: over QQ
    den > 0 and gcd(den, *num) = 1, over GF(p) den = 1 and num residues in [0, p)."""
    p = e.algebra.field.characteristic
    assert type(e.num) is tuple and all(type(v) is int for v in e.num) and type(e.den) is int, e
    if p:
        assert e.den == 1 and all(0 <= v < p for v in e.num) and e.coeffs == e.num, e
    else:
        assert e.den > 0 and gcd(e.den, *e.num) == 1 and e.coeffs == tuple(Fraction(v, e.den) for v in e.num), e


def parent_raw(Z):
    """The raw matrix read off `Fraction` coordinates: each entry's coordinate
    tuple, row by row, with an integral QQ value as an `int`."""
    return tuple(tuple(tuple(v.numerator if v.denominator == 1 else v for v in e.coeffs) for e in row) for row in Z.rows)


@pytest.fixture
def table():
    """The evaluated tables and the product that walks them."""
    return SimpleNamespace(terms=terms_of, product=table_product)


@pytest.fixture
def lz():
    """The oracle's answers and its seeded matrices."""
    return SimpleNamespace(
        study_det=lz_study_det,
        comp_rank=lz_comp_rank,
        skew_column_rank=lz_skew_column_rank,
        skew_kernel=lz_skew_kernel,
        minor_search_rank=minor_search_rank,
        left_regular_rep=left_regular_rep,
        matrix=agreement_matrix,
    )
