"""The L(Z) oracle shared by the matrix and rank tests.

L(Z) is the 4m x 4n base-field matrix of X -> Z*X (`left_regular_rep`).
The library answers and solves from the 2m x 2n half-size matrix and never
builds L(Z); these answers are read off L(Z) instead: det L(Z) is the Study
determinant, rank_k L(Z) / 4 the rank over a division algebra, and over a
split algebra the minors are searched by det L.  Over a division algebra the
first kernel vector of L(A) is the coefficient vector of `skew_solve`'s core.

`minor_search_rank` is the element-based minor search: each minor is built
as its own `CompMatrix` and decided by `is_invertible`.

The `canonical` fixture, used by the field and element tests, checks the raw
value convention of `compalg.fields`.  The `table` fixture is the oracle of
the straight-line products: each algebra's table of single terms, with the
(a,b) table evaluated from the symbolic `_QUAT_TERMS`, and the product that
walks it entry by entry in field arithmetic.
"""

from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from compalg.fields import PrimeField, Scalar
from compalg.errors import InfeasibleError
from compalg.matrices import CompMatrix, _half, _half_echelon, _raw, _whole_pairs, field_echelon, is_invertible
from compalg.quaternion import _QUAT_TERMS, NONSPLIT, QuatAlgebra


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
