"""The L(Z) oracle shared by the matrix and rank tests.

L(Z) is the 4m x 4n base-field matrix of X -> Z*X (`left_regular_rep`).
The library answers from the 2m x 2n half-size matrix; these answers are
read off L(Z) instead: det L(Z) is the Study determinant, rank_k L(Z) / 4
the rank over a division algebra, and over a split algebra the minors are
searched by det L.
"""

from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import pytest

from compalg.fields import PrimeField, Scalar
from compalg.matrices import CompMatrix, field_echelon, left_regular_rep
from compalg.quaternion import NONSPLIT


def lz_study_det(Z, lrep=left_regular_rep):
    return Scalar(Z.ring.field, field_echelon(lrep(Z), Z.ring.field)[2])


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


@pytest.fixture
def lz():
    """The oracle's answers and its seeded matrices."""
    return SimpleNamespace(
        study_det=lz_study_det,
        comp_rank=lz_comp_rank,
        skew_column_rank=lz_skew_column_rank,
        matrix=agreement_matrix,
    )
