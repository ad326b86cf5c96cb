"""Small exact linear-algebra helpers over `fractions.Fraction` rows."""

from fractions import Fraction

from .fields import QQ
from .matrices import field_echelon, field_rank


def solve_square(A, b):
    """Solution of A x = b for square A, or None when A is singular.

    A is nonsingular exactly when the pivots of [A | b] are the columns of A;
    the kernel vector of [A | b] is then (y, 1) with A y = -b.
    """
    n = len(A)
    rows = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(A, b)]
    pivots, _, kernel = field_echelon(rows, QQ)
    if pivots != list(range(n)):
        return None
    return [-v for v in kernel()[:n]]


def det(A) -> Fraction:
    return field_echelon([[Fraction(x) for x in row] for row in A], QQ)[1]


def nullity(A, ncols) -> int:
    """Dimension of the kernel of the column action of A (rows of length ncols)."""
    return ncols - field_rank(A, QQ)
