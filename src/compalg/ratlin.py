"""Small exact linear-algebra helpers over `fractions.Fraction` rows."""

from fractions import Fraction

from .fields import QQ
from .matrices import field_echelon, field_rank


def solve_square(A, b):
    """Solution of A x = b for square A, or None when A is singular."""
    n = len(A)
    work = [[Fraction(x) for x in row] + [Fraction(v)] for row, v in zip(A, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [e * inv for e in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * c for a, c in zip(work[r], work[col])]
    return [work[r][n] for r in range(n)]


def det(A) -> Fraction:
    return field_echelon([[Fraction(x) for x in row] for row in A], QQ)[2]


def nullity(A, ncols) -> int:
    """Dimension of the kernel of the column action of A (rows of length ncols)."""
    return ncols - field_rank(A, QQ)
