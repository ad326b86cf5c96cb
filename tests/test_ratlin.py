from fractions import Fraction

from compalg.ratlin import solve_square
from compalg.rng import SplitMix64


def _apply(A, x):
    return [sum(Fraction(a) * v for a, v in zip(row, x)) for row in A]


def test_solve_square_solves_nonsingular_systems():
    rng = SplitMix64(43)
    solved = 0
    for n in range(1, 6):
        for _ in range(20):
            A = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)
            ]
            if n > 1:
                A[0][0] = 0  # a zero leading pivot forces a row swap
            b = [rng.randint(-5, 5) for _ in range(n)]
            x = solve_square(A, b)
            if x is not None:
                solved += 1
                assert len(x) == n and _apply(A, x) == b
    assert solved >= 80
    assert solve_square([[0, 1], [1, 0]], [2, 3]) == [3, 2]
    assert solve_square([[2]], [1]) == [Fraction(1, 2)]


def test_solve_square_returns_none_for_singular_systems():
    rng = SplitMix64(44)
    for n in range(2, 6):
        for _ in range(10):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
            A = rows + [[a - 2 * c for a, c in zip(rows[0], rows[-1])]]
            inside = _apply(A, [rng.randint(-3, 3) for _ in range(n)])
            outside = inside[:-1] + [inside[-1] + 1]
            assert solve_square(A, inside) is None  # b in the column space
            assert solve_square(A, outside) is None  # b's column becomes a pivot
    assert solve_square([[0, 0], [0, 0]], [0, 1]) is None
    assert solve_square([[0]], [0]) is None
