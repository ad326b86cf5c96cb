from itertools import permutations

import pytest

from compalg import zmodule
from compalg.errors import TruncationError
from compalg.rng import SplitMix64
from compalg.zmodule import (
    IntMatrix,
    build_localization_model,
    invariant_factors,
    rank,
    sequence_checks,
    smith_normal_form,
)


def random_int_matrix(rng, m, n, bound=9):
    return IntMatrix([[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def random_unimodular(rng, n, steps=12):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        rows[i] = [a + q * b for a, b in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def random_sparse_01(rng, m, n, density=6):
    """0/1 matrix with about one entry in `density` set, like the model's maps."""
    return IntMatrix([[1 if rng.randint(1, density) == 1 else 0 for _ in range(n)] for _ in range(m)])


def dense_product(A, B):
    return [[sum(A.rows[i][k] * B.rows[k][j] for k in range(A.n)) for j in range(B.n)] for i in range(A.m)]


def assert_smith_triple(A, U, D, V):
    assert U * A * V == D
    assert abs(U.det()) == 1 and abs(V.det()) == 1
    diag = [D.rows[i][i] for i in range(min(A.m, A.n))]
    assert all(D.rows[i][j] == 0 for i in range(A.m) for j in range(A.n) if i != j)
    nonzero = [x for x in diag if x != 0]
    assert all(x > 0 for x in nonzero) and diag[: len(nonzero)] == nonzero
    assert all(nonzero[i] % nonzero[i - 1] == 0 for i in range(1, len(nonzero)))


def test_snf_identity():
    U, D, V = smith_normal_form(IntMatrix.identity(3))
    assert D == IntMatrix.identity(3)


def test_snf_diag_2_3():
    A = IntMatrix([[2, 0], [0, 3]])
    U, D, V = smith_normal_form(A)
    assert D == IntMatrix([[1, 0], [0, 6]])
    assert U * A * V == D


def test_snf_zero_matrix():
    A = IntMatrix.zero(2, 3)
    _, D, _ = smith_normal_form(A)
    assert D.is_zero()


def test_snf_random_properties():
    rng = SplitMix64(41)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_int_matrix(rng, m, n)
        assert_smith_triple(A, *smith_normal_form(A))


@pytest.mark.parametrize("shape", [(40, 11), (29, 40), (12, 12), (7, 30)])
def test_snf_sparse_and_dense_up_to_model_shapes(shape):
    m, n = shape
    rng = SplitMix64(m * 100 + n)
    for A in (random_sparse_01(rng, m, n), random_sparse_01(rng, m, n, density=2)):
        assert_smith_triple(A, *smith_normal_form(A))
    small = random_int_matrix(rng, min(m, 12), min(n, 12), bound=5)
    assert_smith_triple(small, *smith_normal_form(small))


def test_product_skips_zeros_without_changing_the_result():
    rng = SplitMix64(43)
    for _ in range(30):
        m, k, n = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        A = random_sparse_01(rng, m, k, density=3)
        B = random_int_matrix(rng, k, n)
        assert (A * B).rows == tuple(map(tuple, dense_product(A, B)))
        assert (B.transpose() * A.transpose()).rows == tuple(map(tuple, dense_product(B.transpose(), A.transpose())))


def test_localization_model_factors_each_matrix_once(monkeypatch):
    calls = []
    original = zmodule.smith_normal_form

    def counting(A):
        calls.append((A.m, A.n))
        return original(A)

    monkeypatch.setattr(zmodule, "smith_normal_form", counting)
    model = build_localization_model(3, 8, (1, -1, 1, 1, -1))
    assert model.checks.all_true()
    # exactness is read off the Smith forms of f and g: no kernel basis, no solve
    assert calls == [(16, 5), (11, 16)]


def test_localization_model_n10_smax60_is_sign_independent():
    plus = build_localization_model(10, 60, (1,) * 19)
    mixed = build_localization_model(10, 60, tuple((-1) ** i for i in range(19)))
    expected = {
        "delta_injective": True,
        "cokernel_torsion_free": True,
        "exact_middle": True,
        "surjective_quotient": True,
        "splits": True,
        "middle_rank": 120,
    }
    assert plus.verdict() == mixed.verdict() == expected
    assert invariant_factors(plus.boundary) == invariant_factors(mixed.boundary) == (1,) * 19


def test_sequence_checks_split_example():
    f = IntMatrix([[1], [0]])  # include first coordinate of Z^2
    g = IntMatrix([[0, 1]])  # project to the second
    checks = sequence_checks(f, g)
    assert checks.all_true()


def test_sequence_checks_torsion_cokernel():
    f = IntMatrix([[2]])
    g = IntMatrix([[0]])
    checks = sequence_checks(f, g)
    assert checks.injective_f
    assert not checks.splits
    assert not checks.exact_middle


def test_sequence_checks_rank_deficit_is_not_exact():
    # g*f = 0 and coker f is torsion-free, but im f misses the third coordinate of ker g
    checks = sequence_checks(IntMatrix([[1], [0], [0]]), IntMatrix([[0, 1, 0]]))
    assert checks.injective_f and checks.surjective_g and checks.splits
    assert not checks.exact_middle


def test_sequence_checks_random_constructed():
    rng = SplitMix64(42)
    for _ in range(20):
        b = rng.randint(2, 5)
        a = rng.randint(1, b - 1)
        P = random_unimodular(rng, b)
        Pinv = _inverse_unimodular(P)
        f = IntMatrix([row[:a] for row in P.rows])
        g = IntMatrix(Pinv.rows[a:])
        checks = sequence_checks(f, g)
        assert checks.all_true()
        # plant torsion: double the first column of f
        planted = IntMatrix([[2 * row[0]] + list(row[1:]) for row in f.rows])
        torsion = sequence_checks(planted, g)
        assert not torsion.splits and not torsion.exact_middle
        # rank deficit: drop the first column of f (keep at least one)
        if a > 1:
            dropped = sequence_checks(IntMatrix([row[1:a] for row in P.rows]), g)
            assert dropped.splits and not dropped.exact_middle


def _inverse_unimodular(P):
    U, D, V = smith_normal_form(P)
    assert D == IntMatrix.identity(P.n)
    return V * U


def test_localization_model_smallest_case():
    model = build_localization_model(1, 1, (1,))
    assert model.boundary == IntMatrix([[1], [0]])
    assert model.middle_rank == 2
    assert model.verdict()["delta_injective"]
    assert model.verdict()["splits"]


def test_localization_model_checks_and_sign_independence():
    base = build_localization_model(2, 3, (1, 1, 1))
    flipped = build_localization_model(2, 3, (1, -1, 1))
    assert base.checks.all_true() and flipped.checks.all_true()
    assert invariant_factors(base.boundary) == invariant_factors(flipped.boundary)
    assert base.middle_rank == flipped.middle_rank == 6


def test_localization_model_truncation_guard():
    with pytest.raises(TruncationError):
        build_localization_model(2, 2, (1, 1, 1))
    with pytest.raises(ValueError):
        build_localization_model(2, 3, (1, 1))


def test_rank_helper():
    assert rank(IntMatrix([[1, 2], [2, 4]])) == 1
    assert rank(IntMatrix.identity(4)) == 4


def leibniz_det(rows):
    """Test oracle: the permutation sum, with the sign from the inversion count."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_det_matches_leibniz_oracle():
    rng = SplitMix64(41)
    cases = [
        [[7]],
        [[0]],
        [[0, 2], [3, 1]],  # zero leading pivot
        [[0, 0, 1], [0, 2, 0], [3, 0, 0]],
        [[1, 2, 3], [2, 4, 6], [1, 0, 1]],  # singular
        [[0, 1, 2], [0, 3, 4], [0, 5, 6]],  # zero first column
    ]
    for n in range(1, 6):
        for _ in range(12):
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            cases.append(rows)
            if n > 1:
                cases.append([[0] + row[1:] for row in rows])
                cases.append(rows[:-1] + [[a + b for a, b in zip(rows[0], rows[1])]])
    for rows in cases:
        d = IntMatrix(rows).det()
        assert type(d) is int and d == leibniz_det(rows), rows


@pytest.mark.parametrize("bad", [1.5, True, "7"], ids=repr)
def test_int_matrix_rejects_non_int_entries(bad):
    with pytest.raises(ValueError, match=r"\[1\]\[0\]"):
        IntMatrix([[1, 2], [bad, 4]])
