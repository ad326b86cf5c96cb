from itertools import permutations

import pytest

from compalg import zmodule
from compalg.errors import TruncationError
from compalg.rng import SplitMix64
from compalg.zmodule import (
    IntMatrix,
    build_localization_model,
    invariant_factors,
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
        Bt, At = IntMatrix(list(zip(*B.rows))), IntMatrix(list(zip(*A.rows)))
        assert (Bt * At).rows == tuple(map(tuple, dense_product(Bt, At)))


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
    for n in (0, -1):
        with pytest.raises(ValueError, match="need n >= 1"):
            build_localization_model(n, 3, ())


def rank(A):
    """The rank of an integer matrix: the count of its invariant factors."""
    return len(invariant_factors(A))


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
    with pytest.raises(ValueError, match=r"\[0\]\[0\]"):
        IntMatrix([[bad]])


def test_snf_triple_and_products_equal_checked_matrices():
    # the Smith triple and products skip re-validation; they must be the
    # same values a checked construction gives
    rng = SplitMix64(44)
    for _ in range(20):
        A = random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for M in (*smith_normal_form(A), A * random_int_matrix(rng, A.n, 3)):
            assert M == IntMatrix([list(r) for r in M.rows]) and hash(M) == hash(IntMatrix(M.rows))
            assert (M.m, M.n) == (len(M.rows), len(M.rows[0]))
            assert all(type(r) is tuple and all(type(e) is int for e in r) for r in M.rows)
    assert not IntMatrix([[0, 1]]).is_zero() and IntMatrix([[0], [0]]).is_zero()


# the ids keep each product's case name from when the certificate also
# formed (U*A)*V, which was target1
@pytest.mark.parametrize("target,message", [
    pytest.param((2, 2, 3), "factorization failed", id="target0-factorization failed"),  # U*A, checked against D*V^-1
    pytest.param((2, 2, 2), "not unimodular", id="target2-not unimodular"),  # U*U^-1
    pytest.param((3, 3, 3), "not unimodular", id="target3-not unimodular"),  # V*V^-1
])
def test_snf_certificate_checks_each_product(monkeypatch, target, message):
    # with A 2 x 3 the three certificate products have distinct shapes
    # (rows of a, rows of b, width); a wrong entry in any one is caught
    original = zmodule._mul_rows

    def corrupt(a, b, width):
        out = original(a, b, width)
        if (len(a), len(b), width) == target:
            out[0][0] += 1
        return out

    monkeypatch.setattr(zmodule, "_mul_rows", corrupt)
    with pytest.raises(AssertionError, match=message):
        smith_normal_form(IntMatrix([[2, 4, 4], [-6, 6, 12]]))


@pytest.mark.parametrize("d", [
    [[1, 1], [0, 1]],  # not diagonal
    [[1, 0], [0, 1], [1, 0]],  # nonzero below the diagonal
    [[2, 0], [0, 3]],  # 2 does not divide 3
    [[0, 0], [0, 1]],  # a zero before a nonzero factor
    [[1, 0], [0, -1]],  # a negative factor
])
def test_snf_certificate_rejects_a_factorization_that_is_not_a_smith_form(d):
    # U = V = I and A = D: every product of the certificate holds, so only
    # the diagonal and divisibility check can refuse
    I_m, I_n = zmodule._identity_rows(len(d)), zmodule._identity_rows(len(d[0]))
    with pytest.raises(AssertionError, match=r"not diagonal with d1 \| d2"):
        zmodule._certify(d, I_m, I_m, d, I_n, I_n, I_m, I_n)
    I_2 = zmodule._identity_rows(2)
    zmodule._certify([[1, 0], [0, 6]], I_2, I_2, [[1, 0], [0, 6]], I_2, I_2, I_2, I_2)


def _parent_smith_normal_form(A):
    """Test oracle: the elimination as it ran before the active-block version,
    every column operation applied to all rows of D and V stored by rows, and
    the clearing loops over every position; its certificate is left out."""
    m, n = A.m, A.n
    d = [list(row) for row in A.rows]
    u, v = _identity(m), _identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best, least = None, 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        return best
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        while True:
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            if d[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(m):
                if i != t and d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // d[t][t]))
                    dirty = dirty or d[i][t] != 0
            for j in range(n):
                if j != t and d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // d[t][t]))
                    dirty = dirty or d[t][j] != 0
            if not dirty and all(d[i][t] == 0 for i in range(m) if i != t) and all(
                d[t][j] == 0 for j in range(n) if j != t
            ):
                break
            pivot = find_pivot(t)
        offender = None
        if d[t][t] != 1:
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    return u, d, v


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _oracle_cases():
    """2,100 seeded matrices from 1 x 1 to 7 x 7 in four families, then the
    hand-picked cases."""
    rng = SplitMix64(2020)
    for k in range(2100):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        if k % 4 == 0:  # small entries: many units, ties and negative pivots
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        elif k % 4 == 1:  # a signed diagonal, which the divisibility fold must repair
            rows = [[rng.randint(-12, 12) if i == j else 0 for j in range(n)] for i in range(m)]
        elif k % 4 == 2:  # rows and columns scaled apart: non-unit pivots
            a = [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(m)]
            b = [rng.choice((1, 2, 3, 5)) for _ in range(n)]
            rows = [[a[i] * b[j] * rng.randint(-4, 4) for j in range(n)] for i in range(m)]
        else:  # wide entries with one row and one column zeroed
            rows = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(m)]
            zero_row, zero_col = rng.randint(0, m - 1), rng.randint(0, n - 1)
            rows[zero_row] = [0] * n
            for row in rows:
                row[zero_col] = 0
        yield IntMatrix(rows)
    for rows in (
        [[2, 0], [0, 3]],
        [[4, 0, 0], [0, 6, 0], [0, 0, 10]],
        [[-2, 4], [6, -3]],
        [[0, 0, 0], [0, -5, 0]],
        [[0]],
        [[-7]],
        [[2, 4, 4], [-6, 6, 12]],
    ):
        yield IntMatrix(rows)


def _localization_maps():
    for n in range(1, 7):
        count = 2 * n - 1
        for s_max in (count, count + 2):
            for signs in ((1,) * count, tuple((-1) ** i for i in range(count))):
                model = build_localization_model(n, s_max, signs)
                yield model.boundary
                yield model.projection
    model = build_localization_model(10, 60, tuple((-1) ** (i // 2) for i in range(19)))
    yield model.boundary
    yield model.projection


def test_snf_returns_the_parent_triple_on_every_oracle_input():
    cases = list(_oracle_cases()) + list(_localization_maps())
    assert len(cases) >= 2000
    folded = 0
    for A in cases:
        U, D, V = smith_normal_form(A)
        u, d, v = _parent_smith_normal_form(A)
        assert (U.rows, D.rows, V.rows) == tuple(tuple(map(tuple, x)) for x in (u, d, v)), A
        diag = [d[i][i] for i in range(min(A.m, A.n))]
        folded += sorted(map(abs, diag)) != sorted(
            abs(A.rows[i][i]) for i in range(min(A.m, A.n))
        ) and all(x == 0 for i, row in enumerate(A.rows) for j, x in enumerate(row) if i != j)
    # the diagonal family reaches the divisibility fold many times
    assert folded >= 100


def test_int_matrix_repr_and_indexing_are_pinned():
    M = IntMatrix([[1, -2], [3, 4]])
    assert repr(M) == "IntMatrix([[1, -2], [3, 4]])"
    assert [M[i, j] for i in range(2) for j in range(2)] == [1, -2, 3, 4]
    with pytest.raises(IndexError):
        M[2, 0]
