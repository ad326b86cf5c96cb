from itertools import permutations, product

import pytest

from compalg.corpus import corpus_fixtures, load_fixture
from compalg.errors import BoundNotMetError
from compalg.fields import QQ, PrimeField
from compalg.matrices import CompMatrix
from compalg.quaternion import Mat2Algebra, QuatAlgebra
from compalg.rank import (
    combine,
    comp_rank,
    dependence_bound,
    low_rank_combination,
    sample_distinct_matrices,
    verify_span_bound,
)
from compalg.rng import SplitMix64
from compalg.serialize import matrix_from_json
from compalg.matrices import skew_column_rank

HQ = QuatAlgebra(QQ, -1, -1)
F3 = PrimeField(3)


def fixture_matrix(name):
    return matrix_from_json(load_fixture(name)["matrix"])


def test_displayed_rank_examples():
    assert comp_rank(fixture_matrix("z1")) == 2
    assert comp_rank(fixture_matrix("z2")) == 1
    assert comp_rank(fixture_matrix("z3")) == 0


def test_identity_has_full_rank():
    for alg in (HQ, Mat2Algebra(QQ)):
        for n in (1, 2, 3):
            assert comp_rank(CompMatrix.identity(alg, n)) == n


def test_rank_invariant_under_permutations():
    rng = SplitMix64(21)
    M2 = Mat2Algebra(F3)
    Z = fixture_matrix("z2")
    Zf3 = CompMatrix(
        M2,
        [
            [M2.element([c % 3 for c in e.entries]) for e in row]
            for row in Z.entries
        ],
    )
    base_rank = comp_rank(Zf3)
    perms2 = list(permutations(range(2)))
    for _ in range(500):
        rp = rng.choice(perms2)
        cp = rng.choice(perms2)
        assert comp_rank(Zf3.submatrix(rp, cp)) == base_rank


def test_block_diagonal_rank_counts_invertible_blocks():
    M2 = Mat2Algebra(QQ)
    unit = M2.one()
    nonunit = M2.element((1, 0, 0, 0))
    zero = M2.zero()
    for r in range(4):
        diag = [unit] * r + [nonunit] * (3 - r)
        Z = CompMatrix(
            M2, [[diag[i] if i == j else zero for j in range(3)] for i in range(3)]
        )
        assert comp_rank(Z) == r


def test_nonsplit_rank_equals_skew_column_rank():
    rng = SplitMix64(22)
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(m, 3)
        Z = CompMatrix(
            HQ,
            [
                [HQ.element([rng.randint(-1, 1) for _ in range(4)]) for _ in range(n)]
                for _ in range(m)
            ],
        )
        assert comp_rank(Z) == skew_column_rank(Z)


def test_dependence_bound_values():
    assert dependence_bound(HQ, 3, 2) == 2
    assert dependence_bound(Mat2Algebra(QQ), 2, 1) == 8
    assert dependence_bound(HQ, 3, 3) == 1
    assert dependence_bound(Mat2Algebra(QQ), 3, 3) == 4
    assert dependence_bound(QuatAlgebra(QQ, 2, 5), 2, 1) == 2
    with pytest.raises(ValueError):
        dependence_bound(HQ, 2, 3)


def test_low_rank_combination_smallest_family():
    # m = n = d = 1 over a division algebra: threshold 1, so any two distinct
    # one-entry matrices admit a combination that vanishes outright
    Z = CompMatrix(HQ, [[HQ.element((1, 2, 3, 4))]])
    W = CompMatrix(HQ, [[HQ.element((0, 1, 0, 0))]])
    coeffs = low_rank_combination([Z, W], 1)
    combo = combine([Z, W], coeffs)
    assert combo.take_rows(1).is_zero()
    assert comp_rank(combo) == 0
    assert coeffs[0] == HQ.one()  # normalized: first nonzero coefficient is one


def test_low_rank_combination_split_f2_with_exhaustive_oracle():
    M2 = Mat2Algebra(PrimeField(2))
    rng = SplitMix64(23)
    mats = sample_distinct_matrices(M2, 1, 1, 5, rng)
    coeffs = low_rank_combination(mats, 1)
    combo = combine(mats, coeffs)
    assert combo.is_zero()
    assert comp_rank(combo) == 0
    # independent enumeration: some nonzero scalar tuple over GF(2) kills the family
    found = False
    for bits in product((0, 1), repeat=5):
        if not any(bits):
            continue
        acc = CompMatrix.zero(M2, 1, 1)
        for bit, Z in zip(bits, mats):
            if bit:
                acc = acc + Z
        if acc.is_zero():
            found = True
            break
    assert found


def test_low_rank_combination_nonsplit_kills_rows():
    rng = SplitMix64(24)
    mats = sample_distinct_matrices(HQ, 2, 2, 5, rng)
    coeffs = low_rank_combination(mats, 1)  # threshold 2, needs M >= 5
    assert any(not c.is_zero() for c in coeffs)
    combo = combine(mats, coeffs)
    assert combo.take_rows(2).is_zero()
    assert comp_rank(combo) == 0


def test_low_rank_combination_precondition():
    rng = SplitMix64(25)
    mats = sample_distinct_matrices(HQ, 2, 2, 4, rng)
    with pytest.raises(BoundNotMetError):
        low_rank_combination(mats, 1)


def test_verify_span_bound_empty():
    report = verify_span_bound(HQ, 1, 1, 1, trials=0, seed=1)
    assert report.trials == 0 and report.successes == 0
    assert report.counterexample is None


def test_verify_span_bound_runs_and_is_deterministic():
    a = verify_span_bound(Mat2Algebra(PrimeField(2)), 1, 1, 1, trials=10, seed=7)
    b = verify_span_bound(Mat2Algebra(PrimeField(2)), 1, 1, 1, trials=10, seed=7)
    assert a.to_json() == b.to_json()
    assert a.successes == 10
    c = verify_span_bound(HQ, 2, 2, 2, trials=5, seed=3)
    assert c.successes == 5 and c.counterexample is None


def test_corpus_fixture_inventory():
    names = set(corpus_fixtures())
    assert {"z1", "z2", "z3", "cl01", "cl10", "cl02", "cl11", "cl20"} <= names
