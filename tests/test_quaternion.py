import operator
from fractions import Fraction
from math import isqrt

import pytest

from compalg import clifford
from compalg.clifford import CliffordSignature, Multivector
from compalg.errors import (
    AlgebraMismatchError,
    InfeasibleError,
    NotInvertibleError,
    SignatureMismatchError,
)
from compalg.fields import QQ, PrimeField
from compalg.quaternion import (
    NONSPLIT,
    SPLIT,
    Mat2Algebra,
    Mat2Element,
    QuatAlgebra,
    QuaternionElement,
    _QUAT_TERMS,
    _check_associativity,
    _monomial_mul,
    mat2_to_quat,
    quat_to_mat2,
    swap_parameters,
)
from compalg.rng import SplitMix64

HQ = QuatAlgebra(QQ, -1, -1)
F3 = PrimeField(3)


def random_quat(alg, rng, bound=4):
    if isinstance(alg.field, PrimeField):
        p = alg.field.p
        return alg.element(tuple(rng.randint(0, p - 1) for _ in range(alg.dim)))
    return alg.element(tuple(rng.randint(-bound, bound) for _ in range(alg.dim)))


def test_basis_relations():
    assert HQ.u() * HQ.v() == HQ.w()
    assert HQ.v() * HQ.u() == -HQ.w()
    alg = QuatAlgebra(QQ, 2, 5)
    assert alg.u() * alg.u() == alg.from_base(2)
    assert alg.v() * alg.v() == alg.from_base(5)
    assert alg.u() * alg.v() == -(alg.v() * alg.u())


def test_unit_law_random():
    rng = SplitMix64(5)
    for _ in range(100):
        z = random_quat(HQ, rng)
        assert HQ.one() * z == z
        assert z * HQ.one() == z


def test_conjugate():
    z = HQ.element((1, 1, 1, 1))
    assert z.conjugate() == HQ.element((1, -1, -1, -1))
    pure = HQ.element((0, 2, -3, 5))
    assert pure.conjugate() == -pure
    rng = SplitMix64(6)
    for _ in range(200):
        z = random_quat(HQ, rng)
        w = random_quat(HQ, rng)
        assert (z * w).conjugate() == w.conjugate() * z.conjugate()


def test_norm_values_and_identity():
    z = HQ.element((2, 1, 0, 0))
    assert z.norm() == QQ.element(5)
    assert HQ.one().norm() == QQ.element(1)
    rng = SplitMix64(7)
    for alg in (HQ, QuatAlgebra(QQ, 2, 5), QuatAlgebra(F3, 1, -1)):
        for _ in range(100):
            z = random_quat(alg, rng)
            n = z.norm()
            assert z * z.conjugate() == alg.from_base(n)
            assert z.conjugate() * z == alg.from_base(n)


def test_norm_multiplicative_sample():
    rng = SplitMix64(8)
    for alg in (HQ, QuatAlgebra(QQ, 2, 5), QuatAlgebra(F3, 1, -1)):
        for _ in range(200):
            x = random_quat(alg, rng)
            y = random_quat(alg, rng)
            assert (x * y).norm() == x.norm() * y.norm()


def test_inverse():
    assert HQ.u().inverse() == -HQ.u()
    assert HQ.one().inverse() == HQ.one()
    split3 = QuatAlgebra(F3, 1, -1)
    z = split3.element((1, 1, 0, 0))
    assert z.norm().is_zero()
    with pytest.raises(NotInvertibleError):
        z.inverse()
    rng = SplitMix64(9)
    for _ in range(100):
        z = random_quat(HQ, rng)
        if z.is_zero():
            continue
        assert z * z.inverse() == HQ.one()
        assert z.inverse() * z == HQ.one()


def test_algebra_mismatch():
    other = QuatAlgebra(QQ, 2, 5)
    with pytest.raises(AlgebraMismatchError):
        HQ.one() * other.one()


def test_characteristic_two_rejected():
    with pytest.raises(ValueError):
        QuatAlgebra(PrimeField(2), 1, -1)


def test_cd_coords_basis_values():
    L = HQ.quad_subfield()
    assert HQ.u().cd_coords() == (L.gen(), L.zero())
    assert HQ.v().cd_coords() == (L.zero(), L.one())
    # v * (-sqrt(a)) = -v*u = u*v = w, so w has coordinates (0, -sqrt(a))
    assert HQ.w().cd_coords() == (L.zero(), -L.gen())


def test_cd_roundtrip_and_commutation():
    rng = SplitMix64(10)
    for alg in (HQ, QuatAlgebra(QQ, 2, 5), QuatAlgebra(F3, 1, -1)):
        L = alg.quad_subfield()
        for _ in range(200):
            z = random_quat(alg, rng)
            x, y = z.cd_coords()
            assert QuaternionElement.from_cd_coords(alg, x, y) == z
            # z*v = v*conj(z) for z in the subfield L
            zl = QuaternionElement.from_cd_coords(alg, x, L.zero())
            zl_conj = QuaternionElement.from_cd_coords(alg, x.conjugate(), L.zero())
            assert zl * alg.v() == alg.v() * zl_conj


def test_parameter_swap_is_isomorphism():
    rng = SplitMix64(12)
    for alg in (HQ, QuatAlgebra(QQ, 2, 5)):
        target = QuatAlgebra(alg.field, alg.b.raw, alg.a.raw)
        for _ in range(1000):
            z = random_quat(alg, rng, bound=3)
            w = random_quat(alg, rng, bound=3)
            assert swap_parameters(z * w, target) == swap_parameters(z, target) * swap_parameters(w, target)


def test_is_split_decisions():
    assert HQ.is_split_decision() == NONSPLIT
    split3 = QuatAlgebra(F3, 1, -1)
    assert split3.is_split_decision() == SPLIT
    witness = split3.split_witness()
    assert witness.norm().is_zero() and not witness.is_zero()
    two = QuatAlgebra(QQ, 2, -1)
    assert two.is_split_decision() == SPLIT  # 2 = 1^2 + 1^2
    assert QuatAlgebra(QQ, 2, 5).is_split_decision() == NONSPLIT  # (2,5)_5 = -1
    assert QuatAlgebra(PrimeField(5), -1, -1).is_split_decision() == SPLIT
    assert QuatAlgebra(QQ, 4, 7).is_split_decision() == SPLIT  # perfect square a
    assert QuatAlgebra(QQ, 61, -1).is_split_decision() == SPLIT  # 61 = 25 + 36
    assert QuatAlgebra(QQ, -1, 61).is_split_decision() == SPLIT  # via the swap
    w61 = QuatAlgebra(QQ, 61, -1).split_witness()
    assert w61.norm().is_zero() and not w61.is_zero()


def test_prime_field_algebras_split_at_large_primes():
    for p in (2003, 10007, 10**9 + 7):
        nonresidue = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        for a, b in ((nonresidue, nonresidue), (1, nonresidue), (nonresidue, p - 1)):
            alg = QuatAlgebra(PrimeField(p), a, b)
            assert alg.is_split_decision() == SPLIT
            witness = alg.split_witness()
            assert witness.norm().is_zero() and not witness.is_zero()


def _small_solution_exists(a: int, b: int) -> bool:
    """Whether x0^2 = a*x1^2 + b*x2^2 with 0 <= x1, x2 <= isqrt(|ab|), not both 0.

    By Holzer's theorem a solvable equation has a solution in this box.
    """
    bound = isqrt(abs(a * b))
    for x1 in range(bound + 1):
        for x2 in range(bound + 1):
            t = a * x1 * x1 + b * x2 * x2
            if (x1 or x2) and t >= 0 and isqrt(t) ** 2 == t:
                return True
    return False


def test_split_decision_cross_check():
    pairs = [(a, b) for a in range(-20, 21) for b in range(-20, 21) if a and b]
    pairs += [
        (Fraction(1, 3), 5),
        (Fraction(2, 9), Fraction(-7, 4)),
        (Fraction(-5, 12), Fraction(3, 7)),
        (Fraction(-6, 5), Fraction(-3, 10)),
        (Fraction(17, 8), Fraction(-1, 2)),
        (Fraction(7, 50), Fraction(11, 18)),
    ]
    verdicts = set()
    for a, b in pairs:
        alg = QuatAlgebra(QQ, a, b)
        verdict = alg.is_split_decision()
        verdicts.add(verdict)
        if verdict == SPLIT:
            witness = alg.split_witness()
            assert witness.norm().is_zero() and not witness.is_zero()
        else:
            assert verdict == NONSPLIT and alg.split_witness() is None
            # (a, b) ~ (a*q^2, b*s^2): search with the integer parameters
            a, b = Fraction(a), Fraction(b)
            ia, ib = a.numerator * a.denominator, b.numerator * b.denominator
            assert not _small_solution_exists(ia, ib), (a, b)
    assert verdicts == {SPLIT, NONSPLIT}


def test_split_decision_large_parameters():
    # a prime cofactor beyond the trial-division bound is accepted
    big = 10**12 + 61  # prime, 1 mod 4, so a sum of two squares
    alg = QuatAlgebra(QQ, big, -1)
    assert alg.is_split_decision() == SPLIT
    witness = alg.split_witness()
    assert witness.norm().is_zero() and not witness.is_zero()
    assert QuatAlgebra(QQ, -big, -3).is_split_decision() == NONSPLIT
    # a composite cofactor beyond it cannot be factored
    with pytest.raises(InfeasibleError):
        QuatAlgebra(QQ, 1_000_003 * 1_000_033, 5).is_split_decision()


def test_element_rejects_wrong_length():
    with pytest.raises(ValueError, match="4 coefficients"):
        HQ.element((1, 2, 3))
    with pytest.raises(ValueError, match="4 entries"):
        Mat2Algebra(QQ).element((1, 2, 3))
    assert Mat2Algebra(QQ).element([[1, 2], [3, 4]]) == Mat2Algebra(QQ).element((1, 2, 3, 4))


def test_mat2_basis_satisfies_relations():
    M = Mat2Algebra(QQ)
    one = M.one()
    u = M.element((1, 0, 0, -1))
    v = M.element((0, -1, 1, 0))
    w = M.element((0, -1, -1, 0))
    assert u * u == one
    assert v * v == -one
    assert u * v == w
    assert v * u == -w


def test_mat2_norm_is_det_and_conjugate_is_adjugate():
    M = Mat2Algebra(QQ)
    z = M.element((1, 2, 3, 4))
    assert z.norm() == QQ.element(-2)
    assert z * z.conjugate() == M.from_base(-2)
    zd = M.element((0, 1, 0, 0))
    assert zd.norm().is_zero()
    with pytest.raises(NotInvertibleError):
        zd.inverse()


def test_mat2_works_in_characteristic_two():
    M = Mat2Algebra(PrimeField(2))
    z = M.element((1, 1, 1, 1))
    assert z.norm().is_zero()
    unit = M.element((1, 1, 0, 1))
    assert unit * unit.inverse() == M.one()
    assert M.is_split_decision() == SPLIT


def test_quat_mat2_isomorphism_transport():
    rng = SplitMix64(13)
    for field in (QQ, F3):
        quat = QuatAlgebra.split_form(field)
        mat = Mat2Algebra(field)
        for _ in range(1000):
            z = random_quat(quat, rng, bound=3)
            w = random_quat(quat, rng, bound=3)
            assert quat_to_mat2(z * w, mat) == quat_to_mat2(z, mat) * quat_to_mat2(w, mat)
        for _ in range(100):
            z = random_quat(quat, rng, bound=3)
            assert mat2_to_quat(quat_to_mat2(z, mat), quat) == z
            assert quat_to_mat2(z, mat).norm() == z.norm()


def test_from_base_embeds_scalars():
    z = HQ.from_base(Fraction(3, 2))
    assert z.coeffs[0] == Fraction(3, 2)
    assert z.norm() == QQ.element(Fraction(9, 4))


def _quat_product(alg, x, y):
    """(x0 + x1 u + x2 v + x3 w)(y0 + y1 u + y2 v + y3 w) in (a,b), multiplied out."""
    a, b = alg.a.raw, alg.b.raw
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    return (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )


def _mat2_dense_table():
    """e_i * e_j for the unit matrices E_rs (coordinate 2r + s), multiplied out."""
    def unit(i):
        return [[int(2 * r + s == i) for s in range(2)] for r in range(2)]

    table = []
    for i in range(4):
        a, row = unit(i), []
        for j in range(4):
            b = unit(j)
            prod = [[sum(a[r][t] * b[t][s] for t in range(2)) for s in range(2)] for r in range(2)]
            row.append(tuple(prod[0] + prod[1]))
        table.append(row)
    return table


@pytest.mark.parametrize(
    "alg",
    [
        HQ,
        QuatAlgebra(QQ, 2, 5),
        QuatAlgebra(PrimeField(7), 3, -1),
        Mat2Algebra(QQ),
        Mat2Algebra(PrimeField(5)),
        Mat2Algebra(PrimeField(2)),
    ],
    ids=repr,
)
def test_mul_raw_matches_dense_structure_constants(alg):
    dense = _mat2_dense_table()
    f = alg.field
    rng = SplitMix64(14)
    for _ in range(100):
        x, y = (random_quat(alg, rng, bound=3).coeffs for _ in range(2))
        if isinstance(alg, QuatAlgebra):
            expected = _quat_product(alg, x, y)
        else:
            expected = [
                sum(x[i] * y[j] * dense[i][j][k] for i in range(4) for j in range(4))
                for k in range(4)
            ]
        expected = tuple(f._coerce(v) for v in expected)
        from_terms = [f._coerce(0)] * 4
        for i in range(4):
            for j in range(4):
                k, c = alg._terms[i][j]
                from_terms[k] = f._add(from_terms[k], f._mul(f._mul(x[i], y[j]), c))
        assert alg._mul_raw(x, y) == expected == tuple(from_terms)


def test_term_table_needs_associativity():
    table = [list(row) for row in _QUAT_TERMS]
    k, (sign, i, j) = table[2][3]
    table[2][3] = (k, (-sign, i, j))  # the sign of v*w flipped
    with pytest.raises(ValueError, match="not associative"):
        _check_associativity(table, _monomial_mul)
    # every constant is 1, but e_i*e_j = e_(i-j mod 3) is not associative
    with pytest.raises(ValueError, match="not associative"):
        _check_associativity([[((i - j) % 3, 1) for j in range(3)] for i in range(3)], operator.mul)


def _handwritten_terms(f, a, b):
    """The (a,b) table as it was written out by hand, entry by entry."""
    one, neg = f._coerce(1), f._neg
    return [
        [(0, one), (1, one), (2, one), (3, one)],
        [(1, one), (0, a), (3, one), (2, a)],
        [(2, one), (3, neg(one)), (0, b), (1, neg(b))],
        [(3, one), (2, neg(a)), (1, b), (0, neg(f._mul(a, b)))],
    ]


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(7), PrimeField(10007)], ids=repr)
def test_evaluated_table_is_the_quaternion_table(field):
    rng = SplitMix64(field.characteristic + 12)
    for _ in range(5):
        if field.characteristic:
            a, b = (rng.randint(1, field.characteristic - 1) for _ in range(2))
        else:
            a, b = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 7)) for _ in range(2))
        alg = QuatAlgebra(field, a, b)
        _check_associativity(alg._terms, field._mul)
        u, v, w = alg.u(), alg.v(), alg.w()
        assert u * u == alg.from_base(alg.a.raw) and v * v == alg.from_base(alg.b.raw)
        assert u * v == w == -(v * u)
        assert alg._terms == _handwritten_terms(field, alg.a.raw, alg.b.raw)


# each single-term table with the product of structure constants its owner
# passes to the shared associativity check, and the constant -1 in that product
TABLES = {
    "(a,b) symbolic": (_QUAT_TERMS, _monomial_mul, (-1, 0, 0)),
    "(2,5)_QQ": (QuatAlgebra(QQ, 2, 5)._terms, QQ._mul, -1),
    "(3,6)_GF(7)": (QuatAlgebra(PrimeField(7), 3, -1)._terms, PrimeField(7)._mul, -1),
    "Mat2": (Mat2Algebra._terms, operator.mul, -1),
}
TABLES.update(
    (repr(sig), (sig._terms, int.__mul__, -1))
    for sig in (CliffordSignature(p, n - p) for n in range(2, 5) for p in range(n + 1))
)


@pytest.mark.parametrize("name", TABLES)
def test_shared_check_rejects_seeded_table_mutations(name):
    terms, mul, minus_one = TABLES[name]
    _check_associativity(terms, mul)
    rng = SplitMix64(sum(map(ord, name)))
    nonzero = [(i, j) for i, row in enumerate(terms) for j, (_, c) in enumerate(row) if c]
    for _ in range(4):
        i, j = rng.choice(nonzero)
        k, c = terms[i][j]
        swapped = (k + rng.randint(1, len(terms) - 1)) % len(terms)
        for mutated in ((k, mul(c, minus_one)), (swapped, c)):  # a flipped sign, a swapped index
            table = [list(row) for row in terms]
            table[i][j] = mutated
            with pytest.raises(ValueError, match="not associative"):
                _check_associativity(table, mul)


def test_clifford_check_samples_nontrivial_triples_from_dimension_five(monkeypatch):
    signatures = ((2, 2), (3, 2), (3, 3))
    for p, q in signatures:
        CliffordSignature(p, q)  # the cached tables are built and checked here
    calls = []
    monkeypatch.setattr(clifford, "_check_associativity", lambda terms, mul, pairs: calls.append(pairs))
    for p, q in signatures:
        clifford._signature_table.__wrapped__(p, q)
    exhaustive, five, six = calls
    assert exhaustive == []  # every pair (i, j), and every l after it
    for pairs, dim in ((five, 32), (six, 64)):
        assert len(set(pairs)) * (dim - 1) >= 2000 and all(i and j for i, j in pairs)


ELEMENT_ALGEBRAS = [
    HQ,
    QuatAlgebra(PrimeField(7), 3, -1),
    Mat2Algebra(QQ),
    Mat2Algebra(PrimeField(5)),
    Mat2Algebra(PrimeField(2)),
    CliffordSignature(2, 1),
    CliffordSignature(1, 3),
]


@pytest.mark.parametrize("alg", ELEMENT_ALGEBRAS, ids=repr)
def test_element_laws_on_both_realizations(alg):
    f = alg.field
    rng = SplitMix64(15)
    zero, one = alg.zero(), alg.one()
    for _ in range(60):
        x, y, z = (random_quat(alg, rng, bound=3) for _ in range(3))
        c = rng.randint(-3, 3)
        # coordinates against the field operations on Scalars
        assert [f.element(e) for e in (x + y).coeffs] == [
            f.element(a) + f.element(b) for a, b in zip(x.coeffs, y.coeffs)
        ]
        assert [f.element(e) for e in (x - y).coeffs] == [
            f.element(a) - f.element(b) for a, b in zip(x.coeffs, y.coeffs)
        ]
        assert [f.element(e) for e in x.scale(c).coeffs] == [
            f.element(a) * f.element(c) for a in x.coeffs
        ]
        assert (x + y) + z == x + (y + z) and x + y == y + x
        assert x + zero == x and x - x == zero and (x - x).is_zero()
        assert -(-x) == x and x - y == x + (-y) and (-x).is_zero() == x.is_zero()
        assert x.scale(c) == x * alg.from_base(c) == alg.from_base(c) * x
        assert (x * y) * z == x * (y * z) and x * (y + z) == x * y + x * z
        results = [x + y, x - y, -x, x * y, x.scale(c)]
        for result in results + ([x.conjugate()] if hasattr(x, "conjugate") else []):
            assert type(result) is type(x) and result.algebra == alg
        twin = alg.element(x.coeffs)
        assert twin == x and hash(twin) == hash(x) and len({twin, x}) == 1
        assert x + one != x
        try:
            inverse = x.inverse()
        except NotInvertibleError:
            assert isinstance(x, Multivector) or not x.is_unit() and x.norm().is_zero()
        else:
            assert x * inverse == one == inverse * x
            assert isinstance(x, Multivector) or x.is_unit()
    mismatch = SignatureMismatchError if isinstance(x, Multivector) else AlgebraMismatchError
    for other in ELEMENT_ALGEBRAS:
        if other != alg:
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
                with pytest.raises(mismatch):
                    op(x, other.one())
    with pytest.raises(AttributeError):
        x.coeffs = y.coeffs
    with pytest.raises(AttributeError):
        x.algebra = alg
    assert isinstance(x.coeffs, tuple)
    if isinstance(x, Mat2Element):
        assert x.entries is x.coeffs
        with pytest.raises(AttributeError):
            x.entries = y.coeffs
    if isinstance(x, Multivector):
        assert x.sig is x.algebra and not hasattr(x, "is_unit")
        return
    witness = alg.split_witness()
    if alg.is_split_decision() == SPLIT:
        assert not witness.is_zero() and not witness.is_unit()
        with pytest.raises(NotInvertibleError):
            witness.inverse()
    else:
        assert witness is None


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
def test_quaternion_and_mat2_elements_do_not_mix(field):
    q = QuatAlgebra.split_form(field).element((1, 2, 3, 4))
    m = Mat2Algebra(field).element((1, 2, 3, 4))
    assert q.coeffs == m.coeffs
    assert q != m and m != q
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in ((q, m), (m, q)):
            with pytest.raises(AlgebraMismatchError):
                op(a, b)
