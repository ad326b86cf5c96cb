from fractions import Fraction

import pytest

from compalg.errors import FieldMismatchError, NotQuadExtError, ZeroDivisorError
from compalg.fields import (
    NO,
    QQ,
    YES,
    PrimeField,
    QuadExt,
    from_split_components,
    is_square,
    split_components,
    square_root_raw,
)
from compalg.rng import SplitMix64


F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def random_scalar(spec, rng):
    if spec == QQ:
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        return spec.element(Fraction(num, den))
    if isinstance(spec, PrimeField):
        return spec.element(rng.randint(0, spec.p - 1))
    if isinstance(spec, QuadExt):
        x = random_scalar(spec.base, rng)
        y = random_scalar(spec.base, rng)
        return spec.element((x.raw, y.raw))
    raise AssertionError(spec)


def test_rational_arithmetic():
    assert QQ.element(Fraction(1, 2)) * QQ.element(Fraction(2, 3)) == QQ.element(Fraction(1, 3))
    assert QQ.element("3/4").raw == Fraction(3, 4)


def test_prime_field_reduction():
    assert F3.element(2) + F3.element(2) == F3.element(1)
    assert F5.element(7).raw == 2


def test_quad_defining_relation():
    L = QuadExt(QQ, -1)
    i = L.gen()
    assert (i * i).raw == (Fraction(-1), Fraction(0))


def test_spec_mismatch_raises():
    with pytest.raises(FieldMismatchError):
        QQ.element(1) + F3.element(1)


def test_conjugation_formula_and_involution():
    L = QuadExt(QQ, 2)
    x = L.element((3, 2))
    assert x.conjugate() == L.element((3, -2))
    assert L.embed(5).conjugate() == L.embed(5)
    rng = SplitMix64(11)
    for _ in range(200):
        z = random_scalar(L, rng)
        wz = random_scalar(L, rng)
        assert z.conjugate().conjugate() == z
        assert (z * wz).conjugate() == z.conjugate() * wz.conjugate()
        assert (z * z.conjugate()).raw[1] == 0


def test_conjugation_needs_quad_ext():
    with pytest.raises(NotQuadExtError):
        QQ.element(5).conjugate()


def test_invert_real_quadratic():
    L = QuadExt(QQ, 2)
    x = L.element((1, 1))
    inv = x.inverse()
    # frozen by solving (1 + sqrt2)(p + q sqrt2) = 1, i.e. p+2q = 1, p+q = 0
    assert inv == L.element((-1, 1))
    assert x * inv == L.one()


def test_invert_split_quadratic_over_f5():
    L = QuadExt(F5, 4)
    unit = L.element((1, 1))
    assert unit.quad_norm() == F5.element(-3)
    assert unit * unit.inverse() == L.one()
    nonunit = L.element((2, 1))
    assert nonunit.quad_norm().is_zero()
    with pytest.raises(ZeroDivisorError):
        nonunit.inverse()


def test_invert_identity_and_zero():
    assert QQ.one().inverse() == QQ.one()
    with pytest.raises(ZeroDivisionError):
        QQ.zero().inverse()


def test_is_square():
    squares_mod5 = {(i * i) % 5 for i in range(5)}
    assert squares_mod5 == {0, 1, 4}
    assert is_square(F5.element(4)) == YES
    assert is_square(F5.element(2)) == NO
    assert is_square(QQ.element(Fraction(9, 4))) == YES
    assert is_square(QQ.element(-1)) == NO
    assert is_square(QQ.element(2)) == NO


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeField(6)
    PrimeField(2)  # allowed for plain matrix work


def test_quad_ext_construction_guards():
    with pytest.raises(ValueError):
        QuadExt(PrimeField(2), 1)
    with pytest.raises(ValueError):
        QuadExt(QuadExt(QQ, 2), 3)
    with pytest.raises(ValueError):
        QuadExt(QQ, 0)


@pytest.mark.parametrize(
    "spec",
    [QQ, F5, QuadExt(QQ, 2), QuadExt(F7, 3), QuadExt(F5, 4)],
    ids=repr,
)
def test_field_axioms_randomized(spec):
    rng = SplitMix64(hash(repr(spec)) & 0xFFFF)
    one = spec.one()
    for _ in range(1000):
        x = random_scalar(spec, rng)
        y = random_scalar(spec, rng)
        z = random_scalar(spec, rng)
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x * one == x


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unit_criterion_matches_brute_force(p):
    base = PrimeField(p)
    non_square = next(r for r in range(2, p) if all(r != s * s % p for s in range(p)))
    for a in (non_square, 1):  # one field case, one split case
        L = QuadExt(base, a)
        elems = [L.element((x, y)) for x in range(p) for y in range(p)]
        for z in elems:
            has_inverse = any((z * w) == L.one() for w in elems)
            assert has_inverse == (not z.quad_norm().is_zero())


def test_split_components_roundtrip():
    L = QuadExt(F5, 4)
    rng = SplitMix64(3)
    for _ in range(100):
        z = random_scalar(L, rng)
        wz = random_scalar(L, rng)
        c1, c2 = split_components(z)
        d1, d2 = split_components(wz)
        assert from_split_components(L, c1, c2) == z
        p1, p2 = split_components(z * wz)
        assert (p1, p2) == (c1 * d1, c2 * d2)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 73, 97, 257, 7681])
def test_square_root_is_least_root(p):
    # 7681 = 15 * 2^9 + 1 makes Tonelli-Shanks run its full descent
    F = PrimeField(p)
    least = {}
    for r in range(p - 1, -1, -1):
        least[r * r % p] = r
    for v in range(p):
        assert square_root_raw(F, v) == least.get(v)


def test_split_quad_ext_over_large_prime():
    p = 10**9 + 7
    a = (5 * 7 * 11) ** 2
    L = QuadExt(PrimeField(p), a)
    assert L.split
    root, _ = split_components(L.gen())
    assert (root * root).raw == a
