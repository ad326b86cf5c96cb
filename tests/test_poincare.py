import re
from fractions import Fraction
from itertools import product as iproduct
from math import comb

import pytest

from compalg.errors import BranchUnavailableError, InexactDivisionError, RankMismatchError
from compalg.poincare import (
    UniPoly,
    WeylDegrees,
    clifford_group_quotient_poincare,
    gaussian_binomial,
    grassmann_poincare,
    hirsch,
    one_minus,
    one_plus,
    oriented_grassmann_poincare,
    so_u1su_poincare,
    sp_u1su_poincare,
)
from compalg.rng import SplitMix64


def test_poly_arithmetic():
    assert one_minus(8).exact_div(one_minus(4)) == one_plus(4)
    p = UniPoly((1, 0, 2))
    assert p * UniPoly.one() == p
    with pytest.raises(InexactDivisionError) as err:
        one_minus(3).exact_div(one_minus(2))
    assert err.value.remainder is not None and err.value.remainder


def from_sparse(mapping):
    """Oracle: the UniPoly of a {"degree": coefficient} map."""
    coeffs = [0] * (max(map(int, mapping), default=-1) + 1)
    for k, c in mapping.items():
        coeffs[int(k)] = c
    return UniPoly(coeffs)


def test_poly_sparse_roundtrip():
    p = one_plus(4) * one_plus(6)
    assert from_sparse(p.to_sparse()) == p
    assert from_sparse({}) == UniPoly.zero()


def test_poly_text_rendering():
    assert (one_plus(4) * one_plus(6)).text() == "1 + t^4 + t^6 + t^10"
    assert UniPoly.zero().text() == "0"
    assert (UniPoly.one() - UniPoly.monomial(2)).text() == "1 - t^2"
    assert (one_plus(4) * one_plus(6)).latex() == "1 + t^{4} + t^{6} + t^{10}"


def test_degree_tables():
    assert WeylDegrees.type_a(3).degrees == (2, 3)
    assert WeylDegrees.type_bc(3).degrees == (2, 4, 6)
    assert WeylDegrees.type_d(3).degrees == (2, 3, 4)
    assert WeylDegrees.u1su(3).degrees == (2, 2, 3)


def test_quotient_formula_reference_values():
    got = hirsch(WeylDegrees.type_bc(3), WeylDegrees.u1su(3))
    assert got == one_plus(4) * one_plus(6)
    assert got.text() == "1 + t^4 + t^6 + t^10"
    assert hirsch(WeylDegrees.type_d(3), WeylDegrees.u1su(3)) == one_plus(4)
    same = WeylDegrees.type_bc(4)
    assert hirsch(same, same) == UniPoly.one()


def test_quotient_formula_guards():
    with pytest.raises(RankMismatchError):
        hirsch(WeylDegrees.type_bc(3), WeylDegrees.type_bc(2))
    with pytest.raises(InexactDivisionError):
        hirsch(WeylDegrees.type_a(3), WeylDegrees.joint([WeylDegrees.type_a(2), WeylDegrees.type_a(2)]))


def test_product_forms():
    assert sp_u1su_poincare(3) == one_plus(4) * one_plus(6)
    assert sp_u1su_poincare(2) == one_plus(4)
    assert so_u1su_poincare(3) == one_plus(4)
    with pytest.raises(ValueError):
        sp_u1su_poincare(1)
    with pytest.raises(ValueError):
        so_u1su_poincare(2)


def test_product_forms_match_quotient_formula():
    for n in range(2, 9):
        assert sp_u1su_poincare(n) == hirsch(WeylDegrees.type_bc(n), WeylDegrees.u1su(n))
    for n in range(3, 9):
        assert so_u1su_poincare(n) == hirsch(WeylDegrees.type_d(n), WeylDegrees.u1su(n))


def box_partition_series(n, k, step):
    """Independent oracle: count partitions inside a k x (n-k) box by weight."""
    rows, width = k, n - k
    counts = {}

    def rec(row, maximum, total):
        if row == rows:
            counts[total] = counts.get(total, 0) + 1
            return
        for part in range(maximum + 1):
            rec(row + 1, part, total + part)

    rec(0, width, 0)
    out = [0] * (step * max(counts, default=0) + 1)
    for weight, cnt in counts.items():
        out[step * weight] = cnt
    return UniPoly(out)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, step=2) == one_plus(2)
    assert gaussian_binomial(5, 0) == UniPoly.one()
    frozen = UniPoly((1, 0, 1, 0, 2, 0, 1, 0, 1))  # 1 + t^2 + 2t^4 + t^6 + t^8
    assert gaussian_binomial(4, 2, step=2) == frozen
    assert box_partition_series(4, 2, step=2) == frozen


def test_gaussian_binomial_against_box_oracle():
    for n in range(0, 7):
        for k in range(0, n + 1):
            for step in (1, 2):
                got = gaussian_binomial(n, k, step)
                assert got == box_partition_series(n, k, step)
                assert got.coeffs == got.coeffs[::-1]
                assert got(1) == comb(n, k)


def test_grassmann_poincare():
    assert grassmann_poincare(1, 1) == one_plus(1)
    with pytest.raises(ValueError):
        grassmann_poincare(0, 3)
    for p, q in iproduct(range(1, 6), range(1, 6)):
        if p + q <= 10:
            assert grassmann_poincare(p, q) == gaussian_binomial(p + q, p, step=1)
            assert grassmann_poincare(p, q) == grassmann_poincare(q, p)


def test_oriented_grassmann_poincare():
    assert oriented_grassmann_poincare(1, 1) == one_plus(2)
    assert oriented_grassmann_poincare(2, 1) == UniPoly((1, 0, 1, 0, 1, 0, 1))
    assert oriented_grassmann_poincare(2, 2) == one_plus(4)


def test_clifford_group_quotient_poincare():
    assert clifford_group_quotient_poincare(3, 2, 1) == one_plus(1) * one_plus(2)
    assert clifford_group_quotient_poincare(2, 1, 1) == one_plus(1) * one_plus(1)
    with pytest.raises(BranchUnavailableError):
        clifford_group_quotient_poincare(3, 1, 2)


def test_outputs_nonnegative_with_unit_constant_term():
    polys = []
    for n in range(2, 9):
        polys.append(sp_u1su_poincare(n))
    for n in range(3, 9):
        polys.append(so_u1su_poincare(n))
    for m in range(1, 6):
        for k in range(1, m + 1):
            polys.append(oriented_grassmann_poincare(m, k))
    for p in range(1, 5):
        for q in range(1, 5):
            polys.append(grassmann_poincare(p, q))
    for poly in polys:
        assert poly.coeffs[0] == 1
        assert all(c >= 0 for c in poly.coeffs)


def _dense_mul(a, b):
    """Oracle: the product of two coefficient lists, every pair of positions visited."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _dense_div(a, b):
    """Oracle: long division on the dense coefficient lists; (quotient, None)
    when exact, else (None, the remainder at the step that found it inexact)."""
    rem = list(a)
    q = [0] * max(len(rem) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        top = rem[k + len(b) - 1]
        if top % b[-1] != 0:
            return None, rem
        q[k] = top // b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= q[k] * y
    return (q, None) if not any(rem) else (None, rem)


def _sparse_poly(rng, max_degree, lead_choices=(-3, -2, -1, 1, 2, 3)):
    degree = rng.randint(0, max_degree)
    coeffs = [rng.randint(-5, 5) if rng.randint(0, 2) == 0 else 0 for _ in range(degree)]
    return coeffs + [rng.choice(lead_choices)]


def test_sparse_products_and_divisions_match_the_dense_oracle():
    rng = SplitMix64(1717)
    inexact = 0
    for _ in range(400):
        a, b = _sparse_poly(rng, 14), _sparse_poly(rng, 8)
        assert (UniPoly(a) * UniPoly(b)).coeffs == UniPoly(_dense_mul(a, b)).coeffs
        product_ab = _dense_mul(a, b)
        assert UniPoly(product_ab).exact_div(UniPoly(b)) == UniPoly(a)
        # a perturbed dividend: exact or not, the quotient or the remainder agrees
        c = list(product_ab)
        c[rng.randint(0, len(c) - 1)] += rng.randint(-2, 2)
        quotient, remainder = _dense_div(c, b)
        if remainder is None:
            assert UniPoly(c).exact_div(UniPoly(b)) == UniPoly(quotient)
        else:
            inexact += 1
            with pytest.raises(InexactDivisionError) as err:
                UniPoly(c).exact_div(UniPoly(b))
            assert err.value.remainder == UniPoly(remainder)
    assert inexact >= 100
    assert UniPoly((0, 3)) * UniPoly.zero() == UniPoly.zero() == UniPoly.zero() * UniPoly((0, 3))


def test_one_minus_is_one_minus_the_monomial():
    for power in range(0, 13):
        assert one_minus(power) == UniPoly.one() - UniPoly.monomial(power)


def test_unipoly_repr_is_pinned():
    assert repr(UniPoly([1, 0, -2, 3])) == "UniPoly(1 - 2t^2 + 3t^3)"
    assert repr(UniPoly.zero()) == "UniPoly(0)"


def test_unipoly_refuses_non_integer_coefficients():
    # converted first, then compared with the input, then stripped: nothing is truncated
    for coeffs, bad in (([1, 0, -2, Fraction(1, 3)], "Fraction(1, 3)"), ([2.7], "2.7"), ([Fraction(-5, 2), 1], "Fraction(-5, 2)"),
                        (["3"], "'3'")):
        with pytest.raises(ValueError, match=re.escape(f"a coefficient must be an integer, got {bad}")):
            UniPoly(coeffs)
    p = UniPoly([True, Fraction(4, 2), 0, Fraction(0), False])
    assert p == UniPoly([1, 2]) and p.coeffs == (1, 2) and all(type(c) is int for c in p.coeffs)
    assert UniPoly([0, False, Fraction(0)]) == UniPoly.zero() and UniPoly(iter([3, 0])).coeffs == (3,)
