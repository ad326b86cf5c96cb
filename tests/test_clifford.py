from fractions import Fraction

import pytest

from compalg import matrices, ratlin
from compalg.errors import (
    InfeasibleError,
    NotGradeOneError,
    NotInvertibleError,
    SignatureMismatchError,
)
from compalg.clifford import (
    CliffordSignature,
    center_dimension,
    classify,
    clifford_group_membership,
    conjugation_matrix,
    induced_matrix,
    preserves_form,
    twisted_adjoint,
    unit_vector_product,
    verify_classification,
)
from compalg.ratlin import det, solve_square
from compalg.rng import SplitMix64


def test_generator_relations():
    cl10 = CliffordSignature(1, 0)
    e1 = cl10.basis_vector(1)
    assert e1 * e1 == cl10.one()
    cl20 = CliffordSignature(2, 0)
    a, b = cl20.basis_vector(1), cl20.basis_vector(2)
    assert a * b == -(b * a)
    cl02 = CliffordSignature(0, 2)
    w = cl02.basis_vector(1) * cl02.basis_vector(2)
    assert w * w == -cl02.one()


def test_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        CliffordSignature(1, 0).one() * CliffordSignature(0, 1).one()


def test_multivector_coefficients_are_exact_fractions_of_the_right_length():
    cl10 = CliffordSignature(1, 0)
    x = cl10.element(["1/2", 0.25])
    assert x.coeffs == (Fraction(1, 2), Fraction(1, 4))
    assert all(type(c) is Fraction for c in x.coeffs + (x * x).coeffs + cl10.vector((3,)).coeffs)
    with pytest.raises(ValueError, match="wrong length"):
        cl10.element([1, 2, 3])


def test_signature_table_is_shared_and_read_only():
    x, y, other = CliffordSignature(2, 2), CliffordSignature(2, 2), CliffordSignature(1, 3)
    assert x._terms is y._terms and x.blade_index is y.blade_index
    with pytest.raises(TypeError):
        x._terms[1][2] = (0, 1)
    with pytest.raises(TypeError):
        x.blade_index[(1,)] = 0
    assert x != other and x._terms != other._terms


def test_dimension_budget():
    with pytest.raises(InfeasibleError):
        CliffordSignature(4, 3)
    CliffordSignature(3, 3)  # dimension 64 is within the default budget


def test_involutions():
    cl30 = CliffordSignature(3, 0)
    e1 = cl30.basis_vector(1)
    assert e1.grade_involution() == -e1
    e12 = cl30.blade((1, 2))
    assert e12.reversion() == -e12
    assert e12.grade_involution() == e12
    rng = SplitMix64(51)

    def random_mv(sig):
        return sig.element([Fraction(rng.randint(-2, 2)) for _ in range(sig.dim)])

    for _ in range(100):
        x = random_mv(cl30)
        y = random_mv(cl30)
        assert (x * y).reversion() == y.reversion() * x.reversion()
        assert (x * y).grade_involution() == x.grade_involution() * y.grade_involution()


def test_classify_examples():
    assert classify(0, 1).to_json() == {"base": "C", "matrix_size": 1, "direct_sum": False}
    assert classify(1, 0).to_json() == {"base": "R", "matrix_size": 1, "direct_sum": True}
    assert classify(0, 2).to_json() == {"base": "H", "matrix_size": 1, "direct_sum": False}
    assert classify(1, 1).to_json() == {"base": "R", "matrix_size": 2, "direct_sum": False}
    assert classify(2, 0).to_json() == {"base": "R", "matrix_size": 2, "direct_sum": False}
    assert classify(0, 0).to_json() == {"base": "R", "matrix_size": 1, "direct_sum": False}
    # real dimension must come out as 2^n in every case
    base_dim = {"R": 1, "C": 2, "H": 4}
    for p in range(0, 5):
        for q in range(0, 5 - p):
            c = classify(p, q)
            total = base_dim[c.base] * c.matrix_size**2 * (2 if c.direct_sum else 1)
            assert total == 2 ** (p + q)


def test_center_dimension_parity():
    for p in range(0, 7):
        for q in range(0, 7 - p):
            n = p + q
            assert center_dimension(CliffordSignature(p, q)) == (1 if n % 2 == 0 else 2)


def test_center_dimension_runs_no_elimination(monkeypatch):
    def refuse(*_):
        raise AssertionError("center_dimension must not eliminate")

    monkeypatch.setattr(matrices, "field_echelon", refuse)
    monkeypatch.setattr(ratlin, "nullity", refuse)
    assert [center_dimension(CliffordSignature(p, 3 - p)) for p in range(4)] == [2, 2, 2, 2]
    assert center_dimension(CliffordSignature(2, 2)) == 1


def test_verify_classification_reports():
    r02 = verify_classification(0, 2)
    assert r02.center_dim == 1 and r02.transport == "quaternion(-1,-1)" and r02.transport_ok
    assert r02.agree()
    r10 = verify_classification(1, 0)
    assert r10.center_dim == 2 and r10.transport_ok
    r01 = verify_classification(0, 1)
    assert r01.center_dim == 2 and r01.complex_square_witness and r01.transport_ok
    for p, q in ((1, 1), (2, 0)):
        rep = verify_classification(p, q)
        assert rep.transport == "mat2" and rep.transport_ok and rep.agree()
    for p in range(0, 5):
        for q in range(0, 5 - p):
            assert verify_classification(p, q).agree()
    with pytest.raises(InfeasibleError):
        verify_classification(3, 2)


def test_twisted_adjoint_basics():
    cl20 = CliffordSignature(2, 0)
    e1, e2 = cl20.basis_vector(1), cl20.basis_vector(2)
    assert twisted_adjoint(cl20.one(), e1) == e1
    assert twisted_adjoint(e1, e2) == -e2
    assert twisted_adjoint(e1, e1) == e1
    with pytest.raises(NotGradeOneError):
        twisted_adjoint(e1, cl20.blade((1, 2)))


def test_induced_matrix_rotation():
    cl20 = CliffordSignature(2, 0)
    g = cl20.blade((1, 2))
    mat = induced_matrix(g)
    assert mat == [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert det(mat) == 1
    assert preserves_form(cl20, mat)


def test_inverse_and_noninvertible():
    cl11 = CliffordSignature(1, 1)
    e1 = cl11.basis_vector(1)
    assert e1.inverse() == e1
    singular = cl11.one() + e1  # (1+e1)(1-e1) = 0
    with pytest.raises(NotInvertibleError):
        singular.inverse()


def regular_rep_inverse(x):
    """Test oracle: solve x * y = 1 in the 2^n x 2^n left regular representation."""
    sig = x.sig
    columns = [(x * sig.element({sig.blades[j]: 1})).coeffs for j in range(sig.dim)]
    matrix = [[columns[j][i] for j in range(sig.dim)] for i in range(sig.dim)]
    sol = solve_square(matrix, [1] + [0] * (sig.dim - 1))
    return None if sol is None else sig.element(sol)


def _square_to_one_blades(sig):
    return [b for b in sig.blades[1:] if sig.blade(b) * sig.blade(b) == sig.one()]


def _random_element(sig, rng, nonzero):
    coeffs = [Fraction(0)] * sig.dim
    for _ in range(nonzero):
        coeffs[rng.randint(0, sig.dim - 1)] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return sig.element(coeffs)


SIGNATURES_UP_TO_6 = [(p, n - p) for n in range(0, 7) for p in range(0, n + 1)]


@pytest.mark.parametrize("p,q", SIGNATURES_UP_TO_6)
def test_inverse_matches_regular_representation(p, q):
    # the oracle's Fraction elimination takes about 1 s on a 64 x 64 element
    # with a dozen terms, so Cl(5) gets one dense sample and Cl(6) one of 6 terms
    sig = CliffordSignature(p, q)
    rng = SplitMix64(53 + 8 * p + q)
    small = sig.n < 6
    dense = {5: [sig.dim], 6: [6]}.get(sig.n, [sig.dim] * 2)
    samples = [sig.zero(), sig.one().scale(Fraction(-2, 3))]
    samples += [_random_element(sig, rng, terms) for terms in dense]
    samples += [_random_element(sig, rng, rng.randint(1, 3)) for _ in range(3 if small else 1)]
    for blade in _square_to_one_blades(sig)[: 2 if small else 1]:
        zero_divisor = sig.one() + sig.blade(blade)
        left, right = _random_element(sig, rng, 3), _random_element(sig, rng, 3)
        samples.append(left * zero_divisor * right)
    for x in samples:
        expected = regular_rep_inverse(x)
        if expected is None:
            with pytest.raises(NotInvertibleError):
                x.inverse()
        else:
            inv = x.inverse()
            assert inv == expected
            assert x * inv == sig.one() == inv * x


def test_singular_elements_raise():
    cl10, cl11, cl33 = CliffordSignature(1, 0), CliffordSignature(1, 1), CliffordSignature(3, 3)
    singular = [
        CliffordSignature(0, 0).zero(),
        cl33.zero(),
        cl10.one() + cl10.basis_vector(1),
        cl11.basis_vector(1) + cl11.basis_vector(2),  # squares to 0
        cl33.vector((1, 2, 0, 0, -1, 3)) * (cl33.one() + cl33.blade((1, 4))) * cl33.blade((2, 5, 6)),
    ]
    for x in singular:
        with pytest.raises(NotInvertibleError):
            x.inverse()


def test_membership_reflection_and_generic():
    cl20 = CliffordSignature(2, 0)
    rep = clifford_group_membership(cl20.basis_vector(1))
    assert rep.in_gamma and not rep.in_even_part and rep.spin_witness is None
    cl30 = CliffordSignature(3, 0)
    # 2 + e1 is invertible but conjugation by it leaves grade one
    g = cl30.one().scale(2) + cl30.basis_vector(1)
    rep = clifford_group_membership(g)
    assert not rep.in_gamma
    with pytest.raises(NotGradeOneError):
        induced_matrix(g)
    # 1 + e1e2e3 is central in odd dimension: under the plain conjugation
    # action it acts as the identity, so both defining checks pass
    central = cl30.one() + cl30.blade((1, 2, 3))
    assert clifford_group_membership(central).in_gamma
    mat, pure = conjugation_matrix(central)
    assert pure and mat == [[1 if i == j else 0 for j in range(3)] for i in range(3)]


def test_membership_singular_element_is_not_in_gamma():
    cl11 = CliffordSignature(1, 1)
    for g in (cl11.one() + cl11.basis_vector(1), cl11.one() + cl11.blade((1, 2)), cl11.zero()):
        with pytest.raises(NotInvertibleError):
            conjugation_matrix(g)
        rep = clifford_group_membership(g)
        assert not rep.in_gamma and rep.spin_witness is None
        assert rep.in_even_part == g.is_even()


def test_membership_unit_vector_products():
    cl02 = CliffordSignature(0, 2)
    g = unit_vector_product(cl02, [(1, 0), (0, 1)])
    rep = clifford_group_membership(g)
    assert rep.in_gamma and rep.in_even_part
    assert rep.spin_witness is not None and len(rep.spin_witness) == 2
    mat = induced_matrix(g)
    assert det(mat) == 1 and preserves_form(cl02, mat)


def test_unit_vector_product_validates_q():
    cl20 = CliffordSignature(2, 0)
    with pytest.raises(ValueError):
        unit_vector_product(cl20, [(1, 1)])  # Q = 2


def test_reflection_determinant_convention():
    # conjugation by one generator fixes its axis and negates the others:
    # determinant (-1)^(n-1); even-length products always give +1
    rng = SplitMix64(52)
    for p, q in ((2, 0), (3, 0), (1, 2), (2, 2)):
        sig = CliffordSignature(p, q)
        n = p + q
        for k in (1, 2, 3, 4):
            axes = [rng.randint(1, n) for _ in range(k)]
            coords = []
            for axis in axes:
                vec = [0] * n
                vec[axis - 1] = 1
                coords.append(vec)
            g = unit_vector_product(sig, coords)
            mat = induced_matrix(g)
            assert preserves_form(sig, mat)
            assert det(mat) == Fraction((-1) ** ((n - 1) * k))


def test_quadratic_form_values():
    cl12 = CliffordSignature(1, 2)
    assert cl12.quadratic_form(cl12.vector((1, 0, 0))) == 1
    assert cl12.quadratic_form(cl12.vector((0, 1, 0))) == -1
    assert cl12.quadratic_form(cl12.vector((2, 1, 1))) == 4 - 1 - 1


def test_blade_rejects_bad_indices():
    cl20 = CliffordSignature(2, 0)
    assert cl20.blade((2, 1)) == -(cl20.basis_vector(2) * cl20.basis_vector(1))
    for indices, message in (((3,), "outside 1..2"), ((0, 1), "outside 1..2"), ((1, 1), "repeated")):
        with pytest.raises(ValueError, match=message):
            cl20.blade(indices)
