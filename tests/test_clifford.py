import copy
import hashlib
import pickle
from fractions import Fraction
from itertools import combinations

import pytest

from compalg import clifford, matrices, ratlin
from compalg.errors import (
    InfeasibleError,
    NotGradeOneError,
    NotInvertibleError,
    ShapeError,
    SignatureMismatchError,
)
from compalg.clifford import (
    CliffordSignature,
    Multivector,
    center_dimension,
    classify,
    clifford_group_membership,
    conjugation_matrix,
    induced_matrix,
    preserves_form,
    unit_vector_product,
    verify_classification,
)
from compalg.fields import QQ
from compalg.quaternion import _check_associativity
from compalg.ratlin import det, solve_square
from compalg.rng import SplitMix64
from conftest import assert_normal


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
    x = cl10.element(["1/2", Fraction(1, 4)])
    assert x.coeffs == (Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(TypeError, match="float is not an exact scalar: 0.25"):
        cl10.element(["1/2", 0.25])
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


def _blade_product(a: tuple, b: tuple, metric: tuple, index) -> tuple:
    """The oracle: (index of the blade, sign) of e_a * e_b, each generator of b moved past the
    larger ones of a (a sign each) and contracted with an equal one by its square."""
    sign = 1
    result = list(a)
    for gen in b:
        pos = len(result)
        while pos > 0 and result[pos - 1] > gen:
            pos -= 1
            sign = -sign
        if pos > 0 and result[pos - 1] == gen:
            sign *= metric[gen - 1]
            result.pop(pos - 1)
        else:
            result.insert(pos, gen)
    return index[tuple(result)], sign


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(clifford.MAX_DIMENSION + 1) for p in range(n + 1)])
def test_signature_table_is_the_reordering_product_and_associative(p, q):
    sig, n = CliffordSignature(p, q), p + q
    assert sig.metric == (1,) * p + (-1,) * q
    assert sig.blades == tuple(c for k in range(n + 1) for c in combinations(range(1, n + 1), k))
    assert dict(sig.blade_index) == {b: i for i, b in enumerate(sig.blades)}
    for a, row in zip(sig.blades, sig._terms):
        assert row == tuple(_blade_product(a, b, sig.metric, sig.blade_index) for b in sig.blades), a
    _check_associativity(sig._terms, int.__mul__)


def _parent_table_mul(terms, x, y, zero):
    """Test oracle: the dense list kernel as it ran before sparse integer terms."""
    acc = [zero] * len(x)
    right = [(j, yj) for j, yj in enumerate(y) if yj]
    for xi, row in zip(x, terms):
        if xi:
            for j, yj in right:
                k, c = row[j]
                if c:
                    acc[k] += xi * yj * c
    return acc


@pytest.mark.parametrize("p, q", [(p, n - p) for n in range(clifford.MAX_DIMENSION + 1) for p in range(n + 1)])
def test_table_mul_matches_the_reordering_product_and_the_parent_kernel(p, q):
    sig = CliffordSignature(p, q)
    oracle = [[_blade_product(a, b, sig.metric, sig.blade_index) for b in sig.blades] for a in sig.blades]
    rng = SplitMix64(59 + 8 * p + q)

    def operand(draws):
        return {rng.randint(0, sig.dim - 1): rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(draws)}

    operands = [{}, {0: 1}, operand(1), operand(3), operand(sig.dim)]
    operands.append({k: rng.randint(1, 9) * rng.choice((-1, 1)) for k in range(sig.dim)})
    if sig.n >= 2:
        operands.append({1: 1, 2: 1})  # squared, e1e2 + e2e1 cancels
    for x in operands:
        for y in operands:
            got = clifford._table_mul(sig._terms, x, y)
            expected = {}
            for i, xi in x.items():
                for j, yj in y.items():
                    k, sign = oracle[i][j]
                    expected[k] = expected.get(k, 0) + sign * xi * yj
            assert got == {k: c for k, c in expected.items() if c}, (x, y)
            dense = [[v.get(k, 0) for k in range(sig.dim)] for v in (x, y)]
            assert [got.get(k, 0) for k in range(sig.dim)] == _parent_table_mul(sig._terms, *dense, 0)


def test_dimension_budget():
    with pytest.raises(InfeasibleError):
        CliffordSignature(4, 3)
    CliffordSignature(3, 3)  # dimension 64 is within the default budget


def _negate_grades(x, odd):
    """The blades of each grade k with odd(k) true change sign."""
    return x.sig.element([-c if odd(len(b)) else c for b, c in zip(x.sig.blades, x.coeffs)])


def grade_involution(x):
    """The automorphism that negates every odd grade: (xy)^ = x^ y^."""
    return _negate_grades(x, lambda k: k % 2)


def reversion(x):
    """The anti-automorphism that reverses each blade, sign (-1)^(k(k-1)/2) on grade k."""
    return _negate_grades(x, lambda k: k * (k - 1) // 2 % 2)


def test_involutions():
    cl30 = CliffordSignature(3, 0)
    e1 = cl30.basis_vector(1)
    assert grade_involution(e1) == -e1
    e12 = cl30.blade((1, 2))
    assert reversion(e12) == -e12
    assert grade_involution(e12) == e12
    rng = SplitMix64(51)

    def random_mv(sig):
        return sig.element([Fraction(rng.randint(-2, 2)) for _ in range(sig.dim)])

    for _ in range(100):
        x = random_mv(cl30)
        y = random_mv(cl30)
        assert reversion(x * y) == reversion(y) * reversion(x)
        assert grade_involution(x * y) == grade_involution(x) * grade_involution(y)


# classify(p, n - p) for p = 0..n on row n: base, matrix size, "+" for a direct sum
# (values recorded before classify read the mod-8 table, so they check the table)
CLASSIFY_PINS = [
    "R1",
    "C1 R1+",
    "H1 R2 R2",
    "H1+ C2 R2+ C2",
    "H2 H2 R4 R4 H2",
    "C4 H2+ C4 R4+ C4 H2+",
    "R8 H4 H4 R8 R8 H4 H4",
    "R8+ C8 H4+ C8 R8+ C8 H4+ C8",
    "R16 R16 H8 H8 R16 R16 H8 H8 R16",
]


def test_classify_examples():
    # rows 0-2 hold the small examples Cl(0,1) = C, Cl(1,0) = R+R, Cl(0,2) = H, Cl(1,1) = Cl(2,0) = Mat(2,R)
    for n, row in enumerate(CLASSIFY_PINS):
        for p, pin in enumerate(row.split()):
            expected = {"base": pin[0], "matrix_size": int(pin[1:].rstrip("+")), "direct_sum": pin.endswith("+")}
            assert classify(p, n - p).to_json() == expected, (p, n - p)
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


def twisted_adjoint(g, m):
    """Oracle: g m g^{-1} for a vector m, by two geometric products."""
    if m.vector_part() is None:
        raise NotGradeOneError("the action is applied to vectors")
    return g * m * g.inverse()


def test_twisted_adjoint_basics():
    cl20 = CliffordSignature(2, 0)
    e1, e2 = cl20.basis_vector(1), cl20.basis_vector(2)
    assert twisted_adjoint(cl20.one(), e1) == e1
    assert twisted_adjoint(e1, e2) == -e2
    assert twisted_adjoint(e1, e1) == e1
    with pytest.raises(NotGradeOneError):
        twisted_adjoint(e1, cl20.blade((1, 2)))
    # the library's action matrix holds the oracle's images column by column
    g = unit_vector_product(cl20, [(1, 0), (0, 1)]) + cl20.one()
    matrix, pure = conjugation_matrix(g)
    for j, e in enumerate((e1, e2)):
        assert pure and [row[j] for row in matrix] == twisted_adjoint(g, e).vector_part()


def test_induced_matrix_rotation():
    cl20 = CliffordSignature(2, 0)
    g = cl20.blade((1, 2))
    mat = induced_matrix(g)
    assert mat == [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert det(mat) == 1
    assert preserves_form(cl20, mat)


def test_preserves_form_agrees_with_the_entrywise_oracle():
    # the oracle sums each entry of B^T I B on its own; the one-pass check must
    # give the same verdict on form-preserving matrices, scaled ones and near misses
    rng = SplitMix64(61)
    verdicts = set()
    for p, q in ((2, 0), (1, 1), (1, 2), (2, 2), (3, 3)):
        sig, n = CliffordSignature(p, q), p + q
        for _ in range(20):
            axes = [rng.randint(1, n) for _ in range(rng.randint(1, 3))]
            g = unit_vector_product(sig, [[int(i == axis - 1) for i in range(n)] for axis in axes])
            preserving = induced_matrix(g)
            menu = [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)], preserving,
                    [[2 * x for x in row] for row in preserving]]
            nudged = [list(row) for row in preserving]
            nudged[rng.randint(0, n - 1)][rng.randint(0, n - 1)] += Fraction(1, 2)
            menu.append(nudged)
            for mat in menu:
                for scale in (1, 4):
                    expected = all(
                        sum(mat[k][i] * sig.metric[k] * mat[k][j] for k in range(n))
                        == (scale * sig.metric[i] if i == j else 0)
                        for i in range(n) for j in range(n)
                    )
                    assert preserves_form(sig, mat, scale) == expected, (p, q, mat, scale)
                    verdicts.add(expected)
    assert verdicts == {True, False}
    # a matrix that is not n x n is refused, not read on its overlap with I_{p,q}
    cl30 = CliffordSignature(3, 0)
    for mat in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0]]):
        with pytest.raises(ShapeError, match="3x3 matrix"):
            preserves_form(cl30, mat)


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


def test_conjugation_matrix_matches_fraction_products_on_seeded_versors():
    # g = v_1 ... v_k with Q(v_i) != 0 has g^-1 = v_k^-1 ... v_1^-1, v^-1 = v / Q(v),
    # so the oracle g e_j g^-1 needs Fraction products only
    rng = SplitMix64(54)
    for p, q in ((2, 0), (1, 2), (2, 2), (3, 1), (3, 3)):
        sig = CliffordSignature(p, q)
        for _ in range(4):
            vectors = []
            while len(vectors) < rng.randint(1, 4):
                v = sig.vector([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(sig.n)])
                if sig.quadratic_form(v) != 0:
                    vectors.append(v)
            g, g_inv = sig.one(), sig.one()
            for v in vectors:
                g, g_inv = g * v, v.scale(1 / sig.quadratic_form(v)) * g_inv
            assert g * g_inv == sig.one()
            for h, h_inv in ((g, g_inv), (g + sig.one().scale(3), None)):
                if h_inv is None:
                    h_inv = regular_rep_inverse(h) if sig.n <= 4 else h.inverse()
                matrix, pure = conjugation_matrix(h)
                images = [h * sig.basis_vector(j) * h_inv for j in range(1, sig.n + 1)]
                assert pure == all(image.grades() <= {1} for image in images) and (pure or h is not g)
                assert matrix == [[image.coeffs[i] for image in images] for i in range(1, sig.n + 1)]
                assert all(type(x) is Fraction for row in matrix for x in row)
            rep = clifford_group_membership(g)
            assert rep.in_gamma and preserves_form(sig, conjugation_matrix(g)[0])


def _corrupt_call(monkeypatch, call, blade):
    """Make the call-th `_table_mul` product add 1 on the given blade index."""
    original, count = clifford._table_mul, []

    def corrupt(terms, a, b):
        out = original(terms, a, b)
        count.append(1)
        if len(count) == call:
            out[blade] = out.get(blade, 0) + 1
        return out

    monkeypatch.setattr(clifford, "_table_mul", corrupt)


def test_inverse_checks_both_sides_and_the_scalar(monkeypatch):
    # a corrupted product inside the recursion is caught by the check that guards it
    cl11, cl30 = CliffordSignature(1, 1), CliffordSignature(3, 0)
    x = cl11.one().scale(2) + cl11.basis_vector(1)  # size 2: v*y twice, then y*v
    z = cl30.one().scale(2) + cl30.basis_vector(1) + cl30.blade((2, 3))  # size 4: C_3 = 4 <U_3>_0 / 3
    for g, call, blade, message in (
        (x, 2, 3, "U_N is not a scalar"),
        (x, 3, 3, "two-sided verification"),
        (z, 3, 0, "characteristic coefficient is not an integer"),
    ):
        with monkeypatch.context() as patch:
            _corrupt_call(patch, call, blade)
            with pytest.raises(AssertionError, match=message):
                g.inverse()
    assert x * x.inverse() == cl11.one() and z * z.inverse() == cl30.one()


@pytest.mark.parametrize("blade", [0, 4])  # below and above the grade-1 blades 1..3
def test_conjugation_checks_that_each_image_has_grade_one(monkeypatch, blade):
    # the inverse takes 4 products (size 4) and its check, then each e_j two more, its image last
    cl30 = CliffordSignature(3, 0)
    g = unit_vector_product(cl30, [(Fraction(3, 5), Fraction(4, 5), 0), (0, 0, 1)])
    matrix = induced_matrix(g)
    assert clifford_group_membership(g).in_gamma
    for call in (7, 9, 11):  # the images of e_1, e_2, e_3
        with monkeypatch.context() as patch:
            _corrupt_call(patch, call, blade)
            assert conjugation_matrix(g) == (matrix, False)
        with monkeypatch.context() as patch:
            _corrupt_call(patch, call, blade)
            assert not clifford_group_membership(g).in_gamma
        with monkeypatch.context() as patch:
            _corrupt_call(patch, call, blade)
            with pytest.raises(NotGradeOneError):
                induced_matrix(g)


def _seeded_unit_vector(rng, sig):
    """An axis vector, or (3/5, 4/5) on two axes of one metric sign, (5/4, 3/4) on mixed ones."""
    coords = [0] * sig.n
    i, j = rng.randint(0, sig.n - 1), rng.randint(0, sig.n - 1)
    if i == j:
        coords[i] = rng.choice((1, -1))
        return coords
    if sig.metric[i] < sig.metric[j]:
        i, j = j, i
    s, t = (Fraction(3, 5), Fraction(4, 5)) if sig.metric[i] == sig.metric[j] else (Fraction(5, 4), Fraction(3, 4))
    coords[i], coords[j] = s * rng.choice((1, -1)), t * rng.choice((1, -1))
    return coords


def test_clifford_outputs_match_the_dense_fraction_kernel_outputs():
    # the digest was taken with the dense list kernel on Fraction coordinates,
    # before products ran on sparse integer terms
    rng = SplitMix64(61)
    outputs, singular = [], 0
    for p, q in SIGNATURES_UP_TO_6[1:]:
        sig = CliffordSignature(p, q)
        for k in (1, 2, 3, 4):
            g = unit_vector_product(sig, [_seeded_unit_vector(rng, sig) for _ in range(k)])
            outputs.append((g.coeffs, conjugation_matrix(g), clifford_group_membership(g).to_json()))
        for terms in (1, 2, 3, 6):
            x = _random_element(sig, rng, terms)
            try:
                outputs.append((x.inverse().coeffs, conjugation_matrix(x)))
            except NotInvertibleError:
                singular += 1
            outputs.append(clifford_group_membership(x).to_json())
    assert 0 < singular < len(SIGNATURES_UP_TO_6)
    assert hashlib.sha256(repr(outputs).encode()).hexdigest() == "e1d8a26ece3fe2a23297c2d027b2f53a4fef9282b9e967ee42cc0da71f62e58e"


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
    # the report's JSON renders each remembered factor's vector part
    g = unit_vector_product(CliffordSignature(2, 0), [(Fraction(3, 5), Fraction(4, 5)), (0, 1)])
    assert clifford_group_membership(g).to_json() == {
        "in_gamma": True, "in_even_part": True, "spin_witness": [["3/5", "4/5"], ["0", "1"]]
    }


def test_unit_vector_product_validates_q():
    cl20, cl11 = CliffordSignature(2, 0), CliffordSignature(1, 1)
    # Q is checked in integers, sum m_i w_i^2 = +-d^2 for v = w / d: (1/2, 1/2) has sum d, not d^2
    for sig, coords, q in ((cl20, (1, 1), "2"), (cl20, ("1/2", "1/2"), "1/2"), (cl11, (1, 1), "0")):
        with pytest.raises(ValueError, match=f"factor has Q = {q}, need a unit vector"):
            unit_vector_product(sig, [coords])
    g = unit_vector_product(cl11, [cl11.vector((Fraction(3, 4), Fraction(5, 4))), (1, 0)])  # Q = -1, then 1
    assert g == cl11.vector((Fraction(3, 4), Fraction(5, 4))) * cl11.basis_vector(1)
    with pytest.raises(NotGradeOneError):
        unit_vector_product(cl20, [cl20.blade((1, 2))])
    with pytest.raises(SignatureMismatchError):
        unit_vector_product(cl20, [cl11.basis_vector(1)])


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


def test_quadratic_form_refuses_another_signature():
    # Q(e2) is -1 in Cl(1,1), not Cl(2,0)'s 1; a Cl(2,0) vector is not read as a
    # truncated Cl(3,0) one; an equal signature built again is the same signature
    cl20, cl11, cl30 = CliffordSignature(2, 0), CliffordSignature(1, 1), CliffordSignature(3, 0)
    for sig, v in ((cl20, cl11.basis_vector(2)), (cl30, cl20.vector((1, 0))), (cl11, cl20.vector((1, 1)))):
        with pytest.raises(SignatureMismatchError):
            sig.quadratic_form(v)
    with pytest.raises(SignatureMismatchError):
        cl20.quadratic_form((1, 0))
    assert cl20.quadratic_form(CliffordSignature(2, 0).vector((1, 2))) == 5
    assert cl11.quadratic_form(cl11.basis_vector(2)) == -1


def test_blade_rejects_bad_indices():
    cl20 = CliffordSignature(2, 0)
    assert cl20.blade((2, 1)) == -(cl20.basis_vector(2) * cl20.basis_vector(1))
    for indices, message in (((3,), "outside 1..2"), ((0, 1), "outside 1..2"), ((1, 1), "repeated")):
        with pytest.raises(ValueError, match=message):
            cl20.blade(indices)


def test_multivectors_hold_integer_numerators_over_one_denominator(table, canonical):
    """Over Cl(2,1), every route to an element leaves num / den in normal form (den > 0 with
    gcd(den, *num) = 1, also where the inverse's recursion ends on a negative scalar), `coeffs` is
    the tuple Fraction arithmetic gives, and equal elements built by different routes are equal."""
    sig = CliffordSignature(2, 1)
    ints, fracs = (1, 2, 0, -1, 0, 3, 0, 0), (Fraction(1, 2), 1, 0, Fraction(-2, 3), 0, 1, 0, Fraction(5, 4))
    X, Y = tuple(map(Fraction, ints)), tuple(map(Fraction, fracs))
    x, y, c = sig.element(ints), sig.element(fracs), Fraction(-6, 5)
    one = (Fraction(1),) + (Fraction(0),) * (sig.dim - 1)
    vectors = [(1, 1, 1), (Fraction(3, 5), Fraction(4, 5), 0)]
    product = table.product(sig, *(tuple(Fraction(v) for v in (0, *w, 0, 0, 0, 0)) for w in vectors))
    cases = [
        (x, X),
        (y, Y),
        (sig.element([QQ.element(v) for v in fracs]), Y),
        (sig.element({b: v for b, v in zip(sig.blades, fracs) if v}), Y),
        (x + y, tuple(a + b for a, b in zip(X, Y))),
        (x - y, tuple(a - b for a, b in zip(X, Y))),
        (-y, tuple(-a for a in Y)),
        (x * y, table.product(sig, X, Y)),
        (y.scale(c), tuple(a * c for a in Y)),
        (sig.vector(vectors[1]), (0, *vectors[1], 0, 0, 0, 0)),
        (unit_vector_product(sig, vectors), product),
    ]
    invertible = (x, y, sig.basis_vector(3), x + sig.one().scale(5))
    assert any(e._inverse_parts()[3] < 0 for e in invertible)  # a recursion that ends on a negative scalar
    for e in invertible:
        inverse = e.inverse()  # the one two-sided inverse, so the tuple any exact arithmetic gives
        assert table.product(sig, e.coeffs, inverse.coeffs) == one == table.product(sig, inverse.coeffs, e.coeffs)
        cases.append((inverse, inverse.coeffs))
    cases += [(twin, want) for e, want in cases for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e), copy.deepcopy(e))]
    for e, want in cases:
        assert_normal(e)
        assert type(e) is Multivector and e.coeffs == want, (e, want)
        canonical(QQ, e.coeffs)
    same = [y, sig.element([QQ.element(v) for v in fracs]), x.scale(0) + y, -(-y), y.scale(2).scale(Fraction(1, 2)),
            y.inverse().inverse(), pickle.loads(pickle.dumps(y))]
    for e in same:
        assert e == y and hash(e) == hash(y) and len({e, y}) == 1
    assert sig.one() != sig.one().scale(Fraction(1, 2)) and sig.one().num == sig.one().scale(Fraction(1, 2)).num
