"""Clifford algebras of nondegenerate diagonal quadratic forms over the rationals.

A signature (p, q) fixes generators e_1 .. e_n (n = p + q) with

    e_i * e_i = +1 for i <= p,   e_i * e_i = -1 for i > p,
    e_i * e_j = -e_j * e_i       for i != j,

and the 2^n basis blades are the subsets of {1..n} in graded lexicographic
order.  Each blade product is a single term, so `CliffordSignature` is a
table algebra over QQ on the element core of `quaternion`.  Its table, shared
read-only, is built once per signature per process and proved associative
on its 4^n pairs: e_A e_B = sigma(A, B) e_(A xor B) with sigma
bimultiplicative, a twisted group algebra of (Z/2)^n.
Coefficients are exact rationals, coerced once where an element is made, so
the real-coefficient statements are exercised through rational witnesses.
The center is read off the same table, with no elimination.

Inverses follow Shirokov's characteristic-polynomial recursion (a
Faddeev-LeVerrier scheme in a faithful representation of size
N = 2^ceil(n/2)): at most N - 1 <= 7 geometric products on the integer
coefficients of the element scaled by its common denominator, with no
2^n x 2^n elimination.  Every inverse is checked on both sides.  Conjugation
runs on the same integers, with one division at the end.

The conjugation action used throughout is the plain g x g^{-1} (untwisted);
for a product of k invertible generators the induced map on the span of the
e_i fixes the chosen axes and negates the rest, so its determinant is
(-1)^((n-1)k).  Products of an even number of unit vectors therefore always
induce special orthogonal maps, which is the property the harness checks.
Membership in the Clifford group is decided by the two defining conditions:
conjugation preserves grade one, and the induced matrix preserves the
diagonal form.  A factorization witness is only ever reported for elements
constructed as products of unit vectors; recovering one is out of scope.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import combinations
from types import MappingProxyType

from .errors import (
    InfeasibleError,
    NotGradeOneError,
    NotInvertibleError,
    SignatureMismatchError,
)
from .fields import QQ, QuadExt
from .quaternion import (
    Mat2Algebra,
    QuatAlgebra,
    TableAlgebra,
    TableElement,
    _table_mul,
)

MAX_DIMENSION = 6


def _blade_product(a: tuple, b: tuple, metric: tuple, index: dict):
    """(index of the blade, sign) of a*b: reordering sign plus metric contractions."""
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


def _check_twisted_table(terms, blades, metric):
    """Prove the blade table associative: e_A e_B = sigma(A, B) e_(A xor B) on all pairs.

    In bitmasks (bit b for e_(b+1)), sigma(A, B) = (-1)^popcount(B & P_A),
    P_A = (bits b with popcount(A >> (b+1)) odd) xor (A & negative-metric
    mask): the pairs a > b reorder, shared negative generators square to -1.
    P_A is GF(2)-linear in A, so sigma is bimultiplicative, hence a
    2-cocycle, which is associativity (Albuquerque and Majid, JPAA 171, 2002).
    """
    masks = [sum(1 << (g - 1) for g in blade) for blade in blades]
    where = {mask: i for i, mask in enumerate(masks)}
    negative = sum(1 << b for b, m in enumerate(metric) if m < 0)
    for a, row in zip(masks, terms):
        twist = (a & negative) ^ sum(1 << b for b in range(len(metric)) if (a >> (b + 1)).bit_count() & 1)
        for b, entry in zip(masks, row):
            if entry != (where[a ^ b], -1 if (b & twist).bit_count() & 1 else 1):
                raise ValueError("blade table is not sigma(A, B) e_(A xor B): not proved associative")


@cache
def _signature_table(p: int, q: int):
    """(metric, blades, blade_index, terms) of Cl(p, q), immutable and proved once."""
    n = p + q
    metric = (1,) * p + (-1,) * q
    blades = tuple(c for k in range(n + 1) for c in combinations(range(1, n + 1), k))
    index = {b: i for i, b in enumerate(blades)}
    terms = tuple(tuple(_blade_product(a, b, metric, index) for b in blades) for a in blades)
    _check_twisted_table(terms, blades, metric)
    return metric, blades, MappingProxyType(index), terms


class CliffordSignature(TableAlgebra):
    """Product table and blade indexing for Cl(p, q) with p + q <= 6."""

    field = QQ

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError("signature counts must be nonnegative")
        if p + q > MAX_DIMENSION:
            raise InfeasibleError(f"dimension {p + q} exceeds the budget {MAX_DIMENSION}")
        self.p, self.q, self.n = p, q, p + q
        self.metric, self.blades, self.blade_index, self._terms = _signature_table(p, q)
        self.dim = 1 << self.n
        self._one = (1,) + (0,) * (self.dim - 1)

    def __eq__(self, other):
        return isinstance(other, CliffordSignature) and (other.p, other.q) == (self.p, self.q)

    def __hash__(self):
        return hash(("clifford", self.p, self.q))

    def __repr__(self):
        return f"Cl({self.p},{self.q})"

    def element(self, coeffs) -> "Multivector":
        """From 2^n coefficients in blade order, or a {blade: coefficient} dict."""
        if isinstance(coeffs, dict):
            data = [0] * self.dim
            for key, value in coeffs.items():
                data[self.blade_index[tuple(key)]] = value
            coeffs = data
        return Multivector(self, [Fraction(c) for c in coeffs])

    def basis_vector(self, i: int) -> "Multivector":
        if not 1 <= i <= self.n:
            raise ValueError("generator index out of range")
        return self.element({(i,): 1})

    def blade(self, indices) -> "Multivector":
        key = tuple(sorted(indices))
        for pos, i in enumerate(key):
            if not 1 <= i <= self.n:
                raise ValueError(f"blade index {i} is outside 1..{self.n}")
            if pos and key[pos - 1] == i:
                raise ValueError(f"blade index {i} is repeated")
        return self.element({key: 1})

    def vector(self, coords) -> "Multivector":
        coords = list(coords)
        if len(coords) != self.n:
            raise ValueError("need one coordinate per generator")
        return self.element({(i,): c for i, c in enumerate(coords, start=1)})

    def quadratic_form(self, v: "Multivector") -> Fraction:
        """Q(v) for a grade-1 element: sum of metric-weighted squared coordinates."""
        coords = v.vector_part()
        if coords is None:
            raise NotGradeOneError("the quadratic form applies to vectors only")
        return sum(m * c * c for m, c in zip(self.metric, coords))


class Multivector(TableElement):
    """A CliffordSignature and its 2^n Fraction coefficients (see `element`), one per blade."""

    __slots__ = ("_factors",)
    _mismatch = (SignatureMismatchError, "multivectors over different signatures")

    def __init__(self, sig: CliffordSignature, coeffs, factors=None):
        super().__init__(sig, coeffs)
        object.__setattr__(self, "_factors", factors)
        if len(self.coeffs) != sig.dim:
            raise ValueError("coefficient vector has the wrong length")

    @property
    def sig(self) -> CliffordSignature:
        """The signature, read-only; the same object as `algebra`."""
        return self.algebra

    def __repr__(self):
        parts = []
        for blade, c in zip(self.sig.blades, self.coeffs):
            if c == 0:
                continue
            if not blade:
                parts.append(str(c))
                continue
            name = "e" + "".join(str(i) for i in blade)
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts) if parts else "0"

    def grades(self) -> set[int]:
        return {len(b) for b, c in zip(self.sig.blades, self.coeffs) if c}

    def vector_part(self):
        """Coordinates on e_1..e_n when the element is pure grade 1, else None."""
        if not self.grades() <= {1}:
            return None
        return [self.coeffs[self.sig.blade_index[(i,)]] for i in range(1, self.sig.n + 1)]

    def _negate_grades(self, odd) -> "Multivector":
        """The blades of each grade k with odd(k) true change sign."""
        return Multivector(self.sig, [-c if odd(len(b)) else c for b, c in zip(self.sig.blades, self.coeffs)])

    def grade_involution(self) -> "Multivector":
        """The automorphism that negates every odd grade: (xy)^ = x^ y^."""
        return self._negate_grades(lambda k: k % 2)

    def reversion(self) -> "Multivector":
        """The anti-automorphism that reverses each blade, sign (-1)^(k(k-1)/2) on grade k."""
        return self._negate_grades(lambda k: k * (k - 1) // 2 % 2)

    def is_even(self) -> bool:
        return all(g % 2 == 0 for g in self.grades())

    def inverse(self) -> "Multivector":
        """Two-sided inverse by the characteristic-polynomial recursion of `_inverse_parts`."""
        denom, _, y, s = self._inverse_parts()
        return Multivector(self.sig, [Fraction(denom * a, s) for a in y])

    def _inverse_parts(self):
        """Integers (denom, v, y, s) with v = denom x integral and x^{-1} = denom y / s.

        With U_1 = v and U_k = v (U_{k-1} - C_{k-1}), C_k = N <U_k>_0 / k, the
        C_k are the coefficients of the characteristic polynomial of v in a
        faithful N x N representation, N = 2^ceil(n/2), so every step is an
        exact integer division.  By Cayley-Hamilton U_N is the scalar s, which
        is zero exactly when x is singular, and y = U_{N-1} - C_{N-1}; v y = s
        is checked on both sides.
        """
        sig = self.sig
        table = sig._terms
        denom = math.lcm(*(c.denominator for c in self.coeffs))
        v = [c.numerator * (denom // c.denominator) for c in self.coeffs]
        size = 1 << ((sig.n + 1) // 2)
        y = [1] + [0] * (sig.dim - 1)  # U_{k-1} - C_{k-1}, with U_0 - C_0 = 1
        for k in range(1, size + 1):
            u = _table_mul(table, v, y, 0)
            if k == size:
                break
            c, rem = divmod(size * u[0], k)
            if rem:
                raise AssertionError("characteristic coefficient is not an integer")
            y = u
            y[0] -= c
        s = u[0]
        if any(u[1:]):
            raise AssertionError("U_N is not a scalar")
        if s == 0:
            raise NotInvertibleError("element is singular: its determinant is 0")
        if _table_mul(table, y, v, 0) != u:
            raise AssertionError("inverse failed two-sided verification")
        return denom, v, y, s


def unit_vector_product(sig: CliffordSignature, vectors) -> Multivector:
    """Product of vectors with Q(v) = +-1; the factorization is remembered.

    The factor list is the only source of a later membership witness.
    """
    factors, acc, denom = [], list(sig._one), 1
    for coords in vectors:
        v = sig.one()._check(coords) if isinstance(coords, Multivector) else sig.vector(coords)
        qv = sig.quadratic_form(v)
        if qv not in (1, -1):
            raise ValueError(f"factor has Q = {qv}, need a unit vector")
        factors.append(v)
        d = math.lcm(*(c.denominator for c in v.coeffs))
        acc = _table_mul(sig._terms, acc, [c.numerator * (d // c.denominator) for c in v.coeffs], 0)
        denom *= d
    return Multivector(sig, [Fraction(c, denom) for c in acc], factors=tuple(factors))


class Classification:
    """Cl(p, q) as Mat(matrix_size, base), base "R", "C" or "H"; two copies when `direct_sum`."""

    def __init__(self, base: str, matrix_size: int, direct_sum: bool):
        self.base, self.matrix_size, self.direct_sum = base, matrix_size, direct_sum

    def to_json(self):
        return {
            "base": self.base,
            "matrix_size": self.matrix_size,
            "direct_sum": self.direct_sum,
        }


def classify(p: int, q: int) -> Classification:
    """Matrix-algebra type of Cl(p, q) from (p - q) mod 8.

    The table is the standard one pinned by the small examples
    Cl(0,1) = C, Cl(1,0) = R+R, Cl(0,2) = H, Cl(1,1) = Cl(2,0) = Mat(2,R).
    """
    if p < 0 or q < 0:
        raise ValueError("signature counts must be nonnegative")
    n = p + q
    r = (p - q) % 8
    if r in (0, 2):
        return Classification("R", 1 << (n // 2), False)
    if r == 1:
        return Classification("R", 1 << ((n - 1) // 2), True)
    if r in (3, 7):
        return Classification("C", 1 << ((n - 1) // 2), False)
    if r in (4, 6):
        return Classification("H", 1 << ((n - 2) // 2), False)
    return Classification("H", 1 << ((n - 3) // 2), True)  # r == 5


def center_dimension(sig: CliffordSignature) -> int:
    """Dimension of the commutant of the generators, read off the blade table.

    Commuting with every generator already forces commuting with the whole
    algebra.  e_A * e_i and e_i * e_A are both +-e_(A xor {i}), so the
    commutation system is diagonal in the blade basis: an element commutes
    with e_i exactly when each of its blades does, and the commutant is
    spanned by the blades whose two signs agree for every generator.
    """
    gens = [sig.blade_index[(i,)] for i in range(1, sig.n + 1)]
    count = 0
    for idx, row in enumerate(sig._terms):
        central = True
        for e in gens:
            (k1, s1), (k2, s2) = row[e], sig._terms[e][idx]
            if k1 != k2:
                raise AssertionError("e_A e_i and e_i e_A land on different blades")
            central = central and s1 == s2
        count += central
    return count


class ClassificationReport:
    """The checks of `verify_classification`; `agree` is their conjunction."""

    def __init__(self, p, q, dimension, classification, center_dim, expected_center_dim,
                 complex_square_witness, transport, transport_ok):
        self.p, self.q, self.dimension, self.classification = p, q, dimension, classification
        self.center_dim, self.expected_center_dim = center_dim, expected_center_dim
        self.center_ok = center_dim == expected_center_dim
        self.complex_square_witness = complex_square_witness
        self.transport, self.transport_ok = transport, transport_ok

    def agree(self) -> bool:
        checks = [self.center_ok, self.dimension == 1 << (self.p + self.q)]
        if self.complex_square_witness is not None:
            checks.append(self.complex_square_witness)
        if self.transport_ok is not None:
            checks.append(self.transport_ok)
        return all(checks)

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "dimension": self.dimension,
            "classification": self.classification.to_json(),
            "center_dim": self.center_dim,
            "expected_center_dim": self.expected_center_dim,
            "center_ok": self.center_ok,
            "complex_square_witness": self.complex_square_witness,
            "transport": self.transport,
            "transport_ok": self.transport_ok,
            "agree": self.agree(),
        }


def verify_classification(p: int, q: int) -> ClassificationReport:
    """Center dimension, total dimension, and explicit small-case transports.

    The transports realize Cl(0,1) and Cl(1,0) inside quadratic extensions
    (split and nonsplit), Cl(0,2) inside the (-1,-1) quaternions, and
    Cl(1,1), Cl(2,0) inside 2x2 rational matrices, by comparing full product
    tables.
    """
    if p + q > 4:
        raise InfeasibleError("verification is budgeted to dimension p + q <= 4")
    sig = CliffordSignature(p, q)
    cls = classify(p, q)
    cdim = center_dimension(sig)
    expected = 2 if (cls.direct_sum or cls.base == "C") else 1
    witness = None
    if cls.base == "C":
        # the pseudoscalar generates the complex center; check its square is -1
        omega = sig.blade(range(1, sig.n + 1))
        witness = (omega * omega) == -sig.one() and (
            omega * sig.basis_vector(1) == sig.basis_vector(1) * omega
        )
    transport, images = _transport(sig)
    transport_ok = None if images is None else _transport_blades(sig, images)
    return ClassificationReport(
        p=p,
        q=q,
        dimension=sig.dim,
        classification=cls,
        center_dim=cdim,
        expected_center_dim=expected,
        complex_square_witness=witness,
        transport=transport,
        transport_ok=transport_ok,
    )


def _transport(sig):
    """(name, images of the blades) of the explicit realization, or (None, None)."""
    if (sig.p, sig.q) == (0, 2):
        H = QuatAlgebra(QQ, -1, -1)
        return "quaternion(-1,-1)", [H.one(), H.u(), H.v(), H.w()]
    if (sig.p, sig.q) in ((1, 1), (2, 0)):
        M = Mat2Algebra(QQ)
        e1 = M.element((1, 0, 0, -1))
        e2 = M.element((0, 1, 1, 0) if sig.q == 0 else (0, -1, 1, 0))  # e2*e2 = 1 in Cl(2,0), -1 in Cl(1,1)
        return "mat2", [M.one(), e1, e2, e1 * e2]
    if sig.n == 1:
        L = QuadExt(QQ, sig.metric[0])
        return ("split" if sig.p else "imaginary") + " quadratic", [L.one(), L.gen()]
    return None, None


def _transport_blades(sig, images) -> bool:
    for i, row in enumerate(sig._terms):
        for j, (idx, sign) in enumerate(row):
            expected = images[idx] if sign == 1 else -images[idx]
            if images[i] * images[j] != expected:
                return False
    return True


def _conjugation_ints(g: Multivector):
    """(M, s, grade_preserved) in integers, g e_j g^{-1} = (column j of M) / s.

    With v = D g and g^{-1} = D y / s (`_inverse_parts`), g e_j g^{-1} = v e_j y / s.
    """
    sig, table = g.sig, g.sig._terms
    _, v, y, s = g._inverse_parts()
    cols, pure = [], True
    for j in range(1, sig.n + 1):  # blade j is e_j
        image = _table_mul(table, _table_mul(table, v, [int(k == j) for k in range(sig.dim)], 0), y, 0)
        pure = pure and not (image[0] or any(image[sig.n + 1:]))
        cols.append(image[1 : sig.n + 1])
    return [list(row) for row in zip(*cols)], s, pure


def conjugation_matrix(g: Multivector):
    """(matrix, grade_preserved): the action of g on e_1..e_n by conjugation.

    The matrix collects the grade-1 coordinates of g e_j g^{-1} column by
    column; `grade_preserved` records whether every conjugate was exactly
    grade 1 (the first Clifford-group condition).
    """
    M, s, pure = _conjugation_ints(g)
    return [[Fraction(x, s) for x in row] for row in M], pure


def induced_matrix(g: Multivector):
    matrix, pure = conjugation_matrix(g)
    if not pure:
        raise NotGradeOneError("conjugation by g does not preserve grade one")
    return matrix


def preserves_form(sig: CliffordSignature, matrix, scale=1) -> bool:
    """B^T I_{p,q} B == scale * I_{p,q} exactly."""
    n, metric = sig.n, sig.metric
    return all(
        sum(matrix[k][i] * metric[k] * matrix[k][j] for k in range(n)) == (scale * metric[i] if i == j else 0)
        for i in range(n)
        for j in range(n)
    )


class MembershipReport:
    """Clifford-group membership, evenness, and the remembered factors if any."""

    def __init__(self, in_gamma: bool, in_even_part: bool, spin_witness: tuple | None):
        self.in_gamma, self.in_even_part, self.spin_witness = in_gamma, in_even_part, spin_witness

    def to_json(self):
        return {
            "in_gamma": self.in_gamma,
            "in_even_part": self.in_even_part,
            "spin_witness": None
            if self.spin_witness is None
            else [list(map(str, v.vector_part())) for v in self.spin_witness],
        }


def clifford_group_membership(g: Multivector) -> MembershipReport:
    """Grade-1 preservation plus form preservation; even part by inspection.

    `spin_witness` is the remembered factorization into an even number of
    unit vectors, present only for elements built by `unit_vector_product`.
    A singular element is not in the Clifford group.
    """
    try:
        M, s, pure = _conjugation_ints(g)
    except NotInvertibleError:
        in_gamma = False
    else:  # B = M / s preserves the form exactly when M^T I M = s^2 I
        in_gamma = pure and preserves_form(g.sig, M, s * s)
    witness = None
    factors = object.__getattribute__(g, "_factors")
    if factors is not None and len(factors) % 2 == 0:
        witness = factors
    return MembershipReport(
        in_gamma=in_gamma,
        in_even_part=g.is_even(),
        spin_witness=witness,
    )
