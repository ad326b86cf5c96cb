"""Clifford algebras of nondegenerate diagonal quadratic forms over the rationals.

A signature (p, q) fixes generators e_1 .. e_n (n = p + q) with

    e_i * e_i = +1 for i <= p,   e_i * e_i = -1 for i > p,
    e_i * e_j = -e_j * e_i       for i != j,

and the 2^n basis blades are the subsets of {1..n} in graded lexicographic
order.  The blade product table is built once per signature; associativity
is re-verified on all basis triples for n <= 4 and on a fixed sample for
larger n.  Coefficients are exact rationals, so the real-coefficient
statements are exercised through rational witnesses.

Inverses follow Shirokov's characteristic-polynomial recursion (a
Faddeev-LeVerrier scheme in a faithful representation of size
N = 2^ceil(n/2)): at most N - 1 <= 7 geometric products on the integer
coefficients of the element scaled by its common denominator, with no
2^n x 2^n elimination.  Every inverse is checked on both sides.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    InfeasibleError,
    NotGradeOneError,
    NotInvertibleError,
    SignatureMismatchError,
)
from . import ratlin

MAX_DIMENSION = 6


def _blade_product(a: tuple, b: tuple, metric: tuple):
    """Product of basis blades: reordering sign plus metric contractions."""
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
    return sign, tuple(result)


class CliffordSignature:
    """Product table and blade indexing for Cl(p, q) with p + q <= 6."""

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError("signature counts must be nonnegative")
        if p + q > MAX_DIMENSION:
            raise InfeasibleError(f"dimension {p + q} exceeds the budget {MAX_DIMENSION}")
        self.p = p
        self.q = q
        self.n = p + q
        self.metric = tuple([1] * p + [-1] * q)
        self.blades = sorted(
            (tuple(c) for k in range(self.n + 1) for c in combinations(range(1, self.n + 1), k)),
            key=lambda t: (len(t), t),
        )
        self.blade_index = {b: i for i, b in enumerate(self.blades)}
        self.dim = 1 << self.n
        self._table = [
            [
                (lambda s, r: (s, self.blade_index[r]))(*_blade_product(a, b, self.metric))
                for b in self.blades
            ]
            for a in self.blades
        ]
        self._verify_associativity()

    def _verify_associativity(self):
        size = self.dim
        if self.n <= 4:
            triples = (
                (i, j, k) for i in range(size) for j in range(size) for k in range(size)
            )
        else:
            state = 0x9E3779B97F4A7C15
            sampled = []
            for _ in range(2000):
                state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
                sampled.append(
                    ((state >> 8) % size, (state >> 24) % size, (state >> 40) % size)
                )
            triples = sampled
        for i, j, k in triples:
            s1, m = self._table[i][j]
            s2, left = self._table[m][k]
            t1, m2 = self._table[j][k]
            t2, right = self._table[i][m2]
            if (s1 * s2, left) != (t1 * t2, right):
                raise AssertionError("blade product table is not associative")

    def __eq__(self, other):
        return isinstance(other, CliffordSignature) and (other.p, other.q) == (self.p, self.q)

    def __hash__(self):
        return hash(("clifford", self.p, self.q))

    def __repr__(self):
        return f"Cl({self.p},{self.q})"

    def element(self, coeffs) -> "Multivector":
        if isinstance(coeffs, dict):
            data = [Fraction(0)] * self.dim
            for key, value in coeffs.items():
                data[self.blade_index[tuple(key)]] = Fraction(value)
            return Multivector(self, data)
        return Multivector(self, [Fraction(c) for c in coeffs])

    def zero(self):
        return Multivector(self, [Fraction(0)] * self.dim)

    def one(self):
        data = [Fraction(0)] * self.dim
        data[0] = Fraction(1)
        return Multivector(self, data)

    def basis_vector(self, i: int) -> "Multivector":
        if not 1 <= i <= self.n:
            raise ValueError("generator index out of range")
        data = [Fraction(0)] * self.dim
        data[self.blade_index[(i,)]] = Fraction(1)
        return Multivector(self, data)

    def blade(self, indices) -> "Multivector":
        key = tuple(sorted(indices))
        for pos, i in enumerate(key):
            if not 1 <= i <= self.n:
                raise ValueError(f"blade index {i} is outside 1..{self.n}")
            if pos and key[pos - 1] == i:
                raise ValueError(f"blade index {i} is repeated")
        data = [Fraction(0)] * self.dim
        data[self.blade_index[key]] = Fraction(1)
        return Multivector(self, data)

    def vector(self, coords) -> "Multivector":
        coords = list(coords)
        if len(coords) != self.n:
            raise ValueError("need one coordinate per generator")
        data = [Fraction(0)] * self.dim
        for i, c in enumerate(coords, start=1):
            data[self.blade_index[(i,)]] = Fraction(c)
        return Multivector(self, data)

    def quadratic_form(self, v: "Multivector") -> Fraction:
        """Q(v) for a grade-1 element: sum of metric-weighted squared coordinates."""
        coords = v.vector_part()
        if coords is None:
            raise NotGradeOneError("the quadratic form applies to vectors only")
        return sum(m * c * c for m, c in zip(self.metric, coords))


class Multivector:
    __slots__ = ("sig", "coeffs", "_factors")

    def __init__(self, sig: CliffordSignature, coeffs, factors=None):
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in coeffs))
        object.__setattr__(self, "_factors", factors)
        if len(self.coeffs) != sig.dim:
            raise ValueError("coefficient vector has the wrong length")

    def __setattr__(self, *_):
        raise AttributeError("Multivector is immutable")

    def _check(self, other):
        if not isinstance(other, Multivector):
            return self.sig.one().scale(other)
        if other.sig != self.sig:
            raise SignatureMismatchError("multivectors over different signatures")
        return other

    def __add__(self, other):
        other = self._check(other)
        return Multivector(self.sig, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._check(other)
        return Multivector(self.sig, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Multivector(self.sig, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._check(other)
        return Multivector(self.sig, _mul_raw(self.sig._table, self.coeffs, other.coeffs))

    def scale(self, value) -> "Multivector":
        value = Fraction(value)
        return Multivector(self.sig, [value * a for a in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, Multivector)
            and other.sig == self.sig
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.sig, self.coeffs))

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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def grades(self) -> set[int]:
        return {len(b) for b, c in zip(self.sig.blades, self.coeffs) if c != 0}

    def vector_part(self):
        """Coordinates on e_1..e_n when the element is pure grade 1, else None."""
        if not self.grades() <= {1}:
            return None
        return [self.coeffs[self.sig.blade_index[(i,)]] for i in range(1, self.sig.n + 1)]

    def grade_involution(self) -> "Multivector":
        return Multivector(
            self.sig,
            [c if len(b) % 2 == 0 else -c for b, c in zip(self.sig.blades, self.coeffs)],
        )

    def reversion(self) -> "Multivector":
        return Multivector(
            self.sig,
            [
                c if (len(b) * (len(b) - 1) // 2) % 2 == 0 else -c
                for b, c in zip(self.sig.blades, self.coeffs)
            ],
        )

    def is_even(self) -> bool:
        return all(g % 2 == 0 for g in self.grades())

    def inverse(self) -> "Multivector":
        """Two-sided inverse by the characteristic-polynomial recursion.

        With v = D x for D the common denominator, U_1 = v and
        U_k = v (U_{k-1} - C_{k-1}), C_k = N <U_k>_0 / k, the C_k are the
        coefficients of the characteristic polynomial of v in a faithful
        N x N representation, N = 2^ceil(n/2), so every step is an exact
        integer division.  By Cayley-Hamilton U_N is the scalar s, which is
        zero exactly when x is singular, and x^{-1} = D (U_{N-1} - C_{N-1}) / s.
        """
        sig = self.sig
        table = sig._table
        denom = math.lcm(*(c.denominator for c in self.coeffs))
        v = [c.numerator * (denom // c.denominator) for c in self.coeffs]
        size = 1 << ((sig.n + 1) // 2)
        y = [1] + [0] * (sig.dim - 1)  # U_{k-1} - C_{k-1}, with U_0 - C_0 = 1
        for k in range(1, size + 1):
            u = _mul_raw(table, v, y)
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
        if _mul_raw(table, y, v) != u:
            raise AssertionError("inverse failed two-sided verification")
        return Multivector(sig, [Fraction(denom * a, s) for a in y])


def _mul_raw(table, a, b):
    """Product of two raw coefficient lists through a blade product table."""
    out = [0] * len(a)
    right = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if not ai:
            continue
        row = table[i]
        for j, bj in right:
            sign, idx = row[j]
            out[idx] += sign * ai * bj
    return out


def unit_vector_product(sig: CliffordSignature, vectors) -> Multivector:
    """Product of vectors with Q(v) = +-1; the factorization is remembered.

    The factor list is the only source of a later membership witness.
    """
    factors = []
    acc = sig.one()
    for coords in vectors:
        v = sig.vector(coords) if not isinstance(coords, Multivector) else coords
        qv = sig.quadratic_form(v)
        if qv not in (1, -1):
            raise ValueError(f"factor has Q = {qv}, need a unit vector")
        factors.append(v)
        acc = acc * v
    return Multivector(sig, acc.coeffs, factors=tuple(factors))


@dataclass
class Classification:
    base: str  # "R", "C" or "H"
    matrix_size: int
    direct_sum: bool

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
    """Dimension of the commutant of the generators, by exact linear algebra.

    Commuting with every generator already forces commuting with the whole
    algebra, so one constraint block per generator suffices.
    """
    if sig.n == 0:
        return 1
    rows = []
    for i in range(1, sig.n + 1):
        e_idx = sig.blade_index[(i,)]
        block = [[Fraction(0)] * sig.dim for _ in range(sig.dim)]
        for idx in range(sig.dim):
            s1, k1 = sig._table[idx][e_idx]
            s2, k2 = sig._table[e_idx][idx]
            block[k1][idx] += s1
            block[k2][idx] -= s2
        rows.extend(block)
    return ratlin.nullity(rows, sig.dim)


@dataclass
class ClassificationReport:
    p: int
    q: int
    dimension: int
    classification: Classification
    center_dim: int
    expected_center_dim: int
    center_ok: bool
    complex_square_witness: bool | None
    transport: str | None
    transport_ok: bool | None

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
    transport = None
    transport_ok = None
    if (p, q) == (0, 2):
        transport, transport_ok = "quaternion(-1,-1)", _transport_cl02(sig)
    elif (p, q) in ((1, 1), (2, 0)):
        transport, transport_ok = "mat2", _transport_mat2(sig)
    elif (p, q) == (1, 0):
        transport, transport_ok = "split quadratic", _transport_quad(sig, 1)
    elif (p, q) == (0, 1):
        transport, transport_ok = "imaginary quadratic", _transport_quad(sig, -1)
    return ClassificationReport(
        p=p,
        q=q,
        dimension=sig.dim,
        classification=cls,
        center_dim=cdim,
        expected_center_dim=expected,
        center_ok=cdim == expected,
        complex_square_witness=witness,
        transport=transport,
        transport_ok=transport_ok,
    )


def _transport_cl02(sig) -> bool:
    from .fields import QQ
    from .quaternion import QuatAlgebra

    H = QuatAlgebra(QQ, -1, -1)
    images = [H.one(), H.u(), H.v(), H.w()]
    return _transport_blades(sig, images, lambda a, b: a * b)


def _transport_mat2(sig) -> bool:
    from .fields import QQ
    from .quaternion import Mat2Algebra

    M = Mat2Algebra(QQ)
    if (sig.p, sig.q) == (2, 0):
        e1 = M.element((1, 0, 0, -1))
        e2 = M.element((0, 1, 1, 0))
    else:  # (1, 1)
        e1 = M.element((1, 0, 0, -1))
        e2 = M.element((0, -1, 1, 0))
    images = [M.one(), e1, e2, e1 * e2]
    return _transport_blades(sig, images, lambda a, b: a * b)


def _transport_quad(sig, a) -> bool:
    from .fields import QQ, QuadExt

    L = QuadExt(QQ, a)
    images = [L.one(), L.gen()]
    return _transport_blades(sig, images, lambda x, y: x * y)


def _transport_blades(sig, images, mul) -> bool:
    for i in range(sig.dim):
        for j in range(sig.dim):
            sign, idx = sig._table[i][j]
            expected = images[idx] if sign == 1 else -images[idx]
            if mul(images[i], images[j]) != expected:
                return False
    return True


def twisted_adjoint(g: Multivector, m: Multivector) -> Multivector:
    """g m g^{-1} for a vector m; the action used for the orthogonal matrices."""
    if m.vector_part() is None:
        raise NotGradeOneError("the action is applied to vectors")
    return g * m * g.inverse()


def conjugation_matrix(g: Multivector):
    """(matrix, grade_preserved): the action of g on e_1..e_n by conjugation.

    The matrix collects the grade-1 coordinates of g e_j g^{-1} column by
    column; `grade_preserved` records whether every conjugate was exactly
    grade 1 (the first Clifford-group condition).
    """
    sig = g.sig
    ginv = g.inverse()
    cols = []
    pure = True
    for j in range(1, sig.n + 1):
        image = g * sig.basis_vector(j) * ginv
        if not image.grades() <= {1}:
            pure = False
        cols.append(
            [image.coeffs[sig.blade_index[(i,)]] for i in range(1, sig.n + 1)]
        )
    matrix = [[cols[j][i] for j in range(sig.n)] for i in range(sig.n)]
    return matrix, pure


def induced_matrix(g: Multivector):
    matrix, pure = conjugation_matrix(g)
    if not pure:
        raise NotGradeOneError("conjugation by g does not preserve grade one")
    return matrix


def preserves_form(sig: CliffordSignature, matrix) -> bool:
    """B^T I_{p,q} B == I_{p,q} exactly."""
    n = sig.n
    metric = sig.metric
    for i in range(n):
        for j in range(n):
            acc = sum(matrix[k][i] * metric[k] * matrix[k][j] for k in range(n))
            expected = metric[i] if i == j else 0
            if acc != expected:
                return False
    return True


@dataclass
class MembershipReport:
    in_gamma: bool
    in_even_part: bool
    spin_witness: tuple | None

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
    sig = g.sig
    try:
        matrix, pure = conjugation_matrix(g)
    except NotInvertibleError:
        in_gamma = False
    else:
        in_gamma = pure and preserves_form(sig, matrix)
    witness = None
    factors = object.__getattribute__(g, "_factors")
    if factors is not None and len(factors) % 2 == 0:
        witness = factors
    return MembershipReport(
        in_gamma=in_gamma,
        in_even_part=g.is_even(),
        spin_witness=witness,
    )
