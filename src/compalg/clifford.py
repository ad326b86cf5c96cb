"""Clifford algebras of nondegenerate diagonal quadratic forms over the rationals.

A signature (p, q) fixes generators e_1 .. e_n (n = p + q) with

    e_i * e_i = +1 for i <= p,   e_i * e_i = -1 for i > p,
    e_i * e_j = -e_j * e_i       for i != j,

and the 2^n basis blades are the subsets of {1..n} in graded lexicographic
order.  Each blade product is a single term, so `CliffordSignature` is a
table algebra over QQ on the element core of `quaternion`.  Its table, shared
read-only, is built and checked once per signature per process: on every
basis triple for n <= 4, and for n = 5, 6 on each e_l after a fixed seeded
sample of pairs (e_i, e_j) of non-identity blades, at least 2,000 triples.
Coefficients are exact rationals, coerced once where an element is made, so
the real-coefficient statements are exercised through rational witnesses.
The center is read off the same table, with no elimination.

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
    _check_associativity,
    _table_mul,
)
from .rng import SplitMix64

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


@cache
def _signature_table(p: int, q: int):
    """(metric, blades, blade_index, terms) of Cl(p, q), immutable and checked once."""
    n = p + q
    metric = (1,) * p + (-1,) * q
    blades = tuple(c for k in range(n + 1) for c in combinations(range(1, n + 1), k))
    index = {b: i for i, b in enumerate(blades)}
    terms = tuple(tuple(_blade_product(a, b, metric, index) for b in blades) for a in blades)
    # every pair (i, j) for n <= 4; for n = 5, 6 seeded pairs of non-identity blades
    dim = len(blades)
    pairs, rng = set(), SplitMix64(dim)
    while n > 4 and len(pairs) * (dim - 1) < 2000:
        pairs.add((rng.randint(1, dim - 1), rng.randint(1, dim - 1)))
    _check_associativity(terms, int.__mul__, sorted(pairs))
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
        return {len(b) for b, c in zip(self.sig.blades, self.coeffs) if c != 0}

    def vector_part(self):
        """Coordinates on e_1..e_n when the element is pure grade 1, else None."""
        if not self.grades() <= {1}:
            return None
        return [self.coeffs[self.sig.blade_index[(i,)]] for i in range(1, self.sig.n + 1)]

    def _negate_grades(self, odd) -> "Multivector":
        """The blades of each grade k with odd(k) true change sign."""
        return Multivector(self.sig, [-c if odd(len(b)) else c for b, c in zip(self.sig.blades, self.coeffs)])

    def grade_involution(self) -> "Multivector":
        return self._negate_grades(lambda k: k % 2)

    def reversion(self) -> "Multivector":
        return self._negate_grades(lambda k: k * (k - 1) // 2 % 2)

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
        return Multivector(sig, [Fraction(denom * a, s) for a in y])


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
    H = QuatAlgebra(QQ, -1, -1)
    images = [H.one(), H.u(), H.v(), H.w()]
    return _transport_blades(sig, images)


def _transport_mat2(sig) -> bool:
    M = Mat2Algebra(QQ)
    e1 = M.element((1, 0, 0, -1))
    e2 = M.element((0, 1, 1, 0) if sig.q == 0 else (0, -1, 1, 0))  # e2*e2 = 1 in Cl(2,0), -1 in Cl(1,1)
    images = [M.one(), e1, e2, e1 * e2]
    return _transport_blades(sig, images)


def _transport_quad(sig, a) -> bool:
    L = QuadExt(QQ, a)
    images = [L.one(), L.gen()]
    return _transport_blades(sig, images)


def _transport_blades(sig, images) -> bool:
    for i, row in enumerate(sig._terms):
        for j, (idx, sign) in enumerate(row):
            expected = images[idx] if sign == 1 else -images[idx]
            if images[i] * images[j] != expected:
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
