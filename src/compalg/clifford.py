"""Clifford algebras of nondegenerate diagonal quadratic forms over the rationals.

A signature (p, q) fixes generators e_1 .. e_n (n = p + q) with

    e_i * e_i = +1 for i <= p,   e_i * e_i = -1 for i > p,
    e_i * e_j = -e_j * e_i       for i != j,

and the 2^n basis blades are the subsets of {1..n} in graded lexicographic
order, so blade i is e_i.  A blade product is one signed blade, so
`CliffordSignature` is a table algebra over QQ on the element core of
`quaternion`, its table shared read-only (`_signature_table`).  The sign is
bimultiplicative, hence a 2-cocycle, so the table is associative (a twisted
group algebra of (Z/2)^n; Albuquerque and Majid, JPAA 171, 2002; the tests
prove it).  The center is read off the same table, with no elimination.
Elements print as sums like "1/2 - 2*e12", which `cli.parse_multivector` reads.

Coefficients are exact rationals (rational witnesses stand in for real ones)
held as integers over one denominator; products run in `_table_mul` on their
nonzero terms, and no Fraction is made until `coeffs` is read.  Inverses follow
Shirokov's characteristic-polynomial recursion (Faddeev-LeVerrier in a faithful
representation of size N = 2^ceil(n/2)): at most N - 1 <= 7 products on those
integers, no 2^n x 2^n elimination, a check on both sides.  Conjugation runs
on the same integers, divided once at the end.

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

from fractions import Fraction
from functools import cache
from operator import mul
from types import MappingProxyType

from .errors import InfeasibleError, NotGradeOneError, NotInvertibleError, Report, ShapeError, SignatureMismatchError
from .fields import QQ, QuadExt
from .quaternion import Mat2Algebra, QuatAlgebra, TableAlgebra, TableElement, _twisted_terms
from .termsplit import render_terms

MAX_DIMENSION = 6


def _table_mul(terms, x, y):
    """Product of sparse integer terms {blade index: nonzero int} through the blade table; terms
    that cancel are dropped.  Operands have few terms, so a dense or straight-line product loses."""
    acc = {}
    for i, xi in x.items():
        row = terms[i]
        for j, yj in y.items():
            k, c = row[j]
            acc[k] = acc.get(k, 0) + c * xi * yj
    return {k: c for k, c in acc.items() if c}


def _sparse(num):
    """The nonzero integers of num as terms {index: int}."""
    return {i: c for i, c in enumerate(num) if c}


@cache
def _signature_table(p: int, q: int):
    """(metric, blades, blade_index, terms) of Cl(p, q), immutable and shared; each sign is the
    reordering sign, negated where A and B share an odd number of the generators squaring to -1."""
    negative = ((1 << q) - 1) << p
    masks, terms = _twisted_terms(p + q, lambda sign, c: -sign if (c & negative).bit_count() & 1 else sign)
    blades = tuple(tuple(g + 1 for g in range(p + q) if m >> g & 1) for m in masks)
    return (1,) * p + (-1,) * q, blades, MappingProxyType({b: i for i, b in enumerate(blades)}), terms


class CliffordSignature(TableAlgebra):
    """Product table and blade indexing for Cl(p, q) with p + q <= 6."""

    field, _den = QQ, 1

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0:
            raise ValueError("signature counts must be nonnegative")
        if p + q > MAX_DIMENSION:
            raise InfeasibleError(f"dimension {p + q} exceeds the budget {MAX_DIMENSION}")
        self.p, self.q, self.n = p, q, p + q
        self.metric, self.blades, self.blade_index, self._terms = _signature_table(p, q)
        self.dim = 1 << self.n
        self._one = (1,) + (0,) * (self.dim - 1)

    def __reduce__(self):
        return CliffordSignature, (self.p, self.q)  # the shared table holds a mappingproxy, rebuilt from (p, q)

    def __eq__(self, other):
        return isinstance(other, CliffordSignature) and (other.p, other.q) == (self.p, self.q)

    def __hash__(self):
        return hash(("clifford", self.p, self.q))

    def __repr__(self):
        return f"Cl({self.p},{self.q})"

    def _mul_raw(self, x, y):
        out = _table_mul(self._terms, _sparse(x), _sparse(y))
        return [out.get(k, 0) for k in range(self.dim)]

    def element(self, coeffs) -> "Multivector":
        """From 2^n coefficients in blade order, or a {blade: coefficient} dict."""
        if isinstance(coeffs, dict):
            data = [0] * self.dim
            for key, value in coeffs.items():
                data[self.blade_index[tuple(key)]] = value
            coeffs = data
        return Multivector(self, *QQ._ints(coeffs))

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
        return self.element([0, *coords] + [0] * (self.dim - self.n - 1))  # e_i is blade i

    def quadratic_form(self, v: "Multivector") -> Fraction:
        """Q(v) for a grade-1 element of this signature: sum of metric-weighted squared coordinates."""
        if not isinstance(v, Multivector) or v.sig != self:
            raise SignatureMismatchError("multivectors over different signatures")
        coords = v.vector_part()
        if coords is None:
            raise NotGradeOneError("the quadratic form applies to vectors only")
        return sum(m * c * c for m, c in zip(self.metric, coords))


class Multivector(TableElement):
    """A CliffordSignature and its 2^n coefficients (see `element`), one per blade, as integers over one denominator."""

    __slots__ = ("_factors",)
    _mismatch = (SignatureMismatchError, "multivectors over different signatures")

    def __init__(self, sig: CliffordSignature, num, den=1):
        super().__init__(sig, num, den)
        if len(num) != sig.dim:
            raise ValueError("coefficient vector has the wrong length")

    @property
    def sig(self) -> CliffordSignature:
        """The signature, read-only; the same object as `algebra`."""
        return self.algebra

    def __repr__(self):
        return render_terms(
            (c, "e" + "".join(map(str, blade)) if blade else None) for blade, c in zip(self.sig.blades, self.coeffs)
        )

    def grades(self) -> set[int]:
        return {len(b) for b, c in zip(self.sig.blades, self.num) if c}

    def vector_part(self):
        """Coordinates on e_1..e_n when the element is pure grade 1, else None."""
        return list(self.coeffs[1 : self.sig.n + 1]) if self.grades() <= {1} else None

    def is_even(self) -> bool:
        return all(g % 2 == 0 for g in self.grades())

    def inverse(self) -> "Multivector":
        """Two-sided inverse by the characteristic-polynomial recursion of `_inverse_parts`."""
        denom, _, y, s = self._inverse_parts()
        return Multivector._new(self.sig, [denom * y.get(k, 0) for k in range(self.sig.dim)], s)

    def _inverse_parts(self):
        """(denom, v, y, s), v = denom x and y sparse integers, with x^{-1} = denom y / s.

        With U_1 = v and U_k = v (U_{k-1} - C_{k-1}), C_k = N <U_k>_0 / k, the C_k
        are the coefficients of the characteristic polynomial of v in a faithful
        N x N representation, N = 2^ceil(n/2), so every division is exact.  By
        Cayley-Hamilton U_N is the scalar s, zero exactly when x is singular, and
        y = U_{N-1} - C_{N-1}; v y = s is checked on both sides.
        """
        table = self.sig._terms
        v, denom = _sparse(self.num), self.den
        size = 1 << ((self.sig.n + 1) // 2)
        y = {0: 1}  # U_{k-1} - C_{k-1}, with U_0 - C_0 = 1
        for k in range(1, size + 1):
            u = _table_mul(table, v, y)
            if k == size:
                break
            c, rem = divmod(size * u.get(0, 0), k)
            if rem:
                raise AssertionError("characteristic coefficient is not an integer")
            y = u
            if c:  # u_0 - c is nonzero: u_0 = c = N u_0 / k only when u_0 = 0
                y[0] = u.get(0, 0) - c
        s = u.pop(0, 0)
        if u:
            raise AssertionError("U_N is not a scalar")
        if s == 0:
            raise NotInvertibleError("element is singular: its determinant is 0")
        if _table_mul(table, y, v) != {0: s}:
            raise AssertionError("inverse failed two-sided verification")
        return denom, v, y, s


def unit_vector_product(sig: CliffordSignature, vectors) -> Multivector:
    """Product of vectors with Q(v) = +-1; the factorization is remembered.

    The factor list is the only source of a later membership witness.  With
    v = w / d, Q(v) = +-1 is checked in integers as sum m_i w_i^2 = +-d^2.
    """
    factors, acc, denom = [], {0: 1}, 1
    for coords in vectors:
        if isinstance(coords, Multivector):
            sig.quadratic_form(coords)  # raises unless coords is a grade-1 element of sig
            coords = coords.coeffs[1 : sig.n + 1]
        v = sig.vector(coords)
        w, d = _sparse(v.num), v.den
        if (qw := sum(sig.metric[i - 1] * c * c for i, c in w.items())) not in (d * d, -d * d):
            raise ValueError(f"factor has Q = {Fraction(qw, d * d)}, need a unit vector")
        factors.append(v)
        acc, denom = _table_mul(sig._terms, acc, w), denom * d
    out = Multivector._new(sig, [acc.get(k, 0) for k in range(sig.dim)], denom)
    object.__setattr__(out, "_factors", tuple(factors))  # the only elements that carry factors
    return out


class Classification(Report):
    """Cl(p, q) as Mat(matrix_size, base), base "R", "C" or "H"; two copies when `direct_sum`."""


# (base, shift, direct_sum) by (p - q) mod 8: Cl(p, q) is Mat(2^((p + q - shift) / 2), base), twice if direct_sum
_CLIFFORD_TYPES = (("R", 0, False), ("R", 1, True), ("R", 0, False), ("C", 1, False),
                   ("H", 2, False), ("H", 3, True), ("H", 2, False), ("C", 1, False))


def classify(p: int, q: int) -> Classification:
    """Matrix-algebra type of Cl(p, q) from (p - q) mod 8.

    The table is the standard one pinned by the small examples
    Cl(0,1) = C, Cl(1,0) = R+R, Cl(0,2) = H, Cl(1,1) = Cl(2,0) = Mat(2,R).
    """
    if p < 0 or q < 0:
        raise ValueError("signature counts must be nonnegative")
    base, shift, direct_sum = _CLIFFORD_TYPES[(p - q) % 8]
    return Classification(base=base, matrix_size=1 << ((p + q - shift) // 2), direct_sum=direct_sum)


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


class ClassificationReport(Report):
    """The checks of `verify_classification`; `agree` is their conjunction."""

    def agree(self) -> bool:
        checks = [self.center_ok, self.dimension == 1 << (self.p + self.q)]
        if self.complex_square_witness is not None:
            checks.append(self.complex_square_witness)
        if self.transport_ok is not None:
            checks.append(self.transport_ok)
        return all(checks)

    def to_json(self):
        return {**vars(self), "classification": self.classification.to_json(), "agree": self.agree()}


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
        center_ok=cdim == expected,
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
    n, table = g.sig.n, g.sig._terms
    _, v, y, s = g._inverse_parts()
    images = [_table_mul(table, _table_mul(table, v, {j: 1}), y) for j in range(1, n + 1)]  # blade j is e_j
    pure = set().union(*images) <= set(range(1, n + 1))
    return [[image.get(i, 0) for image in images] for i in range(1, n + 1)], s, pure


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
    """B^T I_{p,q} B == scale * I_{p,q} exactly, stopping at the first entry that differs."""
    if len(matrix) != sig.n or any(len(row) != sig.n for row in matrix):
        raise ShapeError(f"the form of {sig!r} needs a {sig.n}x{sig.n} matrix")
    metric = sig.metric
    cols = list(zip(*matrix))
    scaled = [list(map(mul, metric, col)) for col in cols]  # the rows of B^T I_{p,q}
    return all(
        sum(map(mul, left, right)) == (scale * metric[i] if i == j else 0)
        for i, left in enumerate(scaled)
        for j, right in enumerate(cols)
    )


class MembershipReport(Report):
    """Clifford-group membership, evenness, and the remembered factors if any."""

    def to_json(self):
        witness = self.spin_witness
        rendered = None if witness is None else [list(map(str, v.coeffs[1 : v.sig.n + 1])) for v in witness]
        return {**vars(self), "spin_witness": rendered}


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
    factors = getattr(g, "_factors", None)
    if factors is not None and len(factors) % 2 == 0:
        witness = factors
    return MembershipReport(
        in_gamma=in_gamma,
        in_even_part=g.is_even(),
        spin_witness=witness,
    )
