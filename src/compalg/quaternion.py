"""Four-dimensional associative composition algebras, on the table-algebra core.

Every algebra in this package has a basis whose products are single terms,
e_i*e_j = c*e_k, held as a table of pairs (k, c): these two realizations and
the Clifford algebras of `clifford`.  The core is written once, here:
`_table_mul` is the product through such a table, `_check_associativity`
the check of (e_i*e_j)*e_l = e_i*(e_j*e_l) term by term, and
`TableElement` (an algebra and its coordinates) the ring operations.
`CompositionElement` adds the inverse conj(z)/N(z), and `CompositionAlgebra`
checks the base field.  Two realizations supply the table, conjugation and
norm:

``QuatAlgebra(field, a, b)``
    basis (1, u, v, w) with u*u = a, v*v = b, w = u*v = -v*u, over a base of
    characteristic != 2.  The 16 pairs (k, +-a^i*b^j) are written down once
    from those relations; associativity is proved on them at import, on all
    64 basis triples by composing monomials, for every (a, b) over every field
    of characteristic != 2, which guards the sign choices in the u*w, w*v, w*w
    products; a construction only evaluates the table.

``Mat2Algebra(field)``
    the split algebra realized directly as 2x2 matrices over the base field,
    with conjugation the adjugate and norm the determinant; its table,
    E_rs * E_tu = [s = t] E_ru, has entries 0 and 1 in every field, so it is
    a class constant, checked once at import.  This form works in every
    characteristic (including 2) and is the one the flattening isomorphism
    Mat(n, Mat(2,k)) ~ Mat(2n,k) consumes.

For characteristic != 2 the two realizations are identified by the basis

    1 -> I,  u -> diag(1,-1),  v -> [[0,-1],[1,0]],  w -> [[0,-1],[-1,0]],

which exhibits Mat(2,k) as the (1,-1) algebra; `quat_to_mat2` / `mat2_to_quat`
implement that isomorphism and the test suite transports random products
through it.

Scalars act on the right everywhere in this package; since the algebras are
noncommutative the side matters and left variants are deliberately absent.
"""

from fractions import Fraction
from itertools import product
from math import gcd, isqrt
import operator

from .errors import (
    AlgebraMismatchError,
    InfeasibleError,
    NotInvertibleError,
)
from .fields import (
    FieldSpec,
    PrimeField,
    QuadExt,
    RationalField,
    Scalar,
    _is_probable_prime,
    _sqrt_mod_prime,
    square_root_raw,
)

SPLIT = "split"
NONSPLIT = "nonsplit"

# Integers are factored by trial division by every d <= _TRIAL_BOUND.  A
# cofactor left over is prime when it is at most _TRIAL_BOUND**2 or when
# `_is_probable_prime` accepts it; a composite cofactor above _TRIAL_BOUND**2
# cannot be split this way and raises InfeasibleError.
_TRIAL_BOUND = 10**6


def _factor(n: int) -> dict:
    """Prime factorization {p: e} of |n| for an integer n != 0."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if n > _TRIAL_BOUND**2 and not _is_probable_prime(n):
            raise InfeasibleError(
                f"{n} is composite with no factor up to {_TRIAL_BOUND}; cannot factor it"
            )
        out[n] = out.get(n, 0) + 1
    return out


def _squarefree(q):
    """(A, s, primes) with q = A * s^2, A a squarefree integer and s > 0 rational.

    `primes` lists the primes dividing A.
    """
    q = Fraction(q)
    num, den = q.numerator, q.denominator
    primes = [p for p, e in _factor(num * den).items() if e % 2]
    A = -1 if num < 0 else 1
    for p in primes:
        A *= p
    return A, Fraction(isqrt(num * den // A), den), primes


def _hilbert_symbol_odd(A: int, B: int, p: int) -> int:
    """(A, B)_p for squarefree integers A, B and an odd prime p (Serre, III.1.2)."""
    alpha, beta = A % p == 0, B % p == 0
    u, v = (A // p if alpha else A), (B // p if beta else B)
    sign = -1 if alpha and beta and p % 4 == 3 else 1
    if beta and pow(u % p, (p - 1) // 2, p) != 1:
        sign = -sign
    if alpha and pow(v % p, (p - 1) // 2, p) != 1:
        sign = -sign
    return sign


def _sqrt_mod_squarefree(a: int, primes) -> int:
    """r with r^2 = a modulo m = prod(primes) and |r| <= m/2, by CRT over the primes."""
    r, m = 0, 1
    for p in primes:
        rp = _sqrt_mod_prime(a, p)
        if rp is None:
            raise AssertionError(f"{a} is not a square mod {p} in a split descent")
        r += m * ((rp - r) * pow(m, -1, p) % p)
        m *= p
    return r - m if 2 * r > m else r


def _legendre_solution(a: int, a_primes, b: int, b_primes):
    """Integers (w, x, y), not all zero, with w^2 = a*x^2 + b*y^2.

    a and b are squarefree with (a, b)_v = +1 at every place v; `a_primes` and
    `b_primes` list their prime factors.  Lagrange's descent: with |a| <= |b|,
    pick r^2 = a (mod b), write r^2 - a = b*c*k^2 with c squarefree, so
    |c| < |b| and (a, c) = (a, b).  A solution (W, X, Y) for (a, c) lifts
    through the norm identity N(r + sqrt a) N(W + X sqrt a) = b (c k Y)^2.
    """
    if a == 1:
        return (1, 1, 0)
    if b == 1:
        return (1, 0, 1)
    if abs(a) > abs(b):
        w, y, x = _legendre_solution(b, b_primes, a, a_primes)
        return (w, x, y)
    if abs(b) == 1:
        raise AssertionError("(-1,-1) reached the Legendre descent")
    r = _sqrt_mod_squarefree(a, b_primes)
    c, k, c_primes = _squarefree((r * r - a) // b)
    W, X, Y = _legendre_solution(a, a_primes, c, c_primes)
    w, x, y = r * W + a * X, W + r * X, c * int(k) * Y
    g = gcd(gcd(w, x), y)
    return (w // g, x // g, y // g)


def _table_mul(terms, x, y, zero):
    """Product of raw coordinates x, y through a single-term table, as a list.

    terms[i][j] = (k, c) means e_i*e_j = c*e_k.  Zeros are skipped; nothing is reduced mod p.
    """
    acc = [zero] * len(x)
    right = [(j, yj) for j, yj in enumerate(y) if yj]
    for xi, row in zip(x, terms):
        if xi:
            for j, yj in right:
                k, c = row[j]
                if c:
                    acc[k] += xi * yj * c
    return acc


def _check_associativity(terms, mul, pairs=None):
    """(e_i*e_j)*e_l = e_i*(e_j*e_l) term by term, for every l and each pair (i, j).

    `pairs` defaults to all of them; `mul` multiplies two structure constants.
    """
    for i, j in pairs or product(range(len(terms)), repeat=2):
        k, c = terms[i][j]
        row_k, row_i = terms[k], terms[i]
        for l, (m, c2) in enumerate(terms[j]):
            left, c1 = row_k[l]
            right, c3 = row_i[m]
            a = mul(c, c1)  # c*c1*e_left must equal c2*c3*e_right
            if a != mul(c2, c3) or a and left != right:
                raise ValueError("structure constants are not associative")


class TableAlgebra:
    """Base of every algebra: a subclass sets `field`, `dim`, `_terms`, `_one` and `element`."""

    def zero(self):
        return self.element((0,) * self.dim)

    def one(self):
        return self.element(self._one)

    def from_base(self, value):
        return self.element(tuple(value if e else 0 for e in self._one))

    def _mul_raw(self, x, y):
        p = self.field.characteristic  # raw values over GF(p) are ints
        acc = _table_mul(self._terms, x, y, 0 if p else self.field._coerce(0))
        return tuple([v % p for v in acc]) if p else tuple(acc)


class TableElement:
    """An algebra and its coordinates; `_mismatch` is raised for another algebra's operand."""

    __slots__ = ("algebra", "coeffs")
    _mismatch = (AlgebraMismatchError, "operands live in different algebras")

    def __init__(self, algebra: TableAlgebra, coeffs):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _check(self, other):
        if not isinstance(other, TableElement) or other.algebra != self.algebra:
            error, message = self._mismatch
            raise error(message)
        return other

    def _zip(self, op, other):
        other = self._check(other)
        return type(self)(self.algebra, tuple(map(op, self.coeffs, other.coeffs)))

    def __add__(self, other):
        return self._zip(self.algebra.field._add, other)

    def __sub__(self, other):
        return self._zip(self.algebra.field._sub, other)

    def __neg__(self):
        return type(self)(self.algebra, tuple(map(self.algebra.field._neg, self.coeffs)))

    def __mul__(self, other):
        other = self._check(other)
        return type(self)(self.algebra, self.algebra._mul_raw(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, TableElement)
            and other.algebra == self.algebra
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.algebra, self.coeffs))

    def is_zero(self) -> bool:
        zero = self.algebra.field._coerce(0)
        return all(c == zero for c in self.coeffs)

    def scale(self, value):
        """Base-field scalar multiple (central, so no side to choose)."""
        f = self.algebra.field
        c = f._coerce(value)
        return type(self)(self.algebra, tuple(f._mul(x, c) for x in self.coeffs))


class CompositionAlgebra(TableAlgebra):
    """Base of both four-dimensional realizations: a QQ or GF(p) field."""

    dim = 4

    def __init__(self, field: FieldSpec):
        if not isinstance(field, (RationalField, PrimeField)):
            raise ValueError("base field must be QQ or GF(p)")
        self.field = field


class CompositionElement(TableElement):
    """A four-dimensional element; subclasses add `conjugate` and `norm`."""

    __slots__ = ()

    def is_unit(self) -> bool:
        return not self.norm().is_zero()

    def inverse(self):
        n = self.norm()
        if n.is_zero():
            raise NotInvertibleError(f"{self!r} has zero norm")
        return self.conjugate().scale(n.inverse())


# e_i * e_j = sign * a^i * b^j * e_k as (k, (sign, i, j)) on the basis
# (1, u, v, w), from u*u = a, v*v = b, w = u*v = -v*u
_QUAT_TERMS = (
    ((0, (1, 0, 0)), (1, (1, 0, 0)), (2, (1, 0, 0)), (3, (1, 0, 0))),
    ((1, (1, 0, 0)), (0, (1, 1, 0)), (3, (1, 0, 0)), (2, (1, 1, 0))),
    ((2, (1, 0, 0)), (3, (-1, 0, 0)), (0, (1, 0, 1)), (1, (-1, 0, 1))),
    ((3, (1, 0, 0)), (2, (-1, 1, 0)), (1, (1, 0, 1)), (0, (-1, 1, 1))),
)


def _monomial_mul(m, n):
    """Product of signed monomials (sign, i, j) = sign * a^i * b^j."""
    return (m[0] * n[0], m[1] + n[1], m[2] + n[2])


_check_associativity(_QUAT_TERMS, _monomial_mul)


class QuatAlgebra(CompositionAlgebra):
    """The quaternion algebra with parameters (a, b) over QQ or GF(p), p odd."""

    _one = (1, 0, 0, 0)

    def __init__(self, field: FieldSpec, a, b):
        super().__init__(field)
        if field.characteristic == 2:
            raise ValueError("quaternion coefficients need characteristic != 2")
        self.a = field.element(a)
        self.b = field.element(b)
        if self.a.is_zero() or self.b.is_zero():
            raise ValueError("parameters a, b must be nonzero")
        a, b, neg = self.a.raw, self.b.raw, field._neg
        value = {(0, 0): field._coerce(1), (1, 0): a, (0, 1): b, (1, 1): field._mul(a, b)}
        self._terms = [
            [(k, value[i, j] if sign > 0 else neg(value[i, j])) for k, (sign, i, j) in row]
            for row in _QUAT_TERMS
        ]
        self._split_state = None
        self._quad = None

    def __eq__(self, other):
        return (
            isinstance(other, QuatAlgebra)
            and other.field == self.field
            and other.a == self.a
            and other.b == self.b
        )

    def __hash__(self):
        return hash(("quat", self.field, self.a, self.b))

    def __repr__(self):
        return f"({self.a.raw},{self.b.raw})_{self.field!r}"

    def element(self, coeffs) -> "QuaternionElement":
        """Element x0 + x1*u + x2*v + x3*w from the coefficients (x0, x1, x2, x3)."""
        if len(coeffs) != 4:
            raise ValueError(f"a quaternion needs 4 coefficients, got {len(coeffs)}")
        return QuaternionElement(self, tuple(self.field._coerce(c) for c in coeffs))

    def u(self):
        return self.element((0, 1, 0, 0))

    def v(self):
        return self.element((0, 0, 1, 0))

    def w(self):
        return self.element((0, 0, 0, 1))

    def quad_subfield(self) -> QuadExt:
        """The subalgebra L = k[sqrt(a)] generated by u, used for the doubling coordinates."""
        if self._quad is None:
            self._quad = QuadExt(self.field, self.a.raw)
        return self._quad

    def has_mat2_form(self) -> bool:
        return self.a == self.field.element(1) and self.b == self.field.element(-1)

    @classmethod
    def split_form(cls, field: FieldSpec) -> "QuatAlgebra":
        """The (1,-1) algebra, the coefficient form of Mat(2,k) for char != 2."""
        return cls(field, 1, -1)

    def is_split_decision(self) -> str:
        """'split' or 'nonsplit'; a 'split' verdict comes with a verified witness.

        Over GF(p), p odd, every quaternion algebra splits.  The witness is
        s + u + x2*v for the least x2 >= 0 making a + b*x2^2 a square
        (Euler's criterion) and s its square root (Tonelli-Shanks).

        Over QQ, write a = A*s^2 and b = B*t^2 with A, B squarefree integers.
        The algebra splits if and only if the Hilbert symbol (A, B)_v is +1 at
        v = infinity (not both negative) and at every odd prime dividing AB;
        by Hilbert reciprocity the symbol at 2 then is +1 as well.  The
        witness w + (x/s)*u + (y/t)*v comes from a solution of
        w^2 = A*x^2 + B*y^2 found by Legendre descent.  Factoring is trial
        division up to 10^6; a composite cofactor above 10^12 left by it
        raises InfeasibleError.
        """
        if self._split_state is None:
            self._split_state = self._decide_split()
        return self._split_state[0]

    def split_witness(self):
        """A verified zero divisor when the decision is 'split', else None."""
        self.is_split_decision()
        return self._split_state[1]

    def _decide_split(self):
        if isinstance(self.field, PrimeField):
            z = self._fp_zero_divisor()
        else:
            z = self._qq_zero_divisor()
        if z is None:
            return (NONSPLIT, None)
        if z.is_zero() or not z.norm().is_zero():
            raise AssertionError(f"split witness {z!r} is not a zero divisor")
        return (SPLIT, z)

    def _fp_zero_divisor(self):
        # the values a + b*x2^2 and the squares each fill (p+1)/2 residues,
        # so some x2 <= (p-1)/2 meets a square
        a, b = self.a.raw, self.b.raw
        x2 = 0
        while True:
            s = square_root_raw(self.field, a + b * x2 * x2)
            if s is not None:
                return self.element((s, 1, x2, 0))
            x2 += 1

    def _qq_zero_divisor(self):
        A, s, a_primes = _squarefree(self.a.raw)
        B, t, b_primes = _squarefree(self.b.raw)
        if A < 0 and B < 0:
            return None
        for p in set(a_primes) | set(b_primes):
            if p != 2 and _hilbert_symbol_odd(A, B, p) == -1:
                return None
        w, x, y = _legendre_solution(A, a_primes, B, b_primes)
        return self.element((w, x / s, y / t, 0))


class QuaternionElement(CompositionElement):
    """Element x0 + x1*u + x2*v + x3*w with exact base-field coefficients."""

    __slots__ = ()

    def __repr__(self):
        return f"Quat{self.coeffs!r}"

    def conjugate(self) -> "QuaternionElement":
        f = self.algebra.field
        x0, x1, x2, x3 = self.coeffs
        return QuaternionElement(self.algebra, (x0, f._neg(x1), f._neg(x2), f._neg(x3)))

    def norm(self) -> Scalar:
        """z * conj(z) projected to the 1-component.

        The u, v, w components of the product are checked to vanish exactly.
        """
        prod = (self * self.conjugate()).coeffs
        zero = self.algebra.field._coerce(0)
        if prod[1] != zero or prod[2] != zero or prod[3] != zero:
            raise AssertionError("norm has a nonreal component; structure table is broken")
        return Scalar(self.algebra.field, prod[0])

    def cd_coords(self) -> tuple[Scalar, Scalar]:
        """Doubling coordinates (x, y) in L = k[sqrt(a)] with z = x + v*y.

        Identifying u with sqrt(a) gives x = x0 + x1*sqrt(a); the v-part
        satisfies v*(y0 + y1*sqrt(a)) = y0*v - y1*w, hence y = x2 - x3*sqrt(a).
        """
        L = self.algebra.quad_subfield()
        x0, x1, x2, x3 = self.coeffs
        f = self.algebra.field
        return (Scalar(L, (x0, x1)), Scalar(L, (x2, f._neg(x3))))

    @classmethod
    def from_cd_coords(cls, algebra: QuatAlgebra, x: Scalar, y: Scalar) -> "QuaternionElement":
        L = algebra.quad_subfield()
        if x.spec != L or y.spec != L:
            raise AlgebraMismatchError("coordinates must live in the doubling subfield")
        f = algebra.field
        return algebra.element((x.raw[0], x.raw[1], y.raw[0], f._neg(y.raw[1])))


class Mat2Algebra(CompositionAlgebra):
    """The split four-dimensional composition algebra as literal 2x2 matrices."""

    _one = (1, 0, 0, 1)

    # E_rs has coordinate 2r + s, and E_rs * E_tu = [s = t] E_ru in every field
    _terms = [[((i & 2) | (j & 1), int((i & 1) == (j >> 1))) for j in range(4)] for i in range(4)]

    def __eq__(self, other):
        return isinstance(other, Mat2Algebra) and other.field == self.field

    def __hash__(self):
        return hash(("mat2", self.field))

    def __repr__(self):
        return f"Mat2({self.field!r})"

    def element(self, entries) -> "Mat2Element":
        """Entries (m00, m01, m10, m11), or a 2x2 nested list."""
        if len(entries) == 2 and all(
            isinstance(row, (list, tuple)) and len(row) == 2 for row in entries
        ):
            entries = (entries[0][0], entries[0][1], entries[1][0], entries[1][1])
        if len(entries) != 4:
            raise ValueError(f"a 2x2 matrix needs 4 entries or 2 rows of 2, got {entries!r}")
        return Mat2Element(self, tuple(self.field._coerce(e) for e in entries))

    def is_split_decision(self) -> str:
        return SPLIT

    def split_witness(self) -> "Mat2Element":
        return self.element((0, 1, 0, 0))

    def has_mat2_form(self) -> bool:
        return True


_check_associativity(Mat2Algebra._terms, operator.mul)


class Mat2Element(CompositionElement):
    """2x2 matrix entries (m00, m01, m10, m11); conjugate is the adjugate."""

    __slots__ = ()

    @property
    def entries(self):
        """The coordinates (m00, m01, m10, m11), read-only; the same tuple as `coeffs`."""
        return self.coeffs

    def __repr__(self):
        m00, m01, m10, m11 = self.coeffs
        return f"[[{m00},{m01}],[{m10},{m11}]]"

    def conjugate(self) -> "Mat2Element":
        f = self.algebra.field
        m00, m01, m10, m11 = self.coeffs
        return Mat2Element(self.algebra, (m11, f._neg(m01), f._neg(m10), m00))

    def norm(self) -> Scalar:
        f = self.algebra.field
        m00, m01, m10, m11 = self.coeffs
        return Scalar(f, f._sub(f._mul(m00, m11), f._mul(m01, m10)))


def quat_to_mat2(z: QuaternionElement, target: Mat2Algebra | None = None) -> Mat2Element:
    """Image of a (1,-1) element under the 2x2 realization.

    1 -> I, u -> diag(1,-1), v -> [[0,-1],[1,0]], w -> [[0,-1],[-1,0]].
    """
    alg = z.algebra
    if not alg.has_mat2_form():
        raise AlgebraMismatchError("only the (1,-1) algebra has the registered 2x2 form")
    if target is None:
        target = Mat2Algebra(alg.field)
    f = alg.field
    x0, x1, x2, x3 = z.coeffs
    return target.element(
        (
            f._add(x0, x1),
            f._neg(f._add(x2, x3)),
            f._sub(x2, x3),
            f._sub(x0, x1),
        )
    )


def mat2_to_quat(m: Mat2Element, target: QuatAlgebra | None = None) -> QuaternionElement:
    """Inverse of `quat_to_mat2` (needs characteristic != 2)."""
    f = m.algebra.field
    if f.characteristic == 2:
        raise ValueError("the (1,-1) coefficient form does not exist in characteristic 2")
    if target is None:
        target = QuatAlgebra.split_form(f)
    elif not target.has_mat2_form():
        raise AlgebraMismatchError("target must be the (1,-1) algebra")
    m00, m01, m10, m11 = m.coeffs
    half = f._inv(f._coerce(2))
    return target.element(
        (
            f._mul(f._add(m00, m11), half),
            f._mul(f._sub(m00, m11), half),
            f._mul(f._sub(m10, m01), half),
            f._mul(f._neg(f._add(m01, m10)), half),
        )
    )


def swap_parameters(z: QuaternionElement, target: QuatAlgebra | None = None) -> QuaternionElement:
    """The natural isomorphism (a,b) -> (b,a): u and v trade places, w flips sign."""
    alg = z.algebra
    if target is None:
        target = QuatAlgebra(alg.field, alg.b.raw, alg.a.raw)
    f = alg.field
    x0, x1, x2, x3 = z.coeffs
    return target.element((x0, x2, x1, f._neg(x3)))
