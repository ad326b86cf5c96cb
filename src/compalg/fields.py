"""Exact scalars: rationals, prime fields, and quadratic extensions k[sqrt(a)].

Conventions used throughout the package:

- rationals are `fractions.Fraction` values (lowest terms, positive denominator);
- prime-field residues are canonical integers in [0, p);
- a quadratic-extension element is a pair (x, y) standing for x + y*sqrt(a),
  with (sqrt(a))**2 = a held exactly;
- the conjugation of a quadratic extension maps x + y*sqrt(a) to x - y*sqrt(a).

A quadratic extension with a square `a` is deliberately allowed: it realizes
the split two-dimensional composition algebra k (+) k inside the same pair
representation.  Inverses are therefore decided by the norm x*conj(x), never
by assuming the extension is a field.  Characteristic 2 is rejected for
quadratic extensions (the conjugation degenerates there); the prime field
F_2 itself is available for plain matrix work.
"""

from fractions import Fraction
from math import isqrt

from .errors import FieldMismatchError, NotQuadExtError, ZeroDivisorError

YES = "yes"
NO = "no"


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for n < 3.3 * 10^24 with these bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """Base for the three scalar domains.  Instances are immutable and hashable."""

    characteristic = 0

    def element(self, value) -> "Scalar":
        return Scalar(self, self._coerce(value))

    def zero(self) -> "Scalar":
        return self.element(0)

    def one(self) -> "Scalar":
        return self.element(1)

    # raw-value ring operations, implemented per subclass
    def _coerce(self, value):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError


class RationalField(FieldSpec):
    characteristic = 0

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def _coerce(self, value):
        if isinstance(value, Scalar):
            if value.spec != self:
                raise FieldMismatchError("scalar from a different field")
            return value.raw
        return Fraction(value)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a


class PrimeField(FieldSpec):
    def __init__(self, p: int):
        if not _is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def _coerce(self, value):
        if isinstance(value, Scalar):
            if value.spec != self:
                raise FieldMismatchError("scalar from a different field")
            return value.raw
        if isinstance(value, Fraction):
            return self._mul(value.numerator % self.p, self._inv(value.denominator % self.p))
        return int(value) % self.p

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)


class QuadExt(FieldSpec):
    """k[sqrt(a)] over a rational or prime base field, elements stored as (x, y)."""

    def __init__(self, base: FieldSpec, a):
        if isinstance(base, QuadExt):
            raise ValueError("quadratic towers are not supported; base must be QQ or GF(p)")
        if base.characteristic == 2:
            raise ValueError("quadratic extensions need characteristic != 2")
        self.base = base
        self.a = base._coerce(a)
        if self.a == 0:
            raise ValueError("a must be nonzero")
        self.characteristic = base.characteristic
        # a square `a` makes the extension split (isomorphic to k (+) k)
        self._sqrt_a = square_root_raw(base, self.a)
        self.split = self._sqrt_a is not None

    def __repr__(self):
        return f"{self.base!r}[sqrt({self.a})]"

    def __eq__(self, other):
        return isinstance(other, QuadExt) and other.base == self.base and other.a == self.a

    def __hash__(self):
        return hash(("quad", self.base, self.a))

    def embed(self, value) -> "Scalar":
        """Base-field value as an extension element with zero sqrt(a) part."""
        return Scalar(self, (self.base._coerce(value), self.base._coerce(0)))

    def gen(self) -> "Scalar":
        """The element sqrt(a)."""
        return Scalar(self, (self.base._coerce(0), self.base._coerce(1)))

    def _coerce(self, value):
        if isinstance(value, Scalar):
            if value.spec == self:
                return value.raw
            if value.spec == self.base:
                return (value.raw, self.base._coerce(0))
            raise FieldMismatchError("scalar from a different field")
        if isinstance(value, tuple) and len(value) == 2:
            return (self.base._coerce(value[0]), self.base._coerce(value[1]))
        return (self.base._coerce(value), self.base._coerce(0))

    def _add(self, a, b):
        return (self.base._add(a[0], b[0]), self.base._add(a[1], b[1]))

    def _sub(self, a, b):
        return (self.base._sub(a[0], b[0]), self.base._sub(a[1], b[1]))

    def _mul(self, a, b):
        x1, y1 = a
        x2, y2 = b
        bb = self.base
        return (
            bb._add(bb._mul(x1, x2), bb._mul(self.a, bb._mul(y1, y2))),
            bb._add(bb._mul(x1, y2), bb._mul(y1, x2)),
        )

    def _neg(self, a):
        return (self.base._neg(a[0]), self.base._neg(a[1]))

    def _conj(self, a):
        return (a[0], self.base._neg(a[1]))

    def _norm(self, a):
        """x^2 - a*y^2, the base-field norm x*conj(x)."""
        bb = self.base
        return bb._sub(bb._mul(a[0], a[0]), bb._mul(self.a, bb._mul(a[1], a[1])))

    def _inv(self, a):
        if a == self._coerce(0):
            raise ZeroDivisionError("inverse of zero")
        n = self._norm(a)
        if n == self.base._coerce(0):
            raise ZeroDivisorError(f"{a} has zero norm; no inverse exists")
        ninv = self.base._inv(n)
        bb = self.base
        return (bb._mul(a[0], ninv), bb._mul(bb._neg(a[1]), ninv))


class Scalar:
    """Immutable exact scalar tagged with its field spec."""

    __slots__ = ("spec", "raw")

    def __init__(self, spec: FieldSpec, raw):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "raw", raw)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    def _check(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            if other.spec != self.spec:
                raise FieldMismatchError(f"{self.spec!r} vs {other.spec!r}")
            return other
        return self.spec.element(other)

    def __add__(self, other):
        other = self._check(other)
        return Scalar(self.spec, self.spec._add(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return Scalar(self.spec, self.spec._sub(self.raw, other.raw))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        other = self._check(other)
        return Scalar(self.spec, self.spec._mul(self.raw, other.raw))

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.spec, self.spec._neg(self.raw))

    def __truediv__(self, other):
        other = self._check(other)
        return self * other.inverse()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.spec == other.spec and self.raw == other.raw
        if isinstance(other, (int, Fraction)):
            return self.raw == self.spec._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.raw))

    def __repr__(self):
        return f"Scalar({self.raw!r} over {self.spec!r})"

    def is_zero(self) -> bool:
        return self.raw == self.spec._coerce(0)

    def inverse(self) -> "Scalar":
        """Multiplicative inverse.

        Raises ZeroDivisionError for zero and ZeroDivisorError for a nonzero
        non-unit (possible only in a split quadratic extension).
        """
        return Scalar(self.spec, self.spec._inv(self.raw))

    def conjugate(self) -> "Scalar":
        """Quadratic conjugation x + y*sqrt(a) -> x - y*sqrt(a)."""
        if not isinstance(self.spec, QuadExt):
            raise NotQuadExtError("conjugation is defined on quadratic extensions only")
        return Scalar(self.spec, self.spec._conj(self.raw))

    def quad_norm(self) -> "Scalar":
        """x*conj(x) as a base-field scalar."""
        if not isinstance(self.spec, QuadExt):
            raise NotQuadExtError("norm is defined on quadratic extensions only")
        return Scalar(self.spec.base, self.spec._norm(self.raw))


def _sqrt_mod_prime(v: int, p: int):
    """The smaller square root of v modulo the prime p, or None (Tonelli-Shanks).

    Returning the smaller of r and p - r makes the root canonical: it is the
    least r >= 0 with r*r = v (mod p).
    """
    v %= p
    if v == 0 or p == 2:
        return v
    if pow(v, (p - 1) // 2, p) != 1:
        return None
    # p - 1 = q * 2^e with q odd; z is any quadratic non-residue
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(v, q, p), pow(v, (q + 1) // 2, p)
    # invariant: r^2 = v * t, and t has order dividing 2^(e-1)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (e - i - 1), p)
        e, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return min(r, p - r)


def square_root_raw(spec: FieldSpec, value):
    """Exact square root of a raw base-field value, or None if there is none.

    For the rationals "none" means the value is not a perfect square (negative
    or with non-square numerator/denominator).  Over GF(p) the root is the
    least residue whose square is the value.
    """
    if isinstance(spec, RationalField):
        v = Fraction(value)
        if v < 0:
            return None
        rn, rd = isqrt(v.numerator), isqrt(v.denominator)
        if rn * rn == v.numerator and rd * rd == v.denominator:
            return Fraction(rn, rd)
        return None
    if isinstance(spec, PrimeField):
        return _sqrt_mod_prime(value, spec.p)
    raise ValueError("square roots are computed over QQ or GF(p) only")


def is_square(x: Scalar) -> str:
    """"yes" or "no": whether x is a square in its field, QQ or GF(p).

    Over GF(p), p odd, x is a square exactly when x = 0 or x^((p-1)/2) = 1
    (Euler's criterion).  Over QQ, x is a square exactly when x >= 0 and its
    numerator and denominator in lowest terms are both perfect squares.
    """
    if not isinstance(x.spec, (PrimeField, RationalField)):
        raise ValueError("is_square is defined over QQ or GF(p) only")
    return YES if square_root_raw(x.spec, x.raw) is not None else NO


def split_components(x: Scalar) -> tuple[Scalar, Scalar]:
    """Image of x under k[sqrt(a)] ~ k (+) k when a = s^2 is a base square.

    x + y*sqrt(a) maps to (x + y*s, x - y*s) componentwise.
    """
    spec = x.spec
    if not isinstance(spec, QuadExt) or not spec.split:
        raise NotQuadExtError("component decomposition needs a split quadratic extension")
    s = spec._sqrt_a
    bb = spec.base
    xr, yr = x.raw
    return (
        Scalar(bb, bb._add(xr, bb._mul(yr, s))),
        Scalar(bb, bb._sub(xr, bb._mul(yr, s))),
    )


def from_split_components(spec: QuadExt, c1: Scalar, c2: Scalar) -> Scalar:
    """Inverse of split_components (characteristic != 2 guaranteed by QuadExt)."""
    if not spec.split:
        raise NotQuadExtError("component decomposition needs a split quadratic extension")
    bb = spec.base
    half = bb._inv(bb._coerce(2))
    s_inv = bb._inv(spec._sqrt_a)
    x = bb._mul(bb._add(c1.raw, c2.raw), half)
    y = bb._mul(bb._mul(bb._sub(c1.raw, c2.raw), half), s_inv)
    return Scalar(spec, (x, y))


QQ = RationalField()
