"""Exact scalars: rationals, prime fields, and quadratic extensions k[sqrt(a)].

Conventions used throughout the package:

- rationals are `fractions.Fraction` values (lowest terms, positive denominator);
- prime-field residues are canonical integers in [0, p);
- raw base-field values combine with Python operators and are reduced once
  by the field's `_reduce`: the identity over QQ, `v % p` over GF(p).  Zero
  is tested by truthiness, never against a coerced 0;
- a quadratic-extension element is a pair (x, y) standing for x + y*sqrt(a),
  with (sqrt(a))**2 = a held exactly;
- the conjugation of a quadratic extension maps x + y*sqrt(a) to x - y*sqrt(a);
- one rule, `FieldSpec._exact`, refuses a float or a scalar of another field.

A quadratic extension with a square `a` is deliberately allowed: it realizes
the split two-dimensional composition algebra k (+) k inside the same pair
representation.  Inverses are therefore decided by the norm x*conj(x), never
by assuming the extension is a field.  Characteristic 2 is rejected for
quadratic extensions (the conjugation degenerates there); the prime field
F_2 itself is available for plain matrix work.
"""

from fractions import Fraction
from math import isqrt, lcm

from .errors import FieldMismatchError, Frozen, NotQuadExtError, ZeroDivisorError

YES = "yes"
NO = "no"


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    # Miller-Rabin with these bases is deterministic for n < 318665857834031151167461
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

    def _exact(self, value):
        """The one rule behind each field's fast path: its own Scalar gives its raw value, another's or a float raises."""
        if isinstance(value, Scalar):
            if value.spec != self:
                raise FieldMismatchError("scalar from a different field")
            return value.raw
        if isinstance(value, float):
            raise TypeError(f"a float is not an exact scalar: {value!r}; give an int or a Fraction")
        return value

    # raw-value ring operations: an operator, then the subclass's `_reduce`
    def _add(self, a, b):
        return self._reduce(a + b)

    def _sub(self, a, b):
        return self._reduce(a - b)

    def _mul(self, a, b):
        return self._reduce(a * b)

    def _neg(self, a):
        return self._reduce(-a)

    def _is_zero(self, a):
        return not a


class RationalField(FieldSpec):
    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def _coerce(self, value):
        if type(value) is Fraction:  # the common case, ahead of the ABC checks of `_exact`
            return value
        return Fraction(self._exact(value))

    def _reduce(self, v):
        return v

    def _ints(self, values):
        """(num, den): the values as integers over their least common denominator, so gcd(den, *num) = 1."""
        try:  # ints and Fractions, read with no Fraction made
            den = lcm(*[v.denominator for v in values])
        except AttributeError:  # a Scalar or a string (or a float, which `_coerce` refuses)
            return self._ints([self._coerce(v) for v in values])
        if den == 1:
            return tuple([v.numerator for v in values]), 1
        return tuple([v.numerator * (den // v.denominator) for v in values]), den

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, a)


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
        if type(value) is int:  # the common case, ahead of the ABC checks of `_exact`; a bool takes them
            return value % self.p
        value = self._exact(value)
        if isinstance(value, Fraction):
            return value.numerator * self._inv(value.denominator) % self.p
        return int(value) % self.p

    def _reduce(self, v):
        return v % self.p

    def _ints(self, values):
        """(num, 1): the values as residues in [0, p)."""
        p = self.p
        return tuple([v % p if type(v) is int else self._coerce(v) for v in values]), 1

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

    def gen(self) -> "Scalar":
        """The element sqrt(a)."""
        return self.element((0, 1))

    def _coerce(self, value):
        if isinstance(value, Scalar) and value.spec == self:
            return value.raw
        # anything else is a base value (a scalar of another field is refused there)
        if not (isinstance(value, tuple) and len(value) == 2):
            value = (value, 0)
        return (self.base._coerce(value[0]), self.base._coerce(value[1]))

    # on pairs, whose + would concatenate: each part is reduced by the base field
    def _add(self, a, b):
        return (self.base._add(a[0], b[0]), self.base._add(a[1], b[1]))

    def _sub(self, a, b):
        return (self.base._sub(a[0], b[0]), self.base._sub(a[1], b[1]))

    def _mul(self, a, b):
        x1, y1 = a
        x2, y2 = b
        r = self.base._reduce
        return (r(x1 * x2 + self.a * y1 * y2), r(x1 * y2 + y1 * x2))

    def _neg(self, a):
        return (self.base._neg(a[0]), self.base._neg(a[1]))

    def _conj(self, a):
        return (a[0], self.base._neg(a[1]))

    def _is_zero(self, a):
        return not any(a)

    def _norm(self, a):
        """x^2 - a*y^2, the base-field norm x*conj(x)."""
        x, y = a
        return self.base._reduce(x * x - self.a * y * y)

    def _inv(self, a):
        if self._is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        n = self._norm(a)
        if not n:
            raise ZeroDivisorError(f"{a} has zero norm; no inverse exists")
        ninv = self.base._inv(n)
        r = self.base._reduce
        return (r(a[0] * ninv), r(-a[1] * ninv))


class Scalar(Frozen):
    """Immutable exact scalar tagged with its field spec."""

    __slots__ = ("spec", "raw")

    def __init__(self, spec: FieldSpec, raw):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "raw", raw)

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
        return self.spec._is_zero(self.raw)

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


def _sqrt_mod_prime(v: int, p: int):
    """The least square root of v modulo the prime p, or None: Tonelli-Shanks (Cohen, Alg. 1.5.1).

    With p - 1 = q * 2^e, q odd, one power w = v^((q-1)/2) gives t = v*w^2 = v^q, whose
    2^(e-1)-th power is v^((p-1)/2): Euler's test, folded in.  Only a square gets r = v*w,
    with r^2 = v*t, and only t != 1 needs a non-residue, so p = 3 (mod 4) never does.
    The smaller of r and p - r is the least r >= 0 with r*r = v (mod p).
    """
    v %= p
    if v == 0 or p == 2:
        return v
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = q * 2^e with q odd
    q = (p - 1) >> e
    w = pow(v, q >> 1, p)
    t = v * w * w % p
    if pow(t, 1 << (e - 1), p) != 1:
        return None
    r = v * w % p
    if t != 1:  # only now is a non-residue z needed
        z = next(z for z in range(2, p) if pow(z, (p - 1) >> 1, p) == p - 1)
        c = pow(z, q, p)
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
    """(x + y*s, x - y*s): x + y*sqrt(a) under k[sqrt(a)] ~ k (+) k, when a = s^2 in k."""
    spec = x.spec
    if not isinstance(spec, QuadExt) or not spec.split:
        raise NotQuadExtError("component decomposition needs a split quadratic extension")
    bb = spec.base
    xr, yr = x.raw
    ys = yr * spec._sqrt_a
    return Scalar(bb, bb._add(xr, ys)), Scalar(bb, bb._sub(xr, ys))


QQ = RationalField()
