"""Four-dimensional associative composition algebras, on the table-algebra core.

Every algebra in this package has a basis whose products are single terms,
e_i*e_j = c*e_k, held as a table of pairs (k, c): these two realizations and
the Clifford algebras of `clifford`.  The core is written once, here:
`_twisted_terms` the table of e_A*e_B = sigma(A, B)*e_(A xor B) on bitmask
blades, which builds the (a,b) table and every Clifford table,
`_check_associativity` the check of (e_i*e_j)*e_l = e_i*(e_j*e_l) term by
term, `_straight_line` the product through a table written out as integer
code, compiled once per family at import, and `TableElement` the ring
operations on an algebra and its coordinates, held as integers `num` over one
denominator `den` (Cohen, GTM 138, 4.2): over QQ den > 0 and gcd(den, *num) =
1, over GF(p) residues over 1.  `coeffs`, the Fractions a caller reads (over
GF(p) `num` itself), is built on its first read.  `CompositionElement` adds the
conjugation, the norm N with z*conj(z) = N*1 checked, and the inverse
conj(z)/N(z); `CompositionAlgebra` checks the base field and runs the
product.  Two realizations supply the table and the conjugation:

``QuatAlgebra(field, a, b)``
    basis (1, u, v, w) with u*u = a, v*v = b, w = u*v = -v*u, over a base of
    characteristic != 2.  It is the Clifford algebra of <a, b> with u = e1,
    v = e2, w = e12, so `_twisted_terms` builds its 16 pairs (k, +-a^i*b^j);
    associativity is proved on them at import, on all 64 basis triples by
    composing monomials, for every (a, b) over every field of characteristic
    != 2; the product takes 1, a, b and ab, all a construction stores.

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
from itertools import count, product
from math import gcd, isqrt, prod
import operator

from .errors import AlgebraMismatchError, Frozen, InfeasibleError, NotInvertibleError
from .fields import FieldSpec, PrimeField, QuadExt, RationalField, Scalar, _is_probable_prime, _sqrt_mod_prime, square_root_raw

SPLIT = "split"
NONSPLIT = "nonsplit"

# Integers are factored by trial division by every d <= _TRIAL_BOUND.  A
# cofactor left over is prime when it is at most _TRIAL_BOUND**2 or when
# `_is_probable_prime` accepts it; a composite cofactor above _TRIAL_BOUND**2
# cannot be split this way and raises InfeasibleError.
_TRIAL_BOUND = 10**6
_ZERO = Fraction(0)


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
    num, den = Fraction(q).as_integer_ratio()
    primes = [p for p, e in _factor(num * den).items() if e % 2]
    A = prod(primes, start=-1 if num < 0 else 1)
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
    g = gcd(w, x, y)
    return (w // g, x // g, y // g)


def _straight_line(terms, constant, args=""):
    """`mul(x, y<args>)`, the product through `terms` written out: output k sums, over the
    constants, each one times the signed sum of its x_i*y_j; `constant(c)` is (sign, name or "")."""
    sums = [{} for _ in terms]
    for i, row in enumerate(terms):
        for j, (k, c) in enumerate(row):
            sign, name = constant(c)
            if sign:
                sums[k].setdefault(name, []).append(f"{'-' if sign < 0 else '+'} x{i}*y{j}")
    outs = []
    for s in sums:
        parts = ((n, " ".join(t).lstrip("+ ")) for n, t in s.items())  # "+ x0*y0 - x1*y1" -> "x0*y0 - x1*y1"
        outs.append(" + ".join(f"{n}*({t})" if n else t for n, t in parts))
    x, y = (", ".join(f"{v}{i}" for i in range(len(terms))) for v in "xy")
    namespace = {}
    exec(f"def mul(x, y{args}):\n    {x} = x\n    {y} = y\n    return ({', '.join(outs)})", namespace)
    return namespace["mul"]


def _check_associativity(terms, mul):
    """(e_i*e_j)*e_l = e_i*(e_j*e_l) term by term on every basis triple; `mul`
    multiplies two structure constants."""
    for i, j in product(range(len(terms)), repeat=2):
        k, c = terms[i][j]
        row_k, row_i = terms[k], terms[i]
        for l, (m, c2) in enumerate(terms[j]):
            left, c1 = row_k[l]
            right, c3 = row_i[m]
            a = mul(c, c1)  # c*c1*e_left must equal c2*c3*e_right
            if a != mul(c2, c3) or a and left != right:
                raise ValueError("structure constants are not associative")


def _twisted_terms(n, constant):
    """(masks, terms) of a twisted group algebra of (Z/2)^n, the blades e_A bitmasks A (bit g for
    generator g + 1) in graded lexicographic order: e_A*e_B = constant(sign, A & B)*e_(A xor B),
    sign = (-1)^#{a in A, b in B: a > b} and A & B the generators squared."""
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), [g for g in range(n) if m >> g & 1]))
    where = {m: i for i, m in enumerate(masks)}
    terms = []
    for a in masks:
        twist = sum(1 << g for g in range(n) if (a >> (g + 1)).bit_count() & 1)  # bit g: an odd count of A above g
        terms.append(tuple((where[a ^ b], constant(-1 if (b & twist).bit_count() & 1 else 1, a & b)) for b in masks))
    return masks, tuple(terms)


class TableAlgebra:
    """Base of every algebra: a subclass sets `field`, `dim`, `_one`, `_den`, `element` and `_mul_raw`."""

    def zero(self):
        return self.element((0,) * self.dim)

    def one(self):
        return self.element(self._one)

    def from_base(self, value):
        return self.element(tuple(value if e else 0 for e in self._one))


class TableElement(Frozen):
    """An algebra and its coordinates num / den: over QQ integers num over den > 0 with gcd(den, *num) = 1,
    over GF(p) residues num in [0, p) over den = 1.  `_mismatch` is raised for another algebra's operand."""

    __slots__ = ("algebra", "num", "den", "_coeffs")  # `_coeffs` is set on the first read of `coeffs`
    _mismatch = (AlgebraMismatchError, "operands live in different algebras")

    def __init__(self, algebra: TableAlgebra, num, den=1):
        """num / den as given, in normal form; `algebra.element` reads coordinates, and `_new` normalises."""
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def _new(cls, algebra, num, den=1):
        """The element num / den from integers num and den != 0 (den = 1 over GF(p)), normalised."""
        if p := algebra.field.characteristic:
            num = [v % p for v in num]
        elif den != 1:
            g = gcd(den, *num) if den > 0 else -gcd(den, *num)
            num, den = [v // g for v in num], den // g
        new = object.__new__(cls)
        object.__setattr__(new, "algebra", algebra)
        object.__setattr__(new, "num", tuple(num))
        object.__setattr__(new, "den", den)
        return new

    @property
    def coeffs(self):
        """The coordinates as raw values: `num` over GF(p), Fractions over QQ (built once, one shared zero)."""
        if self.algebra.field.characteristic:
            return self.num
        if not hasattr(self, "_coeffs"):
            d = self.den
            object.__setattr__(self, "_coeffs", tuple([Fraction(v, d) if v else _ZERO for v in self.num]))
        return self._coeffs

    def _check(self, other):
        if not isinstance(other, TableElement) or other.algebra != self.algebra:
            error, message = self._mismatch
            raise error(message)
        return other

    def _zip(self, op, other):
        other = self._check(other)
        dx, dy = self.den, other.den
        return self._new(self.algebra, [op(x * dy, y * dx) for x, y in zip(self.num, other.num)], dx * dy)

    def __add__(self, other):
        return self._zip(operator.add, other)

    def __sub__(self, other):
        return self._zip(operator.sub, other)

    def __neg__(self):
        return self._new(self.algebra, [-v for v in self.num], self.den)

    def __mul__(self, other):
        other, alg = self._check(other), self.algebra
        return self._new(alg, alg._mul_raw(self.num, other.num), self.den * other.den * alg._den)

    def __eq__(self, other):
        return isinstance(other, TableElement) and other.algebra == self.algebra and (other.num, other.den) == (self.num, self.den)

    def __hash__(self):
        return hash((self.algebra, self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def scale(self, value):
        """Base-field scalar multiple (central, so no side to choose)."""
        c = self.algebra.field._coerce(value)  # a Fraction or a residue, which has denominator 1
        return self._new(self.algebra, [v * c.numerator for v in self.num], self.den * c.denominator)


class CompositionAlgebra(TableAlgebra):
    """Base of both four-dimensional realizations: a QQ or GF(p) field; a subclass sets
    `_family`, its straight-line product, and `_consts`, its integer constants times `_den`."""

    dim = 4
    _consts, _den = (), 1

    def __init__(self, field: FieldSpec):
        if not isinstance(field, (RationalField, PrimeField)):
            raise ValueError("base field must be QQ or GF(p)")
        self.field = field

    def _mul_raw(self, x, y):
        """The product of integer coordinates x and y, times `_den`, reduced mod p."""
        out, p = self._family(x, y, *self._consts), self.field.characteristic
        return tuple([v % p for v in out]) if p else out


class CompositionElement(TableElement):
    """A four-dimensional element; a subclass sets `_conj`, the coordinates of conj(z) from those of z."""

    __slots__ = ()

    def conjugate(self):
        return self._new(self.algebra, self._conj(*self.num), self.den)

    def norm(self) -> Scalar:
        """N with z * conj(z) = N * 1, the product checked to be that scalar exactly."""
        alg, num = self.algebra, self.num
        n, x, y, last = alg._mul_raw(num, self._conj(*num))  # reduced mod p
        if x or y or last != n * alg._one[3]:  # 1 is (1, 0, 0, 0) or (1, 0, 0, 1)
            raise AssertionError("norm has a nonreal component; structure table is broken")
        return Scalar(alg.field, n if alg.field.characteristic else Fraction(n, self.den**2 * alg._den))

    def inverse(self):
        n = self.norm()
        if n.is_zero():
            raise NotInvertibleError(f"{self!r} has zero norm")
        return self.conjugate().scale(n.inverse())


# (a,b) is the Clifford algebra of <a, b>, u = e1, v = e2, w = e12: e_i * e_j
# = sign * a^i * b^j * e_k, held as (k, (sign, i, j)), i and j the counts of u
# and v squared
_QUAT_TERMS = _twisted_terms(2, lambda sign, c: (sign, c & 1, c >> 1))[1]


def _monomial_mul(m, n):
    """Product of signed monomials (sign, i, j) = sign * a^i * b^j."""
    return (m[0] * n[0], m[1] + n[1], m[2] + n[2])


_check_associativity(_QUAT_TERMS, _monomial_mul)
# (a,b) constants as arguments: sign * a^i * b^j names one of 1, a, b, ab
_QUAT_MUL = _straight_line(_QUAT_TERMS, lambda m: (m[0], ("one", "a", "b", "ab")[m[1] + 2 * m[2]]), ", one, a, b, ab")


class QuatAlgebra(CompositionAlgebra):
    """The quaternion algebra with parameters (a, b) over QQ or GF(p), p odd."""

    _one = (1, 0, 0, 0)
    _family = staticmethod(_QUAT_MUL)

    def __init__(self, field: FieldSpec, a, b):
        super().__init__(field)
        if field.characteristic == 2:
            raise ValueError("quaternion coefficients need characteristic != 2")
        a, b = field._coerce(a), field._coerce(b)
        if not a or not b:
            raise ValueError("parameters a, b must be nonzero")
        self.a, self.b = Scalar(field, a), Scalar(field, b)
        # (1, a, b, ab) times d over QQ; a GF(p) residue v is an int, with ratio (v, 1)
        (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
        self._den, self._consts = ad * bd, (ad * bd, an * bd, bn * ad, an * bn)
        self._split_state = None
        self._quad = None

    def __eq__(self, other):
        return isinstance(other, QuatAlgebra) and (other.field, other.a, other.b) == (self.field, self.a, self.b)

    def __hash__(self):
        return hash(("quat", self.field, self.a, self.b))

    def __repr__(self):
        return f"({self.a.raw},{self.b.raw})_{self.field!r}"

    def element(self, coeffs) -> "QuaternionElement":
        """Element x0 + x1*u + x2*v + x3*w from the coefficients (x0, x1, x2, x3)."""
        if len(coeffs) != 4:
            raise ValueError(f"a quaternion needs 4 coefficients, got {len(coeffs)}")
        return QuaternionElement(self, *self.field._ints(coeffs))

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
        s + u + x2*v for the least x2 >= 0 making a + b*x2^2 a square and s
        its least square root, both from one Tonelli-Shanks pass per x2 that
        folds in Euler's criterion; it is checked on raw coordinates.

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
        for x2 in count():
            s = square_root_raw(self.field, a + b * x2 * x2)
            if s is not None:  # s and x2 < p are canonical residues already
                return QuaternionElement(self, (s, 1, x2, 0))

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
    _conj = staticmethod(lambda x0, x1, x2, x3: (x0, -x1, -x2, -x3))

    def __repr__(self):
        return f"Quat{self.coeffs!r}"

    def cd_coords(self) -> tuple[Scalar, Scalar]:
        """Doubling coordinates (x, y) in L = k[sqrt(a)] with z = x + v*y.

        Identifying u with sqrt(a) gives x = x0 + x1*sqrt(a); the v-part
        satisfies v*(y0 + y1*sqrt(a)) = y0*v - y1*w, hence y = x2 - x3*sqrt(a).
        """
        L = self.algebra.quad_subfield()
        x0, x1, x2, x3 = self.coeffs
        f = self.algebra.field
        return (Scalar(L, (x0, x1)), Scalar(L, (x2, f._neg(x3))))


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
            entries = (*entries[0], *entries[1])
        if len(entries) != 4:
            raise ValueError(f"a 2x2 matrix needs 4 entries or 2 rows of 2, got {entries!r}")
        return Mat2Element(self, *self.field._ints(entries))

    def is_split_decision(self) -> str:
        return SPLIT

    def split_witness(self) -> "Mat2Element":
        return self.element((0, 1, 0, 0))

    def has_mat2_form(self) -> bool:
        return True


_check_associativity(Mat2Algebra._terms, operator.mul)
Mat2Algebra._family = staticmethod(_straight_line(Mat2Algebra._terms, lambda c: (c, "")))


class Mat2Element(CompositionElement):
    """2x2 matrix entries (m00, m01, m10, m11); conjugate is the adjugate."""

    __slots__ = ()
    _conj = staticmethod(lambda m00, m01, m10, m11: (m11, -m01, -m10, m00))

    @property
    def entries(self):
        """The coordinates (m00, m01, m10, m11), read-only; the same tuple as `coeffs`."""
        return self.coeffs

    def __repr__(self):
        m00, m01, m10, m11 = self.coeffs
        return f"[[{m00},{m01}],[{m10},{m11}]]"


def quat_to_mat2(z: QuaternionElement, target: Mat2Algebra | None = None) -> Mat2Element:
    """Image of a (1,-1) element under the 2x2 realization.

    1 -> I, u -> diag(1,-1), v -> [[0,-1],[1,0]], w -> [[0,-1],[-1,0]].
    """
    alg = z.algebra
    if not alg.has_mat2_form():
        raise AlgebraMismatchError("only the (1,-1) algebra has the registered 2x2 form")
    if target is None:
        target = Mat2Algebra(alg.field)
    x0, x1, x2, x3 = z.coeffs
    return target.element((x0 + x1, -(x2 + x3), x2 - x3, x0 - x1))


def mat2_to_quat(m: Mat2Element, target: QuatAlgebra | None = None) -> QuaternionElement:
    """Inverse of `quat_to_mat2` (needs characteristic != 2)."""
    f = m.algebra.field
    if f.characteristic == 2:
        raise ValueError("the (1,-1) coefficient form does not exist in characteristic 2")
    if target is None:
        target = QuatAlgebra.split_form(f)
    elif not target.has_mat2_form():
        raise AlgebraMismatchError("target must be the (1,-1) algebra")
    m00, m01, m10, m11 = m.num
    return target.element((m00 + m11, m00 - m11, m10 - m01, -(m01 + m10))).scale(Fraction(1, 2 * m.den))
