"""Integer polynomials in one variable t and the closed-form Poincare series.

The quotient formula divides the product of (1 - t^(2s)) over the invariant
degrees of the big group by the same product for the equal-rank subgroup;
division is exact integer polynomial division and a nonzero remainder is an
error, which doubles as a sanity check that a degree pair is applicable.

Degree tables (fundamental invariant degrees of the reflection groups):

    A(n):     2, 3, ..., n            (SU(n))
    BC(n):    2, 4, ..., 2n           (Sp(n))
    D(n):     2, 4, ..., 2n-2, n      (SO(2n))
    U1SU(n):  2, 2, 3, ..., n         (U(1)*SU(n); the extra 2 is the
                                       degree of the one-dimensional factor)

Two product families come with their own closed forms and are cross-checked
against the quotient formula in the tests:

    sp_u1su_poincare(n)   = prod_{i=2..n}   (1 + t^(2i))   (Sp(n)/U(1)SU(n))
    so_u1su_poincare(n)   = prod_{i=2..n-1} (1 + t^(2i))   (SO(2n)/U(1)SU(n))

The real-Grassmannian product is indexed from i = 1 (the printed-from-zero
variant has a vanishing factor) and coincides with the ordinary t-binomial
coefficient; the oriented odd case uses the quartic-degree product below.
"""

from itertools import compress

from .errors import BranchUnavailableError, InexactDivisionError, RankMismatchError
from .termsplit import render_terms


class UniPoly:
    """Polynomial over the integers in t, coefficients indexed by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        ints = list(map(int, coeffs))
        if ints != coeffs:  # one comparison: some coefficient is not equal to its int
            raise ValueError(f"a coefficient must be an integer, got {next(c for c, i in zip(coeffs, ints) if c != i)!r}")
        while ints and ints[-1] == 0:
            ints.pop()
        object.__setattr__(self, "coeffs", tuple(ints))

    def __setattr__(self, *_):
        raise AttributeError("UniPoly is immutable")

    def __reduce__(self):
        return UniPoly, (self.coeffs,)

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def monomial(cls, degree, coeff=1):
        return cls([0] * degree + [coeff])

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and other.coeffs == self.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        width = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (width - len(self.coeffs))
        b = list(other.coeffs) + [0] * (width - len(other.coeffs))
        return UniPoly(x + y for x, y in zip(a, b))

    def __neg__(self):
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self or not other:
            return UniPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        terms = list(compress(enumerate(other.coeffs), other.coeffs))
        for i, a in compress(enumerate(self.coeffs), self.coeffs):
            for j, b in terms:
                out[i + j] += a * b
        return UniPoly(out)

    def exact_div(self, other) -> "UniPoly":
        """Quotient when the division is exact; InexactDivisionError otherwise."""
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        q = [0] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.coeffs[-1]
        terms = list(compress(enumerate(other.coeffs), other.coeffs))
        for k in range(len(q) - 1, -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if top % lead != 0:
                raise InexactDivisionError("division is not exact", remainder=UniPoly(rem))
            q[k] = c = top // lead
            if c:
                for j, b in terms:
                    rem[k + j] -= c * b
        if any(rem):
            raise InexactDivisionError("division is not exact", remainder=UniPoly(rem))
        return UniPoly(q)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_sparse(self) -> dict:
        return {str(i): c for i, c in enumerate(self.coeffs) if c}

    def _render(self, power: str) -> str:
        """The nonzero terms joined by signs, as "1 - 2t^4"; t^i for i >= 2 is `power.format(i)`."""
        pairs = [(c, None if i == 0 else "t" if i == 1 else power.format(i)) for i, c in enumerate(self.coeffs)]
        return render_terms(pairs, times="")

    def text(self) -> str:
        return self._render("t^{}")

    def latex(self) -> str:
        return self._render("t^{{{}}}")

    def __repr__(self):
        return f"UniPoly({self.text()})"


def one_minus(power: int) -> UniPoly:
    return UniPoly([1] + [0] * (power - 1) + [-1]) if power else UniPoly.zero()


def one_plus(power: int) -> UniPoly:
    return UniPoly.one() + UniPoly.monomial(power)


def product(factors) -> UniPoly:
    acc = UniPoly.one()
    for f in factors:
        acc = acc * f
    return acc


def _quotient(top, bottom) -> UniPoly:
    """The product of (1 - t^d) over d in top, divided exactly by the same product over bottom."""
    return product(map(one_minus, top)).exact_div(product(map(one_minus, bottom)))


class WeylDegrees:
    """A labeled multiset of fundamental invariant degrees."""

    __slots__ = ("label", "degrees")

    def __init__(self, label: str, degrees):
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "degrees", tuple(sorted(degrees)))

    def __setattr__(self, *_):
        raise AttributeError("WeylDegrees is immutable")

    def __reduce__(self):
        return WeylDegrees, (self.label, self.degrees)

    def __repr__(self):
        return f"WeylDegrees({self.label}: {list(self.degrees)})"

    def __eq__(self, other):
        return isinstance(other, WeylDegrees) and other.degrees == self.degrees

    def __hash__(self):
        return hash(self.degrees)

    @classmethod
    def type_a(cls, n: int) -> "WeylDegrees":
        if n < 1:
            raise ValueError("need n >= 1")
        return cls(f"A:{n}", range(2, n + 1))

    @classmethod
    def type_bc(cls, n: int) -> "WeylDegrees":
        if n < 1:
            raise ValueError("need n >= 1")
        return cls(f"BC:{n}", range(2, 2 * n + 1, 2))

    @classmethod
    def type_d(cls, n: int) -> "WeylDegrees":
        if n < 2:
            raise ValueError("need n >= 2")
        return cls(f"D:{n}", list(range(2, 2 * n - 1, 2)) + [n])

    @classmethod
    def u1su(cls, n: int) -> "WeylDegrees":
        if n < 1:
            raise ValueError("need n >= 1")
        return cls(f"U1SU:{n}", [2] + list(range(2, n + 1)))

    @classmethod
    def joint(cls, parts) -> "WeylDegrees":
        degrees = []
        for p in parts:
            degrees.extend(p.degrees)
        return cls("*".join(p.label for p in parts), degrees)


def hirsch(group: WeylDegrees, subgroup: WeylDegrees) -> UniPoly:
    """prod (1 - t^(2s)) / prod (1 - t^(2r)) over the two degree multisets."""
    if len(group.degrees) != len(subgroup.degrees):
        raise RankMismatchError(
            f"{group!r} and {subgroup!r} have different ranks; the quotient formula needs equal rank"
        )
    return _quotient([2 * s for s in group.degrees], [2 * r for r in subgroup.degrees])


def sp_u1su_poincare(n: int) -> UniPoly:
    """Sp(n)/U(1)SU(n): the product of (1 + t^(2i)) for i = 2..n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return product(one_plus(2 * i) for i in range(2, n + 1))


def so_u1su_poincare(n: int) -> UniPoly:
    """SO(2n)/U(1)SU(n): the product of (1 + t^(2i)) for i = 2..n-1."""
    if n < 3:
        raise ValueError("need n >= 3")
    return product(one_plus(2 * i) for i in range(2, n))


def gaussian_binomial(n: int, k: int, step: int = 1) -> UniPoly:
    """The q-binomial coefficient with q = t**step (step 1 or 2).

    Palindromic, and evaluates to the plain binomial coefficient at t = 1.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if step not in (1, 2):
        raise ValueError("step must be 1 or 2")
    return _quotient([step * i for i in range(n - k + 1, n + 1)], [step * i for i in range(1, k + 1)])


def grassmann_poincare(p: int, q: int) -> UniPoly:
    """Real Grassmannian O(p+q)/(O(p) x O(q)): prod_{i=1..p} (1-t^(q+i))/(1-t^i).

    Equals the t-binomial coefficient (p+q choose p); symmetric in p and q.
    """
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
    return _quotient(range(q + 1, q + p + 1), range(1, p + 1))


def oriented_grassmann_poincare(m: int, k: int) -> UniPoly:
    """SO(2m+1)/(SO(2k) x SO(2m+1-2k)) for 1 <= k <= m."""
    if not 1 <= k <= m:
        raise ValueError("need 1 <= k <= m")
    return _quotient([4 * i for i in range(m - k + 1, m + 1)], [4 * i for i in range(1, k)] + [2 * k])


def clifford_group_quotient_poincare(n: int, p: int, q: int) -> UniPoly:
    """Complex-over-real Clifford group quotient in signature (p, q).

    Even n multiplies the Grassmannian polynomial by (1 + t); odd n = 2m+1
    requires even p = 2k and uses the oriented quotient instead.
    """
    if p < 0 or q < 0 or p + q != n:
        raise ValueError("need p + q = n with p, q >= 0")
    if n % 2 == 0:
        return one_plus(1) * grassmann_poincare(p, q)
    if p % 2 != 0:
        raise BranchUnavailableError("the odd-dimension formula needs even p")
    m, k = (n - 1) // 2, p // 2
    return one_plus(1) * oriented_grassmann_poincare(m, k)
