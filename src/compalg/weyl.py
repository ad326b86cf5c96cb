"""Laurent polynomials with monomial signed-permutation actions.

A group element is a pair (permutation, sign vector): variable i is sent to
variable perm[i] raised to the power signs[i].  The flavors are

    Sym(n)             permutations, no sign flips        order n!
    Hyperoctahedral(n) permutations with arbitrary flips  order n! * 2^n
    EvenSigned(n)      even number of flips               order n! * 2^(n-1)
    Trivial(n)         identity only
    ProductGroup       factors acting on consecutive variable blocks

Invariant rings are probed three ways: Reynolds averaging, explicit
fundamental generators (elementary symmetric functions, plain or evaluated
on x_i + 1/x_i for the signed flavors), and a generation check decided by
the triangularity theorem: the generators, built once as raw
{exponent tuple: int} dicts, must lead with x_1...x_k at coefficient 1, and
then every orbit sum, listed from its dominant weight, is expressible over Z.
Every group, products included, is listed once, perm-major: each of
`_perms()` with every one of `_sign_vectors()`; `elements()` wraps the pairs
in SignedPerm.  Reynolds has one walk, once per distinct restriction to f's
support in the order the listing first meets it, on raw exponent tuples: its
terms come in first-occurrence order, and cancelled sums are dropped at the
end.  A LaurentPoly or its text is built only for output.  Its text is a sum
in the grammar of `termsplit`, printed by `LaurentPoly.text` and read by
`parse_laurent`.
Index counts |G| / |H| feed the free-module ranks in the K-group
bookkeeping: the quaternionic pair gives (2n)!/n!, the split pair the
central binomial coefficient, and the smallest split case 2.
"""

import re
from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial, lcm, prod
from operator import add, itemgetter

from .errors import (
    CompAlgError,
    Frozen,
    InfeasibleError,
    NotDividingError,
    Report,
    ShapeError,
    UnsupportedFlavorError,
)
from .termsplit import parse_terms, render_terms

DEFAULT_MAX_GROUP_ORDER = factorial(8) * 2**8  # hyperoctahedral of rank 8


class LaurentPoly(Frozen):
    """Finite map from integer exponent vectors to rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for expo, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ShapeError("exponent vector has the wrong length")
            clean[expo] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, nvars: int, terms: dict) -> "LaurentPoly":
        """Wrap terms already keyed by int tuples of length nvars, with nonzero Fraction values."""
        out = cls(nvars)
        object.__setattr__(out, "terms", terms)
        return out

    @classmethod
    def constant(cls, nvars: int, value) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int, power: int = 1) -> "LaurentPoly":
        expo = [0] * nvars
        expo[index] = power
        return cls(nvars, {tuple(expo): Fraction(1)})

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.constant(self.nvars, other)
        if other.nvars != self.nvars:
            raise ShapeError("operands have different variable counts")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            out[expo] = out.get(expo, Fraction(0)) + coeff
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        return LaurentPoly(self.nvars, _mul(self.terms, other.terms))

    __rmul__ = __mul__

    def scale(self, value) -> "LaurentPoly":
        value = Fraction(value)
        return LaurentPoly(self.nvars, {e: c * value for e, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def text(self) -> str:
        """Terms by descending exponent vector, as "3*x1^2*x2^-1 - x3 + 1/2"."""
        pairs = []
        for expo in sorted(self.terms, reverse=True):
            body = "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(expo) if e)
            pairs.append((self.terms[expo], body or None))
        return render_terms(pairs)

    def __repr__(self):
        return f"LaurentPoly({self.text()})"


def _mul(p: dict, q: dict) -> dict:
    """Product of two raw {exponent tuple: coefficient} polynomials."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


_MONOMIAL_RE = re.compile(r"x\d+(?:\^-?\d+)?(?:\s*\*?\s*x\d+(?:\^-?\d+)?)*")
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def parse_laurent(text: str, nvars: int) -> LaurentPoly:
    """Parse a sum like "x1^2*x2^-1 + 3" (the grammar of `termsplit`) into a LaurentPoly.

    A monomial is x<i>[^k] factors joined by '*', whitespace or nothing.
    """

    def exponents(monomial):
        if not _MONOMIAL_RE.fullmatch(monomial):
            raise ValueError(f"cannot parse monomial {monomial!r}")
        expo = [0] * nvars
        for var, power in _FACTOR_RE.findall(monomial):
            if not 0 < int(var) <= nvars:
                raise ValueError(f"variable x{var} out of range for {nvars} variables")
            expo[int(var) - 1] += int(power) if power else 1
        return tuple(expo)

    terms = {}
    for coeff, expo in parse_terms(text, exponents):
        expo = (0,) * nvars if expo is None else expo
        terms[expo] = terms.get(expo, 0) + coeff
    return LaurentPoly(nvars, terms)


class SignedPerm(Frozen):
    """perm maps position i to perm[i]; signs[i] = -1 inverts that variable."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        object.__setattr__(self, "perm", tuple(perm))
        object.__setattr__(self, "signs", tuple(signs))

    def __eq__(self, other):
        return (
            isinstance(other, SignedPerm)
            and other.perm == self.perm
            and other.signs == self.signs
        )

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return f"SignedPerm({self.perm}, {self.signs})"


def act(g: SignedPerm, f: LaurentPoly) -> LaurentPoly:
    """Monomial action: x_i -> x_{ g.perm[i] } ** g.signs[i]."""
    if len(g.perm) != f.nvars:
        raise ShapeError("group element and polynomial have different variable counts")
    out = {}
    for expo, coeff in f.terms.items():
        new = [0] * f.nvars
        for i, e in enumerate(expo):
            new[g.perm[i]] += g.signs[i] * e
        key = tuple(new)
        out[key] = out.get(key, Fraction(0)) + coeff
    return LaurentPoly(f.nvars, out)


class SignedPermGroup:
    """Elements perm-major, the one listing of every flavor: each of `_perms()`
    with every one of `_sign_vectors()`, as raw tuples."""

    flavor = "abstract"

    def __init__(self, n: int):
        self.n = n

    def order(self) -> int:
        raise NotImplementedError

    def _perms(self):
        return permutations(range(self.n))

    def _sign_vectors(self):
        return [(1,) * self.n]

    def elements(self):
        sign_vectors = self._sign_vectors()
        for perm in self._perms():
            for signs in sign_vectors:
                yield SignedPerm(perm, signs)

    def __repr__(self):
        return f"{self.flavor}({self.n})"

    def __eq__(self, other):
        return type(other) is type(self) and other.n == self.n

    def __hash__(self):
        return hash((self.flavor, self.n))


class SymGroup(SignedPermGroup):
    flavor = "Sym"

    def order(self):
        return factorial(self.n)


class TrivialGroup(SignedPermGroup):
    flavor = "Trivial"

    def order(self):
        return 1

    def _perms(self):
        return [tuple(range(self.n))]


class HyperoctahedralGroup(SignedPermGroup):
    flavor = "Hyperoctahedral"

    def order(self):
        return factorial(self.n) * 2**self.n

    def _sign_vectors(self):
        return list(product((1, -1), repeat=self.n))


class EvenSignedGroup(SignedPermGroup):
    flavor = "EvenSigned"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("the even-signed flavor needs n >= 2")
        super().__init__(n)

    def order(self):
        return factorial(self.n) * 2 ** (self.n - 1)

    def _sign_vectors(self):
        return [s for s in product((1, -1), repeat=self.n) if s.count(-1) % 2 == 0]


class ProductGroup(SignedPermGroup):
    flavor = "Product"

    def __init__(self, factors):
        self.factors = tuple(factors)
        super().__init__(sum(f.n for f in self.factors))

    def __repr__(self):
        return " x ".join(repr(f) for f in self.factors)

    def __eq__(self, other):
        return isinstance(other, ProductGroup) and other.factors == self.factors

    def __hash__(self):
        return hash(self.factors)

    def order(self):
        return prod(f.order() for f in self.factors)

    def _perms(self):
        """The factors' permutations shifted into their blocks, the first factor outermost."""
        blocks, offset = [], 0
        for f in self.factors:
            blocks.append([tuple(offset + i for i in p) for p in f._perms()])
            offset += f.n
        return (sum(parts, ()) for parts in product(*blocks))

    def _sign_vectors(self):
        return [sum(parts, ()) for parts in product(*(f._sign_vectors() for f in self.factors))]


def reynolds(G: SignedPermGroup, f: LaurentPoly) -> LaurentPoly:
    """Group average (1/|G|) sum g.f; idempotent on invariants.

    One pass over G's perm-major listing on f scaled to integers would add
    each g.f into the total in f's term order.  An image depends only on the
    element's restriction to f's support S, met |G| / R times (a coset of S's
    pointwise stabilizer, in the permutations and in the sign vectors), so
    the walk takes each of the R restrictions once, in the order the listing
    first meets it, and scales by R: the same value with its terms in the same
    first-occurrence order.  Cancelled sums are dropped once, at the end.
    """
    order = G.order()
    if order > DEFAULT_MAX_GROUP_ORDER:
        raise InfeasibleError(f"|G| = {order} exceeds the averaging budget {DEFAULT_MAX_GROUP_ORDER}")
    if G.n != f.nvars:
        raise ShapeError("group element and polynomial have different variable counts")
    denom = lcm(*(c.denominator for c in f.terms.values()))
    terms = [([(i, e) for i, e in enumerate(expo) if e], c.numerator * denom // c.denominator) for expo, c in f.terms.items()]
    support = sorted({i for entries, _ in terms for i, _ in entries})
    restrict = itemgetter(*support) if support else lambda t: ()
    perms = {restrict(p): p for p in G._perms()}  # restrictions in first-met order, each with one element
    signs = {restrict(s): s for s in G._sign_vectors()}
    acc = {}
    for perm in perms.values():
        for sign in signs.values():
            for entries, coeff in terms:
                new = [0] * f.nvars
                for i, e in entries:
                    new[perm[i]] = sign[i] * e
                key = tuple(new)
                acc[key] = acc.get(key, 0) + coeff
    values = {c: Fraction(c, denom * len(perms) * len(signs)) for c in set(acc.values()) if c}
    return LaurentPoly._trusted(f.nvars, {expo: values[c] for expo, c in acc.items() if c})


def _generator_rows(flavor: str, n: int) -> list[dict]:
    """e_1..e_n as raw integer polynomials: the coefficients of t^k in prod (1 + t*b_i)."""
    if flavor not in ("Sym", "Hyperoctahedral"):
        raise UnsupportedFlavorError(f"no generator table for flavor {flavor!r}")
    elementary = [{(0,) * n: 1}] + [{} for _ in range(n)]
    for i in range(n):
        unit = tuple(int(j == i) for j in range(n))
        b = {unit: 1} if flavor == "Sym" else {unit: 1, tuple(-e for e in unit): 1}
        for k in range(n, 0, -1):
            for expo, coeff in _mul(elementary[k - 1], b).items():
                elementary[k][expo] = elementary[k].get(expo, 0) + coeff
    return elementary[1:]


def fundamental_generators(flavor: str, n: int) -> list[LaurentPoly]:
    """Sym: e_1..e_n in the variables; Hyperoctahedral: e_1..e_n in x_i + 1/x_i."""
    return [LaurentPoly(n, row) for row in _generator_rows(flavor, n)]


def weyl_index(G: SignedPermGroup, H: SignedPermGroup) -> int:
    """|G| / |H|; the subgroup is specified independently, only orders are used."""
    g, h = G.order(), H.order()
    if g % h != 0:
        raise NotDividingError(f"|{H!r}| = {h} does not divide |{G!r}| = {g}")
    return g // h


def ktheory_rank(kind: str, n: int | None = None) -> int:
    """Rank of the free module of K-group summands for the three standard pairs.

    quaternionic(n): index of Sym(n) in Sym(2n), i.e. (2n)!/n!.
    split(n): index of Sym(n) x Sym(n) in Sym(2n), the central binomial.
    one_dim_split: the two-summand degenerate case.
    """
    if kind == "one_dim_split":
        return weyl_index(SymGroup(2), ProductGroup([SymGroup(1), SymGroup(1)]))
    if n is None or n < 1:
        raise ValueError("need n >= 1")
    if kind == "quaternionic":
        return weyl_index(SymGroup(2 * n), SymGroup(n))
    if kind == "split":
        return weyl_index(SymGroup(2 * n), ProductGroup([SymGroup(n), SymGroup(n)]))
    raise ValueError(f"unknown pair kind {kind!r}")


class GenerationReport(Report):
    """Orbit sums in the box [-degree_bound, degree_bound]^n, counted by
    `verify_generation`: each one checked is expressible, so `inconclusive`
    stays empty; the field is kept for the report's JSON shape."""

    # every argument has a default: pickle and copy rebuild a report by calling the class with none
    def __init__(self, flavor: str | None = None, n: int | None = None, degree_bound: int | None = None):
        super().__init__(flavor=flavor, n=n, degree_bound=degree_bound, checked=0, expressible=0, inconclusive=[])


def _dominant(flavor: str, expo: tuple) -> bool:
    """Non-increasing, and for Hyperoctahedral also non-negative."""
    return all(a >= b for a, b in zip(expo, expo[1:])) and (flavor == "Sym" or not expo or expo[-1] >= 0)


def _below(flavor: str, mu: tuple, lam: tuple) -> bool:
    """mu <= lam in dominance: every partial sum of lam - mu is >= 0, and for
    Sym (homogeneous roots e_i - e_{i+1}) the full sums agree."""
    total = 0
    for a, b in zip(lam, mu):
        total += a - b
        if total < 0:
            return False
    return flavor != "Sym" or total == 0


def _check_leading_terms(flavor: str, n: int, rows: list[dict]) -> None:
    """Raise unless each e_k in `rows` has x^omega_k = x_1...x_k with
    coefficient 1 as its unique dominance-maximal dominant term.

    With the e_k W-invariant (symmetric functions of the b_i, which W
    permutes), every term then lies below omega_k, and the product
    prod_{k<n} e_k^(lam_k - lam_{k+1}) * e_n^lam_n leads with x^lam, with
    coefficient 1, all its other terms strictly below lam.
    """
    if len(rows) != n:
        raise CompAlgError(f"expected {n} fundamental generators, got {len(rows)}")
    for k, row in enumerate(rows, 1):
        omega = (1,) * k + (0,) * (n - k)
        if row.get(omega) != 1:
            raise CompAlgError(f"e_{k} does not have x^omega_{k} with coefficient 1")
        for expo in row:
            if expo != omega and _dominant(flavor, expo) and not _below(flavor, expo, omega):
                raise CompAlgError(f"e_{k} has the dominant term {expo} not below omega_{k}")


MAX_GENERATION_RANK = 8  # e_k(x_i + 1/x_i) has 3^n terms; matches DEFAULT_MAX_GROUP_ORDER
MAX_GENERATION_ORBITS = 10**6


def verify_generation(flavor: str, n: int, degree_bound: int) -> GenerationReport:
    """Decide, for every orbit sum in the box [-degree_bound, degree_bound]^n,
    whether it lies in the ring generated by the fundamental generators.

    Z[x^+-]^Sym(n) = Z[e_1, ..., e_n, e_n^-1] and the hyperoctahedral
    invariants are Z[e_k(x_i + 1/x_i)] (Bourbaki, Lie Groups VI 3.4 Thm 1;
    Steinberg, On a theorem of Pittie).  What is checked is the triangularity
    behind it, on the generators' leading terms (`_check_leading_terms`).
    Then an orbit with dominant weight lam is, by induction down the finite
    set of dominant weights below lam, an integer combination of generator
    monomials, so every orbit is expressible.  The orbits are listed from
    their dominant weights, and the report lists none as inconclusive.
    """
    if flavor not in ("Sym", "Hyperoctahedral"):
        raise UnsupportedFlavorError(f"no generation check for flavor {flavor!r}")
    weights = range(degree_bound, -degree_bound - 1 if flavor == "Sym" else -1, -1)
    if n > MAX_GENERATION_RANK:
        raise InfeasibleError(f"generation checking is budgeted to n <= {MAX_GENERATION_RANK}, got n = {n}")
    # an orbit is a dominant weight, a multiset of n weights: comb(w + n - 1, n) of them
    orbits = comb(len(weights) + n - 1, n) if weights else int(n == 0)
    if orbits > MAX_GENERATION_ORBITS:
        raise InfeasibleError(f"more than {MAX_GENERATION_ORBITS} orbits at n = {n}, bound = {degree_bound}")
    _check_leading_terms(flavor, n, _generator_rows(flavor, n))
    report = GenerationReport(flavor=flavor, n=n, degree_bound=degree_bound)
    report.checked = report.expressible = orbits
    return report


def group_from_json(obj) -> SignedPermGroup:
    """{"flavor": "BC", "n": 3} and friends; products as {"product": [...]}.

    A malformed payload raises CompAlgError naming the key at fault.
    """
    if not isinstance(obj, dict):
        raise CompAlgError(f"a group must be a JSON object, got {obj!r}")
    parts, flavor, n = obj.get("product"), obj.get("flavor"), obj.get("n")
    if "product" in obj and not isinstance(parts, list):
        raise CompAlgError(f"group key 'product' must be a list of groups, got {parts!r}")
    if "product" in obj:
        return ProductGroup([group_from_json(part) for part in parts])
    if not isinstance(flavor, str):
        raise CompAlgError(f"group key 'flavor' must be a string, got {flavor!r}")
    if type(n) is not int or n < 0:
        raise CompAlgError(f"group key 'n' must be a non-negative integer, got {n!r}")
    flavor = flavor.lower()
    if flavor in ("a", "sym"):
        return SymGroup(n)
    if flavor in ("bc", "b", "c", "hyperoctahedral"):
        return HyperoctahedralGroup(n)
    if flavor in ("d", "evensigned"):
        return EvenSignedGroup(n)
    if flavor == "trivial":
        return TrivialGroup(n)
    raise UnsupportedFlavorError(f"unknown flavor {obj['flavor']!r}")
