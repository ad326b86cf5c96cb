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
on x_i + 1/x_i for the signed flavors), and a bounded-degree generation
check that answers "expressible" or "inconclusive at this bound", never
claiming a refutation.  Each group enumerates its elements once, as raw
(perm, signs) tuple pairs in `_pairs()`; `elements()` wraps them in
SignedPerm, and Reynolds walks them on raw exponent tuples.  The generation
check runs on integer rows, raw {exponent tuple: int} dicts: the generator
products are reduced once to an echelon basis of primitive rows keyed by
leading monomial, and each orbit sum (met once per orbit, listed from its
exponent vector) is reduced against it fraction-free, a*row - b*pivot.  A
LaurentPoly or its text is built only for output.  Index counts |G| / |H|
feed the free-module ranks in the K-group bookkeeping: the quaternionic pair
gives (2n)!/n!, the split pair the central binomial coefficient, and the
smallest split case 2.
"""

import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import permutations, product
from math import factorial, gcd, lcm
from operator import add

from .errors import (
    CompAlgError,
    InfeasibleError,
    NotDividingError,
    ShapeError,
    UnsupportedFlavorError,
)

DEFAULT_MAX_GROUP_ORDER = factorial(8) * 2**8  # hyperoctahedral of rank 8


class LaurentPoly:
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

    def __setattr__(self, *_):
        raise AttributeError("LaurentPoly is immutable")

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
        return _text(self.terms)

    def __repr__(self):
        return f"LaurentPoly({self.text()})"


def _text(terms: dict) -> str:
    """Terms by descending exponent vector, as "3*x1^2*x2^-1 - x3 + 1/2"."""
    if not terms:
        return "0"
    parts = []
    for expo in sorted(terms, reverse=True):
        coeff = terms[expo]
        body = "*".join(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(expo) if e)
        if not body:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append(body)
        elif coeff == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{coeff}*{body}")
    return " + ".join(parts).replace("+ -", "- ")


def _mul(p: dict, q: dict) -> dict:
    """Product of two raw {exponent tuple: coefficient} polynomials."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


_TERM_RE = re.compile(
    r"^\s*([+-])?\s*(\d+(?:/\d+)?)?\s*((?:\*?\s*x\d+(?:\^-?\d+)?)*)\s*$"
)
_FACTOR_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?")


def _split_terms(text: str) -> list[str]:
    # split at +/- signs that are not exponent signs (i.e. not right after '^')
    terms, current = [], ""
    for ch in text:
        if ch in "+-" and current.strip() and not current.rstrip().endswith("^"):
            terms.append(current)
            current = ch if ch == "-" else ""
        else:
            current += ch
    if current.strip():
        terms.append(current)
    return terms


def parse_laurent(text: str, nvars: int) -> LaurentPoly:
    """Parse strings like "x1^2*x2^-1 + 3" into a LaurentPoly."""
    out = LaurentPoly(nvars, {})
    for chunk in _split_terms(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        match = _TERM_RE.match(chunk)
        if not match or (match.group(2) is None and not match.group(3)):
            raise ValueError(f"cannot parse term {chunk!r}")
        sign = -1 if match.group(1) == "-" else 1
        coeff = sign * (Fraction(match.group(2)) if match.group(2) else Fraction(1))
        expo = [0] * nvars
        for var, power in _FACTOR_RE.findall(match.group(3)):
            idx = int(var) - 1
            if not 0 <= idx < nvars:
                raise ValueError(f"variable x{var} out of range for {nvars} variables")
            expo[idx] += int(power) if power else 1
        out = out + LaurentPoly(nvars, {tuple(expo): coeff})
    return out


class SignedPerm:
    """perm maps position i to perm[i]; signs[i] = -1 inverts that variable."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm, signs):
        object.__setattr__(self, "perm", tuple(perm))
        object.__setattr__(self, "signs", tuple(signs))

    def __setattr__(self, *_):
        raise AttributeError("SignedPerm is immutable")

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """self after other (matches acting on polynomials twice)."""
        perm = tuple(self.perm[other.perm[i]] for i in range(len(self.perm)))
        signs = tuple(self.signs[other.perm[i]] * other.signs[i] for i in range(len(self.perm)))
        return SignedPerm(perm, signs)

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
    flavor = "abstract"

    def __init__(self, n: int):
        self.n = n

    def order(self) -> int:
        raise NotImplementedError

    def _pairs(self):
        """Every element as a raw (perm, signs) pair of tuples, in a fixed order."""
        raise NotImplementedError

    def elements(self):
        for perm, signs in self._pairs():
            yield SignedPerm(perm, signs)

    def generators(self):
        raise NotImplementedError

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

    def _pairs(self):
        signs = (1,) * self.n
        for p in permutations(range(self.n)):
            yield p, signs

    def generators(self):
        if self.n < 2:
            return []
        out = []
        for i in range(self.n - 1):
            perm = list(range(self.n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            out.append(SignedPerm(perm, (1,) * self.n))
        return out


class TrivialGroup(SignedPermGroup):
    flavor = "Trivial"

    def order(self):
        return 1

    def _pairs(self):
        yield tuple(range(self.n)), (1,) * self.n

    def generators(self):
        return []


class HyperoctahedralGroup(SignedPermGroup):
    flavor = "Hyperoctahedral"

    def order(self):
        return factorial(self.n) * 2**self.n

    def _pairs(self):
        sign_vectors = list(product((1, -1), repeat=self.n))
        for p in permutations(range(self.n)):
            for signs in sign_vectors:
                yield p, signs

    def generators(self):
        out = list(SymGroup(self.n).generators())
        signs = [1] * self.n
        signs[0] = -1
        out.append(SignedPerm(range(self.n), signs))
        return out


class EvenSignedGroup(SignedPermGroup):
    flavor = "EvenSigned"

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("the even-signed flavor needs n >= 2")
        super().__init__(n)

    def order(self):
        return factorial(self.n) * 2 ** (self.n - 1)

    def _pairs(self):
        sign_vectors = [s for s in product((1, -1), repeat=self.n) if s.count(-1) % 2 == 0]
        for p in permutations(range(self.n)):
            for signs in sign_vectors:
                yield p, signs

    def generators(self):
        out = list(SymGroup(self.n).generators())
        signs = [1] * self.n
        signs[0] = signs[1] = -1
        out.append(SignedPerm(range(self.n), signs))
        return out


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
        out = 1
        for f in self.factors:
            out *= f.order()
        return out

    def _embed(self, parts):
        perm, signs = [], []
        offset = 0
        for factor, (p, s) in zip(self.factors, parts):
            perm.extend(offset + i for i in p)
            signs.extend(s)
            offset += factor.n
        return tuple(perm), tuple(signs)

    def _pairs(self):
        for parts in product(*(list(f._pairs()) for f in self.factors)):
            yield self._embed(parts)

    def generators(self):
        out = []
        for idx, factor in enumerate(self.factors):
            for g in factor.generators():
                parts = [(range(f.n), (1,) * f.n) for f in self.factors]
                parts[idx] = (g.perm, g.signs)
                out.append(SignedPerm(*self._embed(parts)))
        return out


def is_invariant(G: SignedPermGroup, f: LaurentPoly) -> bool:
    return all(act(g, f) == f for g in G.generators())


def reynolds(G: SignedPermGroup, f: LaurentPoly) -> LaurentPoly:
    """Group average (1/|G|) sum g.f; idempotent on invariants.

    One pass over G's raw (perm, signs) pairs, moving only the nonzero
    entries of each exponent tuple, with f's coefficients scaled to integers
    by their common denominator.  Each g permutes exponent vectors, so the
    terms of g.f are distinct; they go into the total in f's term order and a
    key is dropped when its sum cancels, so the result's terms come in the
    order that summing the images one by one would give.
    """
    order = G.order()
    if order > DEFAULT_MAX_GROUP_ORDER:
        raise InfeasibleError(f"|G| = {order} exceeds the averaging budget {DEFAULT_MAX_GROUP_ORDER}")
    if G.n != f.nvars:
        raise ShapeError("group element and polynomial have different variable counts")
    denom = lcm(*(c.denominator for c in f.terms.values()))
    scaled = {expo: c.numerator * denom // c.denominator for expo, c in f.terms.items()}
    terms = [([(i, e) for i, e in enumerate(expo) if e], c) for expo, c in scaled.items()]
    acc = {}
    for perm, signs in G._pairs():
        for entries, coeff in terms:
            new = [0] * f.nvars
            for i, e in entries:
                new[perm[i]] = signs[i] * e
            key = tuple(new)
            total = acc.get(key, 0) + coeff
            if total:
                acc[key] = total
            else:
                del acc[key]
    scale = denom * order
    return LaurentPoly(f.nvars, {expo: Fraction(c, scale) for expo, c in acc.items()})


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


@dataclass
class GenerationReport:
    flavor: str
    n: int
    degree_bound: int
    checked: int = 0
    expressible: int = 0
    inconclusive: list[str] = field(default_factory=list)

    def to_json(self):
        return asdict(self)


def _orbit(flavor: str, expo: tuple) -> set:
    """Rearrangements of expo, with any signs on its nonzero entries for Hyperoctahedral."""
    if flavor == "Sym":
        return set(permutations(expo))
    choices = [(e, -e) if e else (0,) for e in expo]
    return {p for signed in product(*choices) for p in permutations(signed)}


def _bounded_products(flavor: str, n: int, bound: int) -> list[dict]:
    """Products of fundamental generators with weighted degree at most `bound`,
    as raw integer polynomials.

    Generator k carries weight k; for Sym the inverse of the top generator is
    also available (it is a unit in the Laurent ring) at weight n per power.
    """
    results = [({(0,) * n: 1}, 0)]
    factors = [(gen, idx + 1) for idx, gen in enumerate(_generator_rows(flavor, n))]
    if flavor == "Sym":
        factors.append(({(-1,) * n: 1}, n))  # inverse of e_n = x1...xn
    for gen, weight in factors:
        extended = list(results)
        for poly, w in results:
            current, cw = poly, w
            while cw + weight <= bound:
                current = _mul(current, gen)
                cw += weight
                extended.append((current, cw))
        results = extended
    return [poly for poly, _ in results]


def _echelon(rows) -> dict:
    """Echelon basis: leading monomial -> primitive row, leading coefficient > 0."""
    basis = {}
    for row in rows:
        row = _reduce(basis, dict(row))
        if row:
            lead = max(row)
            content = gcd(*row.values()) * (1 if row[lead] > 0 else -1)
            basis[lead] = {m: c // content for m, c in row.items()}
    return basis


def _reduce(basis: dict, row: dict) -> dict:
    """Cancel row's leading monomial against the basis until it is no pivot.

    Fraction-free: with a and b the pivot's and the row's leading
    coefficients over their gcd, row becomes a*row - b*pivot.  Every
    combination of basis rows leads with a pivot, so row lies in their span
    exactly when nothing is left.
    """
    while row:
        lead = max(row)
        pivot = basis.get(lead)
        if pivot is None:
            break
        a, b = pivot[lead], row[lead]
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for m in row:
                row[m] *= a
        for m, c in pivot.items():
            value = row.get(m, 0) - b * c
            if value:
                row[m] = value
            else:
                row.pop(m, None)
    return row


def verify_generation(flavor: str, n: int, degree_bound: int) -> GenerationReport:
    """Check bounded orbit-sums against bounded generator products.

    Anything not expressible within the bound is reported as inconclusive at
    this bound, never as a refutation.
    """
    if n > 3 or degree_bound > 6:
        raise InfeasibleError("generation checking is budgeted to n <= 3, bound <= 6")
    if flavor not in ("Sym", "Hyperoctahedral"):
        raise UnsupportedFlavorError(f"no generation check for flavor {flavor!r}")
    basis = _echelon(_bounded_products(flavor, n, degree_bound))
    report = GenerationReport(flavor=flavor, n=n, degree_bound=degree_bound)
    seen = set()
    for expo in product(range(-degree_bound, degree_bound + 1), repeat=n):
        key = tuple(sorted(expo if flavor == "Sym" else map(abs, expo)))
        if key in seen:
            continue
        seen.add(key)
        orbit = dict.fromkeys(_orbit(flavor, expo), 1)
        report.checked += 1
        if _reduce(basis, dict(orbit)):
            report.inconclusive.append(_text(orbit))
        else:
            report.expressible += 1
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
