import hashlib
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial, gcd

import pytest

from compalg.errors import CompAlgError, InfeasibleError, NotDividingError, ShapeError, UnsupportedFlavorError
from compalg.rng import SplitMix64
from compalg.weyl import (
    EvenSignedGroup,
    GenerationReport,
    HyperoctahedralGroup,
    LaurentPoly,
    ProductGroup,
    SignedPerm,
    SymGroup,
    TrivialGroup,
    _check_leading_terms,
    _generator_rows,
    _mul,
    act,
    fundamental_generators,
    group_from_json,
    ktheory_rank,
    parse_laurent,
    reynolds,
    verify_generation,
    weyl_index,
)


def x(nvars, i, power=1):
    return LaurentPoly.variable(nvars, i, power)


def random_poly(nvars, rng, terms=3, bound=2):
    out = LaurentPoly(nvars, {})
    for _ in range(terms):
        expo = tuple(rng.randint(-bound, bound) for _ in range(nvars))
        out = out + LaurentPoly(nvars, {expo: Fraction(rng.randint(-3, 3))})
    return out


def reynolds_oracle(G, f):
    """Element-by-element average on LaurentPoly, the reference for `reynolds`."""
    acc = LaurentPoly(f.nvars, {})
    for g in G.elements():
        acc = acc + act(g, f)
    return acc.scale(Fraction(1, G.order()))


def in_span_oracle(target, candidates):
    """Dense elimination of candidates * x = target over the joint support."""
    support = set(target.terms)
    for c in candidates:
        support.update(c.terms)
    index = {m: i for i, m in enumerate(sorted(support))}
    rows = [[Fraction(0)] * len(candidates) for _ in index]
    for j, c in enumerate(candidates):
        for m, coeff in c.terms.items():
            rows[index[m]][j] = coeff
    rhs = [Fraction(0)] * len(index)
    for m, coeff in target.terms.items():
        rhs[index[m]] = coeff
    rank = 0
    for col in range(len(candidates)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rhs[rank], rhs[pivot] = rhs[pivot], rhs[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [e * inv for e in rows[rank]]
        rhs[rank] = rhs[rank] * inv
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
                rhs[r] = rhs[r] - factor * rhs[rank]
        rank += 1
    return not any(all(e == 0 for e in row) and b != 0 for row, b in zip(rows, rhs))


def bounded_products_oracle(flavor, n, bound):
    """Every product of powers of the fundamental generators (generator k of
    weight k, and for Sym the inverse of e_n of weight n) of total weight at
    most `bound`, multiplied out with LaurentPoly arithmetic."""
    factors = list(fundamental_generators(flavor, n))
    if flavor == "Sym":
        inverse = LaurentPoly(n, {(-1,) * n: 1})
        assert factors[-1] * inverse == LaurentPoly.constant(n, 1)
        factors.append(inverse)
    weights = [k + 1 for k in range(n)] + ([n] if flavor == "Sym" else [])
    out = []
    for powers in product(range(bound + 1), repeat=len(factors)):
        if sum(w * k for w, k in zip(weights, powers)) > bound:
            continue
        poly = LaurentPoly.constant(n, 1)
        for factor, k in zip(factors, powers):
            for _ in range(k):
                poly = poly * factor
        out.append(poly)
    return out


def verify_generation_oracle(flavor, n, bound):
    """Orbit sums by acting with every group element, one dense solve per orbit."""
    G = SymGroup(n) if flavor == "Sym" else HyperoctahedralGroup(n)
    candidates = bounded_products_oracle(flavor, n, bound)
    report = GenerationReport(flavor=flavor, n=n, degree_bound=bound)
    seen = set()
    for expo in product(range(-bound, bound + 1), repeat=n):
        monomial = LaurentPoly(n, {expo: 1})
        orbit = LaurentPoly(n, {next(iter(act(g, monomial).terms)): 1 for g in G.elements()})
        key = frozenset(orbit.terms)
        if key in seen:
            continue
        seen.add(key)
        report.checked += 1
        if in_span_oracle(orbit, candidates):
            report.expressible += 1
        else:
            report.inconclusive.append(orbit.text())
    return report


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


def bounded_generation_oracle(flavor, n, bound):
    """The bounded search: each orbit sum in the box [-bound, bound]^n reduced
    against the echelon basis of the generator products of weighted degree at
    most `bound`.  An orbit it cannot reduce to zero is out of the search's
    reach, and is listed as inconclusive at this bound."""
    basis = _echelon(_bounded_products(flavor, n, bound))
    report = GenerationReport(flavor=flavor, n=n, degree_bound=bound)
    seen = set()
    for expo in product(range(-bound, bound + 1), repeat=n):
        key = tuple(sorted(expo if flavor == "Sym" else map(abs, expo)))
        if key in seen:
            continue
        seen.add(key)
        if flavor == "Sym":
            orbit = set(permutations(expo))
        else:
            choices = [(e, -e) if e else (0,) for e in expo]
            orbit = {p for signed in product(*choices) for p in permutations(signed)}
        orbit = dict.fromkeys(orbit, 1)
        report.checked += 1
        if _reduce(basis, dict(orbit)):
            report.inconclusive.append(LaurentPoly(n, orbit).text())
        else:
            report.expressible += 1
    return report


def straighten(flavor, n, target):
    """Integer coefficients expressing the invariant `target` in generator
    monomials, by the triangularity argument: subtract c times
    prod_{k<n} e_k^(lam_k - lam_{k+1}) * e_n^lam_n for the lexicographically
    largest dominant term c*x^lam (a dominance-maximal one) until nothing is
    left.  Returns {lam: c}; raises if a coefficient is not an integer."""
    gens = _generator_rows(flavor, n)
    powers = {}

    def power(k, e):
        if (k, e) not in powers:
            if e < 0:  # Sym only: e_n^-1 is the monomial 1/(x1...xn)
                powers[k, e] = {(e,) * n: 1}
            else:
                powers[k, e] = {(0,) * n: 1} if e == 0 else _mul(power(k, e - 1), gens[k])
        return powers[k, e]

    rest, out = dict(target), {}
    while rest:
        lam = max(e for e in rest if list(e) == sorted(e, reverse=True) and (flavor == "Sym" or e[-1] >= 0))
        c = rest[lam]
        assert type(c) is int
        monomial = {(0,) * n: 1}
        for k in range(n):
            monomial = _mul(monomial, power(k, lam[k] - (lam[k + 1] if k + 1 < n else 0)))
        assert monomial[lam] == 1
        for e, v in monomial.items():
            value = rest.get(e, 0) - c * v
            if value:
                rest[e] = value
            else:
                rest.pop(e, None)
        out[lam] = c
    return out


def elements_by_hand(G):
    """(perm, signs) pairs of G in the enumeration order the library promises:
    permutations in lexicographic order, sign vectors inner with +1 before -1,
    and for a product the factors' elements with the last factor fastest."""
    if isinstance(G, ProductGroup):
        out = []
        for parts in product(*(elements_by_hand(f) for f in G.factors)):
            perm, signs, offset = [], [], 0
            for factor, (p, s) in zip(G.factors, parts):
                perm += [offset + i for i in p]
                signs += s
                offset += factor.n
            out.append((tuple(perm), tuple(signs)))
        return out
    if isinstance(G, TrivialGroup):
        return [(tuple(range(G.n)), (1,) * G.n)]
    sign_vectors = [(1,) * G.n]
    if isinstance(G, HyperoctahedralGroup):
        sign_vectors = list(product((1, -1), repeat=G.n))
    elif isinstance(G, EvenSignedGroup):
        sign_vectors = [s for s in product((1, -1), repeat=G.n) if s.count(-1) % 2 == 0]
    return [(p, s) for p in permutations(range(G.n)) for s in sign_vectors]


def random_element(G, rng):
    elements = list(G.elements())
    return rng.choice(elements)


def compose(g, h):
    """g after h, which matches acting on polynomials twice."""
    perm = tuple(g.perm[h.perm[i]] for i in range(len(g.perm)))
    signs = tuple(g.signs[h.perm[i]] * h.signs[i] for i in range(len(g.perm)))
    return SignedPerm(perm, signs)


def is_invariant(G, f):
    return all(act(g, f) == f for g in G.elements())


def test_act_basics():
    swap = SignedPerm((1, 0), (1, 1))
    assert act(swap, x(2, 0)) == x(2, 1)
    flip = SignedPerm((0, 1), (-1, 1))
    assert act(flip, x(2, 0)) == x(2, 0, -1)


def test_act_is_group_action_and_ring_hom():
    rng = SplitMix64(31)
    G = HyperoctahedralGroup(3)
    for _ in range(100):
        g = random_element(G, rng)
        h = random_element(G, rng)
        f = random_poly(3, rng)
        k = random_poly(3, rng)
        assert act(compose(g, h), f) == act(g, act(h, f))
        assert act(g, f * k) == act(g, f) * act(g, k)
        assert act(g, f + k) == act(g, f) + act(g, k)


def test_group_orders():
    assert SymGroup(4).order() == 24
    assert HyperoctahedralGroup(3).order() == 48
    assert EvenSignedGroup(3).order() == 24
    assert TrivialGroup(5).order() == 1
    assert ProductGroup([SymGroup(2), SymGroup(3)]).order() == 12
    for G in (SymGroup(3), HyperoctahedralGroup(2), EvenSignedGroup(2)):
        assert len(set(G.elements())) == G.order()


def test_reynolds_values():
    s2 = SymGroup(2)
    assert reynolds(s2, x(2, 0)) == (x(2, 0) + x(2, 1)).scale(Fraction(1, 2))
    w1 = HyperoctahedralGroup(1)
    assert reynolds(w1, x(1, 0)) == (x(1, 0) + x(1, 0, -1)).scale(Fraction(1, 2))


def test_reynolds_idempotent_and_invariant():
    rng = SplitMix64(32)
    for G in (SymGroup(3), HyperoctahedralGroup(2), EvenSignedGroup(2)):
        for _ in range(20):
            f = random_poly(G.n, rng)
            avg = reynolds(G, f)
            assert is_invariant(G, avg)
            assert reynolds(G, avg) == avg


def test_reynolds_matches_oracle_in_value_and_term_order():
    rng = SplitMix64(33)
    groups = (
        SymGroup(3),
        HyperoctahedralGroup(3),
        EvenSignedGroup(3),
        TrivialGroup(2),
        ProductGroup([SymGroup(2), HyperoctahedralGroup(1)]),
        ProductGroup([EvenSignedGroup(2), TrivialGroup(1)]),
        HyperoctahedralGroup(4),
        EvenSignedGroup(4),
        ProductGroup([HyperoctahedralGroup(2), EvenSignedGroup(2)]),
    )
    for G in groups:
        assert [(g.perm, g.signs) for g in G.elements()] == elements_by_hand(G)
        for _ in range(8 if G.order() <= 48 else 2):
            f = random_poly(G.n, rng, terms=4)
            f = f + random_poly(G.n, rng, terms=1).scale(Fraction(1, rng.randint(1, 6)))
            got, want = reynolds(G, f), reynolds_oracle(G, f)
            assert got == want
            assert list(got.terms) == list(want.terms)
    # single terms on the rank-5 signed groups: one walk over the distinct restrictions
    for G in (HyperoctahedralGroup(5), EvenSignedGroup(5)):
        for expo in ((2, 0, -1, 0, 0), (0, 0, 0, 0, -3), (0, 1, 0, -1, 0)):
            f = LaurentPoly(5, {expo: Fraction(-3, 2)})
            got, want = reynolds(G, f), reynolds_oracle(G, f)
            assert list(got.terms.items()) == list(want.terms.items())
    # terms of opposite sign in one orbit: a running sum returns to zero and
    # its key re-enters later, so only the pair walk gives this term order
    for G, terms in (
        (HyperoctahedralGroup(4), {(0, 0, 0, 1): 1, (0, -1, 0, 0): -1, (0, 1, 0, 0): 1}),
        (EvenSignedGroup(4), {(0, 0, -1, 0): 3, (-1, 0, 0, 0): -1, (0, 0, 1, 0): -1}),
        (SymGroup(5), {(2, 0, -2, 0, 2): 1, (2, 0, 2, 0, -2): -2}),
    ):
        got, want = reynolds(G, LaurentPoly(G.n, terms)), reynolds_oracle(G, LaurentPoly(G.n, terms))
        assert list(got.terms.items()) == list(want.terms.items())
    cancelling = x(2, 0) - x(2, 1)
    assert reynolds(SymGroup(2), cancelling).is_zero()
    assert reynolds_oracle(SymGroup(2), cancelling).is_zero()
    partial = x(3, 0) - x(3, 1) + x(3, 2, 2)
    got, want = reynolds(SymGroup(3), partial), reynolds_oracle(SymGroup(3), partial)
    assert list(got.terms.items()) == list(want.terms.items())
    assert reynolds(SymGroup(2), LaurentPoly(2, {})).is_zero()
    with pytest.raises(ShapeError):
        reynolds(SymGroup(3), x(2, 0))


def test_reynolds_budget():
    with pytest.raises(InfeasibleError):
        reynolds(HyperoctahedralGroup(9), x(9, 0))


def test_fundamental_generators():
    sym = fundamental_generators("Sym", 2)
    assert sym[0] == x(2, 0) + x(2, 1)
    assert sym[1] == x(2, 0) * x(2, 1)
    hyper = fundamental_generators("Hyperoctahedral", 1)
    assert hyper[0] == x(1, 0) + x(1, 0, -1)
    for flavor, G in (("Sym", SymGroup(3)), ("Hyperoctahedral", HyperoctahedralGroup(3))):
        for gen in fundamental_generators(flavor, 3):
            assert is_invariant(G, gen)
    with pytest.raises(UnsupportedFlavorError):
        fundamental_generators("EvenSigned", 2)


def test_weyl_index():
    assert weyl_index(SymGroup(4), ProductGroup([SymGroup(2), SymGroup(2)])) == 6
    assert weyl_index(SymGroup(4), SymGroup(4)) == 1
    assert weyl_index(SymGroup(4), SymGroup(2)) == 12
    with pytest.raises(NotDividingError):
        weyl_index(SymGroup(3), HyperoctahedralGroup(2))


def test_ktheory_ranks():
    assert ktheory_rank("one_dim_split") == 2
    assert ktheory_rank("quaternionic", 1) == 2
    for n in range(1, 7):
        assert ktheory_rank("quaternionic", n) == factorial(2 * n) // factorial(n)
        assert ktheory_rank("split", n) == comb(2 * n, n)
    with pytest.raises(ValueError):
        ktheory_rank("quaternionic", 0)


def test_verify_generation_examples():
    rep = verify_generation("Sym", 2, 2)
    assert rep.checked == rep.expressible == 15
    # x1*x2^-1 + x1^-1*x2 is e_1^2 * e_2^-1 - 2, through the inverse of e_2,
    # which the bounded search could not reach at bound 1
    low = verify_generation("Sym", 2, 1)
    assert low.inconclusive == []
    assert low.checked == low.expressible == 6
    assert any("x1*x2^-1" in text for text in bounded_generation_oracle("Sym", 2, 1).inconclusive)
    assert straighten("Sym", 2, {(1, -1): 1, (-1, 1): 1}) == {(1, -1): 1, (0, 0): -2}
    hyper = verify_generation("Hyperoctahedral", 1, 3)
    assert hyper.inconclusive == []
    assert hyper.checked == hyper.expressible
    with pytest.raises(UnsupportedFlavorError):
        verify_generation("EvenSigned", 2, 1)


def test_bounded_products_match_laurent_arithmetic():
    for flavor in ("Sym", "Hyperoctahedral"):
        for n in (1, 2, 3):
            for bound in range(7):
                raw = _bounded_products(flavor, n, bound)
                assert all(type(c) is int for row in raw for c in row.values())
                got = Counter(LaurentPoly(n, row) for row in raw)
                assert got == Counter(bounded_products_oracle(flavor, n, bound))


def test_fraction_free_reduction_matches_dense_solve():
    """Integer rows with leading coefficients other than 1, so reducing a row
    scales it; membership must agree with the Fraction elimination."""
    rng = SplitMix64(34)
    raw = lambda poly: {e: int(c) for e, c in poly.terms.items()}
    for _ in range(40):
        rows = [random_poly(2, rng, terms=3, bound=1) for _ in range(3)]
        basis = _echelon(raw(r) for r in rows)
        for lead, pivot in basis.items():
            assert max(pivot) == lead and pivot[lead] > 0
            assert gcd(*pivot.values()) == 1
        inside = sum((r.scale(rng.randint(-3, 3)) for r in rows), LaurentPoly(2, {}))
        assert not _reduce(basis, raw(inside))
        target = random_poly(2, rng, terms=2, bound=1)
        assert (not _reduce(basis, raw(target))) == in_span_oracle(target, rows)


def test_verify_generation_matches_oracle():
    """The bounded search is the oracle: it agrees with the dense solve, every
    orbit it reaches is among those reported expressible, and the report
    counts the same orbits and leaves none inconclusive."""
    for flavor in ("Sym", "Hyperoctahedral"):
        for n in (1, 2, 3):
            for bound in range(7):
                got = verify_generation(flavor, n, bound)
                bounded = bounded_generation_oracle(flavor, n, bound)
                if bound < 5:
                    assert bounded.to_json() == verify_generation_oracle(flavor, n, bound).to_json()
                assert got.inconclusive == []
                assert got.checked == got.expressible == bounded.checked
                assert bounded.expressible <= got.expressible


def test_every_orbit_sum_straightens_over_integers():
    """The theorem behind the report, checked on every orbit sum at bound 3:
    each straightens to zero with integer coefficients, one per dominant
    weight at or below its own."""
    for flavor in ("Sym", "Hyperoctahedral"):
        for n in (1, 2, 3):
            G = SymGroup(n) if flavor == "Sym" else HyperoctahedralGroup(n)
            values = range(-3, 4) if flavor == "Sym" else range(4)
            for lam in combinations_with_replacement(sorted(values, reverse=True), n):
                orbit = {tuple(act(g, LaurentPoly(n, {lam: 1})).terms)[0]: 1 for g in G.elements()}
                expression = straighten(flavor, n, orbit)
                assert expression[lam] == 1
                assert all(type(c) is int for c in expression.values())


def test_leading_term_check_rejects_broken_tables():
    for flavor in ("Sym", "Hyperoctahedral"):
        for n in (1, 2, 3, 4):
            _check_leading_terms(flavor, n, _generator_rows(flavor, n))
            with pytest.raises(CompAlgError, match="expected"):
                _check_leading_terms(flavor, n, _generator_rows(flavor, n)[:-1])
            for k in range(n):
                doubled = [dict(row) for row in _generator_rows(flavor, n)]
                doubled[k][(1,) * (k + 1) + (0,) * (n - k - 1)] = 2
                with pytest.raises(CompAlgError, match="coefficient 1"):
                    _check_leading_terms(flavor, n, doubled)
            above = [dict(row) for row in _generator_rows(flavor, n)]
            above[0][(2,) + (0,) * (n - 1)] = 1
            with pytest.raises(CompAlgError, match="not below omega_1"):
                _check_leading_terms(flavor, n, above)
            if flavor == "Sym":
                missing = _generator_rows(flavor, n)
                del missing[-1][(1,) * n]
                with pytest.raises(CompAlgError, match=f"e_{n} does not have"):
                    _check_leading_terms(flavor, n, missing)
            if flavor == "Sym" and n > 1:
                # x1/xn: its partial sums stay under omega_1's, its degree does not
                other_degree = _generator_rows(flavor, n)
                other_degree[0][(1,) + (0,) * (n - 2) + (-1,)] = 1
                with pytest.raises(CompAlgError, match="not below omega_1"):
                    _check_leading_terms(flavor, n, other_degree)


def test_verify_generation_golden_up_to_bound_6():
    """All 42 reports, pinned: every orbit of the box counted and expressible."""
    reports = [
        verify_generation(flavor, n, bound).to_json()
        for flavor in ("Sym", "Hyperoctahedral")
        for n in (1, 2, 3)
        for bound in range(7)
    ]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    assert digest == "6145b16bef628bea06f30aa3ce437dae257142d59822c9dbd83ece3f4c42ed49"


def test_verify_generation_budget():
    """Limits shaped by memory, checked before any work: n <= 8 (e_k(x_i + 1/x_i)
    has 3^n terms) and at most 10^6 orbits."""
    for flavor, values in (("Sym", lambda b: 2 * b + 1), ("Hyperoctahedral", lambda b: b + 1)):
        for n in range(9):
            for bound in (0, 1, 6 if n <= 4 else 2):
                report = verify_generation(flavor, n, bound)
                assert report.inconclusive == []
                assert report.checked == report.expressible == comb(values(bound) + n - 1, n)
    with pytest.raises(InfeasibleError):
        verify_generation("Sym", 9, 1)
    with pytest.raises(InfeasibleError):
        verify_generation("Sym", 2, 10**18)
    with pytest.raises(InfeasibleError):
        verify_generation("Hyperoctahedral", 8, 20)


def test_orbit_count_matches_the_enumeration():
    """The count of orbits is the number of multisets of n weights, also for
    n = 0 (one, the empty weight) and an empty weight range (bound -1)."""
    for flavor in ("Sym", "Hyperoctahedral"):
        for n in range(5):
            for bound in range(-1, 5):
                weights = range(bound, -bound - 1 if flavor == "Sym" else -1, -1)
                listed = sum(1 for _ in combinations_with_replacement(weights, n))
                report = verify_generation(flavor, n, bound)
                assert report.checked == report.expressible == listed, (flavor, n, bound)


def test_parse_laurent():
    f = parse_laurent("x1^2*x2^-1 + 3", 2)
    assert f == LaurentPoly(2, {(2, -1): 1, (0, 0): 3})
    g = parse_laurent("-x1 + 1/2", 1)
    assert g == LaurentPoly(1, {(1,): -1, (0,): Fraction(1, 2)})
    roundtrip = parse_laurent(f.text(), 2)
    assert roundtrip == f
    for text, message in (
        ("*x1", "nothing on one side"), ("x1 +", "ends with a sign"), ("3 - x1^2 -", "ends with a sign"),
        ("x1 + + x2", "two signs in a row"), ("1/0*x1", "a zero denominator"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_laurent(text, 1)


def test_group_from_json():
    assert group_from_json({"flavor": "BC", "n": 3}) == HyperoctahedralGroup(3)
    assert group_from_json({"flavor": "A", "n": 2}) == SymGroup(2)
    assert group_from_json(
        {"product": [{"flavor": "Sym", "n": 2}, {"flavor": "Sym", "n": 2}]}
    ) == ProductGroup([SymGroup(2), SymGroup(2)])
