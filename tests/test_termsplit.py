from fractions import Fraction

from compalg.cli import parse_multivector
from compalg.clifford import CliffordSignature
from compalg.rng import SplitMix64
from compalg.termsplit import parse_terms, render_terms
from compalg.weyl import LaurentPoly, parse_laurent


def _coeff(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


def test_printed_sums_read_back():
    """render_terms prints what parse_terms reads: negative and fractional coefficients, exponent signs."""
    rng = SplitMix64(28)
    for _ in range(50):
        pairs = [(_coeff(rng), m) for m in ("x1^2*x2^-1", "x3", "x1^-3", None) if rng.randint(0, 1)]
        pairs = [(c, m) for c, m in pairs if c]
        assert parse_terms(render_terms(pairs), str) == (pairs or [(0, None)])  # an empty sum prints as "0"
    for p, q in ((2, 0), (1, 2), (3, 3)):
        sig = CliffordSignature(p, q)
        for _ in range(20):
            x = sig.element([_coeff(rng) if rng.randint(0, 2) else 0 for _ in range(sig.dim)])
            assert parse_multivector(sig, repr(x)) == x
    for n in (1, 2, 3):
        for _ in range(20):
            f = LaurentPoly(n, {tuple(rng.randint(-3, 3) for _ in range(n)): _coeff(rng) for _ in range(4)})
            assert parse_laurent(f.text(), n) == f
