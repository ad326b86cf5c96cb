"""The one grammar of a sum written as text ("x1^2 - 3*x2^-1", "1/2*e1 + e12"): read and print.

A sum is an optional leading sign, then terms joined by exactly one + or -;
a sign right after '^' belongs to an exponent.  A term is a coefficient p or
p/q (q != 0, digits only, the literal rule of the JSON scalar schema), a
monomial alone, or a coefficient and a monomial with '*', whitespace or
nothing between them.  Each caller reads its own monomials through a
callback; every error names the term it is in.
"""

import re
from fractions import Fraction

RATIONAL = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")  # the coefficient literal, signed: JSON and CLI scalars over QQ
_SIGN = re.compile(r"(?<![\s^])\s*([+-])")
_TERM = re.compile(r"(?:([0-9]+)(?:/([0-9]+))?)?\s*(\*?)\s*(.*)", re.DOTALL)


def parse_terms(text: str, monomial) -> list:
    """(Fraction coefficient, monomial(its text) or None for a constant) per term, in order."""
    pieces = _SIGN.split(text)  # [lead, sign, term, sign, term, ...]
    if len(pieces) > 1 and not pieces[-1].strip():
        raise ValueError(f"{text!r} ends with a sign")
    out = []
    for k in range(0, len(pieces), 2):
        term = pieces[k].strip()
        if not term:
            if k:  # only the lead may be empty: the text opens with a sign
                signs = pieces[k - 1] + pieces[k + 1]
                raise ValueError(f"two signs in a row in term {signs + pieces[k + 2].strip()!r}")
            continue
        num, den, star, rest = _TERM.fullmatch(term).groups()
        if star and not (num and rest):
            raise ValueError(f"a '*' with nothing on one side in term {term!r}")
        if den is not None and not int(den):
            raise ValueError(f"a zero denominator in term {term!r}")
        try:
            mono = monomial(rest) if rest else None
        except ValueError as exc:
            raise ValueError(f"{exc} in term {term!r}") from exc
        coeff = Fraction(int(num), int(den or 1)) if num else Fraction(1)
        out.append((-coeff if k and pieces[k - 1] == "-" else coeff, mono))
    return out


def render_terms(pairs, times: str = "*") -> str:
    """(coefficient, monomial text or None for a constant) pairs as "3*x1^2 - x3 + 1/2", zeros left out.

    `times` goes between a coefficient other than 1 and its monomial; "0" when no term is left.
    """
    out = []
    for coeff, mono in pairs:
        if coeff:
            size = abs(coeff)
            body = str(size) if mono is None else mono if size == 1 else f"{size}{times}{mono}"
            out += ["-" if coeff < 0 else "+", body]
    if not out:
        return "0"
    return ("-" if out[0] == "-" else "") + " ".join(out[1:])
