"""Splitting a sum written as text ("x1^2 - 3*x2^-1", "1/2*e1 + e12") into its signed terms."""


def split_terms(text: str) -> list[str]:
    """Chunks at each + or - that is not an exponent sign (right after '^'); a - stays on its term."""
    if text.rstrip().endswith(("+", "-")):
        raise ValueError(f"{text!r} ends with a sign")
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
