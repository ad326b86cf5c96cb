"""JSON encodings for the arithmetic value types.

All payloads are exact: rationals travel as "p/q" strings, prime-field
residues as plain integers, quadratic-extension elements as [x, y] pairs.
Quaternion elements are {"algebra": ..., "coeffs": [x0, x1, x2, x3]}; a
matrix over the 2x2 split realization may also use the "blocks" encoding of
raw 2x2 base-field blocks.
"""

import re
from fractions import Fraction

from .errors import CompAlgError
from .fields import QQ, FieldSpec, PrimeField, QuadExt, RationalField, Scalar
from .quaternion import Mat2Algebra, Mat2Element, QuatAlgebra, QuaternionElement, mat2_to_quat
from .matrices import CompMatrix


# the string forms of scalar.schema.json: "p" or "p/q" over QQ, "p" over GF(p)
_RATIONAL = re.compile(r"-?[0-9]+(?:/([0-9]+))?")
_INTEGER = re.compile(r"-?[0-9]+")


def field_to_json(spec: FieldSpec):
    if isinstance(spec, RationalField):
        return {"kind": "Q"}
    if isinstance(spec, PrimeField):
        return {"kind": "Fp", "p": spec.p}
    if isinstance(spec, QuadExt):
        return {
            "kind": "quad",
            "base": field_to_json(spec.base),
            "a": raw_to_json(spec.base, spec.a),
        }
    raise CompAlgError(f"unknown field spec {spec!r}")


def _json_object(obj, key: str) -> dict:
    if not isinstance(obj, dict):
        raise CompAlgError(f"{key!r} must be a JSON object, got {obj!r}")
    return obj


def field_from_json(obj, key: str = "field") -> FieldSpec:
    kind = _json_object(obj, key)["kind"]
    if kind == "Q":
        return QQ
    if kind == "Fp":
        if not isinstance(obj["p"], int):
            raise CompAlgError(f"'p' must be an integer, got {obj['p']!r}")
        return PrimeField(obj["p"])
    if kind == "quad":
        base = field_from_json(obj["base"], "base")
        return QuadExt(base, raw_from_json(base, obj["a"]))
    raise CompAlgError(f"unknown field kind {kind!r}")


def raw_to_json(spec: FieldSpec, raw):
    if isinstance(spec, RationalField):
        f = Fraction(raw)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if isinstance(spec, PrimeField):
        return int(raw)
    if isinstance(spec, QuadExt):
        return [raw_to_json(spec.base, raw[0]), raw_to_json(spec.base, raw[1])]
    raise CompAlgError(f"unknown field spec {spec!r}")


def raw_from_json(spec: FieldSpec, obj):
    if isinstance(spec, QuadExt):
        if not (isinstance(obj, list) and len(obj) == 2):
            raise CompAlgError(f"a {spec!r} value must be a pair [x, y], got {obj!r}")
    elif type(obj) not in (int, str):
        # floats and booleans are rejected, not converted: 0.1 is never read as a binary fraction
        raise CompAlgError(f"a {spec!r} value must be an integer or a string, got {obj!r}")
    if isinstance(spec, RationalField):
        if isinstance(obj, str):
            match = _RATIONAL.fullmatch(obj)
            if not match or match[1] is not None and not int(match[1]):
                raise CompAlgError(f"a QQ string must be p or p/q with q != 0, got {obj!r}")
        return Fraction(obj)
    if isinstance(spec, PrimeField):
        if isinstance(obj, str) and not _INTEGER.fullmatch(obj):
            raise CompAlgError(f"a {spec!r} string must be an integer, got {obj!r}")
        return spec._coerce(int(obj))
    if isinstance(spec, QuadExt):
        return (raw_from_json(spec.base, obj[0]), raw_from_json(spec.base, obj[1]))
    raise CompAlgError(f"unknown field spec {spec!r}")


def scalar_to_json(x: Scalar):
    return raw_to_json(x.spec, x.raw)


def scalar_from_json(spec: FieldSpec, obj) -> Scalar:
    return Scalar(spec, raw_from_json(spec, obj))


def algebra_to_json(algebra):
    if isinstance(algebra, QuatAlgebra):
        return {
            "field": field_to_json(algebra.field),
            "a": scalar_to_json(algebra.a),
            "b": scalar_to_json(algebra.b),
        }
    if isinstance(algebra, Mat2Algebra):
        return {"field": field_to_json(algebra.field), "mat2": True}
    raise CompAlgError(f"unknown algebra {algebra!r}")


def algebra_from_json(obj):
    spec = field_from_json(_json_object(obj, "algebra")["field"])
    if obj.get("mat2"):
        return Mat2Algebra(spec)
    return QuatAlgebra(spec, raw_from_json(spec, obj["a"]), raw_from_json(spec, obj["b"]))


def element_to_json(e):
    if not isinstance(e, (QuaternionElement, Mat2Element)):
        raise CompAlgError(f"unknown element {e!r}")
    key = "coeffs" if isinstance(e, QuaternionElement) else "block"
    return {"algebra": algebra_to_json(e.algebra), key: _entry_payload(e)}


def element_from_json(obj, algebra=None):
    if algebra is None:
        algebra = algebra_from_json(obj["algebra"])
    spec = algebra.field
    if isinstance(algebra, QuatAlgebra):
        return algebra.element([raw_from_json(spec, c) for c in obj["coeffs"]])
    block = obj["block"]
    return algebra.element(
        (
            raw_from_json(spec, block[0][0]),
            raw_from_json(spec, block[0][1]),
            raw_from_json(spec, block[1][0]),
            raw_from_json(spec, block[1][1]),
        )
    )


def _entry_payload(e):
    spec = e.algebra.field
    if isinstance(e, QuaternionElement):
        return [raw_to_json(spec, c) for c in e.coeffs]
    m00, m01, m10, m11 = (raw_to_json(spec, c) for c in e.coeffs)
    return [[m00, m01], [m10, m11]]


def matrix_to_json(Z: CompMatrix):
    payload = {"algebra": algebra_to_json(Z.ring), "m": Z.m, "n": Z.n}
    entries = [_entry_payload(e) for row in Z.rows for e in row]
    if isinstance(Z.ring, Mat2Algebra):
        payload["blocks"] = entries
    else:
        payload["entries"] = entries
    return payload


def matrix_from_json(obj) -> CompMatrix:
    if not isinstance(obj, dict):
        raise CompAlgError(f"matrix payload must be a JSON object, got {obj!r}")
    try:
        algebra = algebra_from_json(obj["algebra"])
        m, n = obj["m"], obj["n"]
    except KeyError as exc:
        raise CompAlgError(f"matrix payload is missing the key {exc.args[0]!r}") from None
    for key, value in (("m", m), ("n", n)):
        if type(value) is not int or value < 1:
            raise CompAlgError(f"{key!r} must be a positive integer, got {value!r}")
    spec = algebra.field
    flat = obj.get("entries") if "entries" in obj else obj.get("blocks")
    if flat is None or len(flat) != m * n:
        raise CompAlgError("matrix payload must carry m*n entries")
    elems = []
    for k, item in enumerate(flat):
        if isinstance(algebra, QuatAlgebra) and isinstance(item, list) and not (item and isinstance(item[0], list)):
            elems.append(algebra.element([raw_from_json(spec, c) for c in item]))
            continue
        if not (isinstance(item, list) and len(item) == 2 and all(isinstance(r, list) and len(r) == 2 for r in item)):
            raise CompAlgError(f"block {k} must be a 2x2 list [[a, b], [c, d]], got {item!r}")
        mat2 = algebra if isinstance(algebra, Mat2Algebra) else Mat2Algebra(spec)
        block = mat2.element([raw_from_json(spec, e) for row in item for e in row])
        elems.append(block if mat2 is algebra else mat2_to_quat(block, algebra))
    return CompMatrix(algebra, [elems[i * n : (i + 1) * n] for i in range(m)])


def int_rows_from_json(obj, name: str = "matrix") -> list:
    """An integer matrix payload: a non-empty list of equal-length lists of int.

    Floats, strings and booleans are rejected rather than converted, so a
    payload is never silently read as a different matrix.
    """
    if not isinstance(obj, list) or not obj:
        raise CompAlgError(f"{name} must be a non-empty list of rows, got {obj!r}")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise CompAlgError(f"{name} row {i} must be a non-empty list, got {row!r}")
        if len(row) != len(obj[0]):
            raise CompAlgError(f"{name} row {i} has {len(row)} entries, row 0 has {len(obj[0])}")
        for j, x in enumerate(row):
            if type(x) is not int:
                raise CompAlgError(f"{name} entry [{i}][{j}] must be an integer, got {x!r}")
    return obj
