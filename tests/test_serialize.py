import json
import re
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from compalg.corpus import corpus_fixtures, load_fixture
from compalg.errors import CompAlgError
from compalg.fields import QQ, PrimeField, QuadExt
from compalg.quaternion import Mat2Algebra, QuatAlgebra
from compalg.matrices import CompMatrix
from compalg.rng import SplitMix64
from compalg.serialize import (
    algebra_from_json,
    algebra_to_json,
    element_from_json,
    element_to_json,
    field_from_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    scalar_from_json,
    scalar_to_json,
)


@pytest.mark.parametrize(
    "spec",
    [QQ, PrimeField(5), QuadExt(QQ, -1), QuadExt(PrimeField(7), 3)],
    ids=repr,
)
def test_field_roundtrip(spec):
    assert field_from_json(field_to_json(spec)) == spec


def test_scalar_encodings():
    assert scalar_to_json(QQ.element(Fraction(3, 4))) == "3/4"
    assert scalar_to_json(QQ.element(-2)) == "-2"
    assert scalar_to_json(PrimeField(5).element(3)) == 3
    L = QuadExt(QQ, 2)
    assert scalar_to_json(L.element((1, Fraction(-1, 2)))) == ["1", "-1/2"]
    for spec, payload in ((QQ, "3/4"), (PrimeField(5), 3), (L, ["1", "-1/2"])):
        x = scalar_from_json(spec, payload)
        assert scalar_to_json(x) == payload


@pytest.mark.parametrize(
    "spec, text",
    [(QQ, "0.1"), (PrimeField(7), "2.5"), (QQ, "1e400"), (QQ, "true"), (QuadExt(PrimeField(7), 3), "[1, 2.5]")],
)
def test_scalars_must_be_exact(spec, text):
    # JSON floats and booleans are rejected, not converted to a nearby exact value
    with pytest.raises(CompAlgError, match="must be an integer or a string"):
        scalar_from_json(spec, json.loads(text))


@pytest.mark.parametrize(
    "spec, text",
    [
        (QQ, "1e3"),
        (QQ, " 3 "),
        (QQ, "1_000"),
        (QQ, "1/0"),
        (QQ, "-2/00"),
        (QQ, "0x10"),
        (QQ, "1.5"),
        (PrimeField(7), "1/0"),
        (PrimeField(7), "1/2"),
        (PrimeField(7), " 3"),
        (PrimeField(7), "0x10"),
    ],
)
def test_scalar_strings_must_match_the_schema(spec, text):
    # "p" or "p/q" (q != 0) over QQ and "p" over GF(p), as scalar.schema.json states
    with pytest.raises(CompAlgError, match=re.escape(repr(text))):
        scalar_from_json(spec, text)


def test_scalar_strings_in_the_schema_are_read():
    assert [scalar_from_json(QQ, t).raw for t in ("3/4", "-12", "0/5", "007")] == [Fraction(3, 4), -12, 0, 7]
    assert [scalar_from_json(PrimeField(7), t).raw for t in ("-3", "10", "0")] == [4, 3, 0]


def test_algebra_and_element_roundtrip():
    rng = SplitMix64(61)
    for algebra in (QuatAlgebra(QQ, -1, -1), QuatAlgebra(PrimeField(3), 1, -1), Mat2Algebra(QQ)):
        assert algebra_from_json(algebra_to_json(algebra)) == algebra
        for _ in range(20):
            e = algebra.element([rng.randint(-3, 3) for _ in range(4)])
            assert element_from_json(element_to_json(e)) == e


def test_matrix_roundtrip_both_encodings():
    rng = SplitMix64(62)
    for algebra in (QuatAlgebra(QQ, 2, 5), Mat2Algebra(PrimeField(5))):
        Z = CompMatrix(
            algebra,
            [
                [algebra.element([rng.randint(-3, 3) for _ in range(4)]) for _ in range(3)]
                for _ in range(2)
            ],
        )
        assert matrix_from_json(matrix_to_json(Z)) == Z


def test_blocks_encoding_reads_into_quat_form():
    payload = load_fixture("z1")["matrix"]
    as_mat2 = matrix_from_json(payload)
    assert isinstance(as_mat2.algebra, Mat2Algebra)
    quat_payload = dict(payload)
    quat_payload["algebra"] = {"field": {"kind": "Q"}, "a": "1", "b": "-1"}
    as_quat = matrix_from_json(quat_payload)
    assert isinstance(as_quat.algebra, QuatAlgebra)
    from compalg.matrices import quat_matrix_to_mat2

    assert quat_matrix_to_mat2(as_quat) == as_mat2


def _schema(name):
    path = resources.files("compalg") / "schemas" / name
    return json.loads(path.read_text())


def _registry_validator(schema):
    import referencing

    docs = [_schema(f"{name}.schema.json") for name in ("field", "scalar", "matrix")]
    registry = referencing.Registry().with_resources(
        (doc["$id"], referencing.Resource.from_contents(doc)) for doc in docs
    )
    return jsonschema.Draft202012Validator(schema, registry=registry)


def test_fixture_matrices_validate_against_schema():
    validator = _registry_validator(_schema("matrix.schema.json"))
    for name in ("z1", "z2", "z3"):
        validator.validate(load_fixture(name)["matrix"])


def test_all_fixtures_parse():
    fixtures = corpus_fixtures()
    assert {"z1", "z2", "z3", "cl01", "cl10", "cl02", "cl11", "cl20"} <= set(fixtures)
    for name in ("z1", "z2", "z3"):
        matrix_from_json(fixtures[name]["matrix"])
    for name in ("cl01", "cl10", "cl02", "cl11", "cl20"):
        fx = fixtures[name]
        assert set(fx["expected"]) == {"base", "matrix_size", "direct_sum"}
