import copy
import json
import pickle
import re
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

from compalg.corpus import fixture_names, load_fixture
from compalg.errors import CompAlgError
from compalg.fields import QQ, PrimeField, QuadExt, Scalar
from compalg.quaternion import Mat2Algebra, QuatAlgebra
from compalg.matrices import CompMatrix, mat2_matrix_to_quat
from compalg.rng import SplitMix64
from compalg.serialize import (
    algebra_from_json,
    algebra_to_json,
    element_to_json,
    field_from_json,
    field_to_json,
    matrix_from_json,
    matrix_to_json,
    raw_from_json,
    scalar_to_json,
)


def scalar_from_json(spec, obj):
    return Scalar(spec, raw_from_json(spec, obj))


def element_from_json(obj):
    """Oracle: the algebra, then the coefficients or the 2x2 block of `element_to_json`."""
    algebra = algebra_from_json(obj["algebra"])
    raws = obj["coeffs"] if "coeffs" in obj else [c for row in obj["block"] for c in row]
    return algebra.element([raw_from_json(algebra.field, c) for c in raws])


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
    assert mat2_matrix_to_quat(as_mat2) == as_quat


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
    fixtures = {name: load_fixture(name) for name in fixture_names()}
    assert {"z1", "z2", "z3", "cl01", "cl10", "cl02", "cl11", "cl20"} <= set(fixtures)
    for name in ("z1", "z2", "z3"):
        matrix_from_json(fixtures[name]["matrix"])
    for name in ("cl01", "cl10", "cl02", "cl11", "cl20"):
        fx = fixtures[name]
        assert set(fx["expected"]) == {"base", "matrix_size", "direct_sum"}


def _twins(value):
    """A value through pickle at every protocol, through `deepcopy` and through `copy`."""
    twins = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return twins + [copy.deepcopy(value), copy.copy(value)]


def test_reports_survive_pickle_and_copy():
    # a report is rebuilt with its fields in their order, so its JSON keeps its key order
    from compalg import clifford, rank, weyl, zmodule

    spin = clifford.unit_vector_product(clifford.CliffordSignature(2, 1), [(1, 0, 0), (Fraction(3, 5), Fraction(4, 5), 0)])
    model = zmodule.build_localization_model(2, 5, (1, 1, -1))
    reports = [
        rank.verify_span_bound(Mat2Algebra(PrimeField(2)), 1, 1, 1, trials=2, seed=7),
        weyl.verify_generation("Sym", 2, 3),
        clifford.classify(3, 0),
        clifford.verify_classification(0, 2),
        clifford.clifford_group_membership(clifford.CliffordSignature(2, 0).basis_vector(1)),
        clifford.clifford_group_membership(spin),
        model.checks,
    ]
    assert reports[-2].spin_witness == spin._factors
    for report in reports:
        for twin in _twins(report):
            assert list(twin.to_json().items()) == list(report.to_json().items()), report
    for twin in _twins(model):
        assert twin == model and twin.verdict() == model.verdict()


def _value_types():
    """One value of every immutable type, each algebra with an element x and a second one y."""
    from compalg import clifford, poincare, weyl, zmodule
    from compalg.matrices import FieldMatrix

    algebras = [QuatAlgebra(QQ, 2, 5), QuatAlgebra(QQ, Fraction(-1, 3), Fraction(5, 2)), QuatAlgebra(PrimeField(7), 3, -1),
                Mat2Algebra(QQ), Mat2Algebra(PrimeField(2)), Mat2Algebra(PrimeField(7))]
    elements = [(alg.element((1, Fraction(2, 3), 0, -4)), alg.element((0, 5, -1, Fraction(1, 2))))
                for alg in algebras if not alg.field.characteristic]
    elements += [(alg.element((1, 2, 0, 3)), alg.element((0, 5, 6, 1))) for alg in algebras if alg.field.characteristic]
    for p, q in ((2, 0), (1, 2), (2, 2)):
        sig = clifford.CliffordSignature(p, q)
        x = clifford.unit_vector_product(sig, [[int(i == j) for i in range(p + q)] for j in range(2)])
        elements.append((x, sig.element([Fraction(i % 3, 2) for i in range(sig.dim)])))
    alg = QuatAlgebra(QQ, 2, 5)
    others = [
        Scalar(QQ, Fraction(2, 3)), Scalar(PrimeField(7), 4), Scalar(QuadExt(QQ, 2), (Fraction(1), Fraction(-1, 2))),
        CompMatrix(alg, [[alg.u(), alg.one()], [alg.zero(), alg.w()]]), FieldMatrix(QQ, [[1, 2], [3, Fraction(1, 4)]]),
        zmodule.IntMatrix([[1, 2], [3, 4]]), weyl.LaurentPoly(2, {(1, -1): 3, (0, 2): Fraction(1, 2)}),
        poincare.UniPoly((1, 0, 2)), poincare.WeylDegrees("BC:2", (4, 2)), weyl.SignedPerm((1, 0), (1, -1)),
    ]
    return elements, others


def test_every_value_type_survives_pickle_and_copy():
    # a twin equals its original, and the twins of two elements multiply to
    # the product of the originals, through the product of the twin algebra
    elements, others = _value_types()
    for x, y in elements:
        alg = x.algebra
        if isinstance(alg, QuatAlgebra):
            alg.is_split_decision()  # a decided algebra holds its witness, an element that holds the algebra
        for tx, ty in zip(_twins(x), _twins(y)):
            assert type(tx) is type(x) and tx == x and ty == y and tx.coeffs == x.coeffs
            assert tx * ty == x * y and (tx * ty).coeffs == (x * y).coeffs
            assert tx.algebra == alg and vars(tx.algebra).keys() == vars(alg).keys()
            if isinstance(alg, QuatAlgebra):  # a split witness holds its own algebra, not a copy of it
                witness = tx.algebra.split_witness()
                assert witness == alg.split_witness() and (witness is None or witness.algebra is tx.algebra)
        if hasattr(x, "_factors"):
            assert all(t._factors == x._factors for t in _twins(x))
    for value in others:
        for twin in _twins(value):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("kind", ["Scalar", "TableElement", "RingMatrix", "IntMatrix", "LaurentPoly",
                                  "UniPoly", "WeylDegrees", "SignedPerm"])
def test_immutability_guards_refuse_assignment(kind):
    # each slot of the guarded base, and a new name, on a value of a subclass where there is one
    elements, others = _value_types()
    value = next(v for v in [x for x, _ in elements] + others if kind in {c.__name__ for c in type(v).__mro__})
    base = next(c for c in type(value).__mro__ if c.__name__ == kind)
    for attr in (*base.__slots__, "other"):
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            setattr(value, attr, None)
