"""Exact computations with associative composition algebras.

Quadratic and quaternion algebras over the rationals and prime fields,
matrices over them (doubling representation, Study determinant, rank over
the algebra, guaranteed low-rank combinations), Poincare polynomials of the
classical quotients attached to pairs of such algebras, Weyl-group invariant
rings and index counts, integer-lattice exact-sequence checks, and Clifford
algebras with their groups.  Everything is exact; there is no floating point
anywhere in the package.

The public names are those in `__all__`: the scalar fields, the two
quaternion realizations, matrices over them and rank over the algebra.  Each
loads its module on first use (PEP 562), so `import compalg` imports none of
them; the other modules (`poincare`, `weyl`, `zmodule`, `clifford`, ...) are
imported by name, as `compalg.weyl`.

All value types derive from `errors.Frozen`: immutable, restored by pickle
and copy without re-running a constructor, and so shared freely across
threads or processes; the verification harnesses are embarrassingly parallel
over trials if a caller wants to distribute them.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each public name
_SOURCES = {
    "fields": ("QQ", "PrimeField", "QuadExt", "RationalField", "Scalar", "is_square"),
    "quaternion": (
        "Mat2Algebra",
        "Mat2Element",
        "QuatAlgebra",
        "QuaternionElement",
        "mat2_to_quat",
        "quat_to_mat2",
    ),
    "matrices": (
        "CompMatrix",
        "FieldMatrix",
        "flatten_split",
        "is_invertible",
        "skew_column_rank",
        "skew_solve",
        "split_pair",
        "study_det",
        "symplectic_rep",
        "unflatten_split",
    ),
    "rank": (
        "SpanReport",
        "comp_rank",
        "dependence_bound",
        "low_rank_combination",
        "verify_span_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
