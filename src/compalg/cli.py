"""Command-line front end.

Every command prints one deterministic payload: identical inputs and seed
give byte-identical JSON.  Exit codes: 0 on success, 1 on input or
validation errors (a structured error object goes to stderr), 2 when a
verification harness observes a violated property.  The computation budget
in milliseconds comes from --budget-ms or the COMPALG_BUDGET_MS variable.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import clifford as cliff
from . import poincare as poly
from . import weyl
from . import zmodule
from .corpus import load_fixture
from .errors import CompAlgError
from .fields import QQ, PrimeField
from .matrices import (
    CompMatrix,
    flatten_split,
    is_invertible,
    split_pair,
    study_det,
    symplectic_rep,
)
from .quaternion import Mat2Algebra, QuatAlgebra
from .rank import DEFAULT_BUDGET_MS, comp_rank, dependence_bound, verify_span_bound
from .rng import SplitMix64
from .serialize import (
    element_to_json,
    int_rows_from_json,
    matrix_from_json,
    raw_to_json,
    scalar_to_json,
)


@dataclass
class Result:
    payload: object
    text: str | None = None
    latex: str | None = None
    exit_code: int = 0


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def nonnegative(text: str) -> int:
    """The argparse type of a count: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def parse_field(token: str):
    if token in ("Q", "QQ"):
        return QQ
    if token.startswith("Fp:"):
        return PrimeField(int(token.split(":", 1)[1]))
    raise CliError(f"unknown field token {token!r} (use Q or Fp:<prime>)")


def parse_algebra(args):
    spec = parse_field(args.field)
    if getattr(args, "split", False):
        return Mat2Algebra(spec)
    if args.a is None or args.b is None:
        raise CliError("provide --a and --b, or --split")
    return QuatAlgebra(spec, Fraction(args.a), Fraction(args.b))


def parse_coeffs(text: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise CliError("coefficients must be four comma-separated values")
    return [Fraction(p) for p in parts]


def parse_degrees(token: str) -> poly.WeylDegrees:
    parts = []
    for piece in token.split("*"):
        name, _, num = piece.partition(":")
        if not num:
            raise CliError(f"degree token {piece!r} needs the form NAME:n")
        n = int(num)
        name = name.upper()
        if name == "A":
            parts.append(poly.WeylDegrees.type_a(n))
        elif name in ("BC", "B", "C"):
            parts.append(poly.WeylDegrees.type_bc(n))
        elif name == "D":
            parts.append(poly.WeylDegrees.type_d(n))
        elif name == "U1SU":
            parts.append(poly.WeylDegrees.u1su(n))
        else:
            raise CliError(f"unknown degree family {name!r}")
    return parts[0] if len(parts) == 1 else poly.WeylDegrees.joint(parts)


def parse_group(token: str) -> weyl.SignedPermGroup:
    token = token.strip()
    if token.startswith("{") or token.startswith("["):
        return weyl.group_from_json(json.loads(token))
    factors = []
    for piece in token.split("*"):
        name, _, num = piece.partition(":")
        if not num:
            raise CliError(f"group token {piece!r} needs the form NAME:n")
        factors.append(weyl.group_from_json({"flavor": name, "n": int(num)}))
    return factors[0] if len(factors) == 1 else weyl.ProductGroup(factors)


def parse_multivector(sig: cliff.CliffordSignature, text: str) -> cliff.Multivector:
    """Terms like "1", "-e12", "1/2*e1 + 2" over the given signature."""
    acc = sig.zero()
    for chunk in weyl._split_terms(text):
        chunk = chunk.strip().replace(" ", "")
        if not chunk:
            continue
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign, chunk = Fraction(-1), chunk[1:]
        elif chunk.startswith("+"):
            chunk = chunk[1:]
        coeff_text, _, blade_text = chunk.rpartition("*")
        if not coeff_text and blade_text.startswith("e"):
            coeff = Fraction(1)
        elif not coeff_text:
            coeff, blade_text = Fraction(blade_text), ""
        else:
            coeff = Fraction(coeff_text)
        if blade_text:
            if not (blade_text.startswith("e") and blade_text[1:].isdecimal()):
                raise CliError(f"cannot parse blade {blade_text!r} in term {chunk!r}")
            indices = [int(ch) for ch in blade_text[1:]]
            term = sig.blade(indices)
        else:
            term = sig.one()
        acc = acc + term.scale(sign * coeff)
    return acc


def multivector_to_json(x: cliff.Multivector) -> dict:
    out = {}
    for blade, c in zip(x.sig.blades, x.coeffs):
        if c == 0:
            continue
        key = "".join(str(i) for i in blade) or "0"
        out[key] = str(c) if c.denominator != 1 else str(c.numerator)
    return out


def load_json_file(path: str):
    """Read a JSON document from a file path, or inline when it looks like JSON."""
    if path.lstrip().startswith(("{", "[")):
        try:
            return json.loads(path)
        except json.JSONDecodeError as exc:
            raise CliError(f"inline JSON is invalid: {exc}") from exc
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc


def matrix_argument(args) -> CompMatrix:
    if getattr(args, "fixture", None):
        fixture = load_fixture(args.fixture)
        return matrix_from_json(fixture["matrix"])
    if getattr(args, "input", None):
        payload = load_json_file(args.input)
        return matrix_from_json(payload.get("matrix", payload) if isinstance(payload, dict) else payload)
    raise CliError("provide --input FILE or --fixture NAME")


def field_matrix_json(M) -> dict:
    return {
        "m": M.m,
        "n": M.n,
        "entries": [[scalar_to_json(e) for e in row] for row in M.rows],
    }


def field_matrix_latex(M) -> str:
    body = r" \\ ".join(
        " & ".join(str(raw_to_json(M.ring, e.raw)) for e in row) for row in M.rows
    )
    return rf"\begin{{bmatrix}} {body} \end{{bmatrix}}"


# ---------------------------------------------------------------- handlers


def cmd_quat(args) -> Result:
    algebra = parse_algebra(args)
    if args.action == "is-split":
        witness = None
        verdict = algebra.is_split_decision()
        if verdict == "split" and algebra.split_witness() is not None:
            witness = element_to_json(algebra.split_witness())
        return Result({"verdict": verdict, "zero_divisor": witness}, text=verdict)
    x = algebra.element(parse_coeffs(args.x))
    if args.action == "mul":
        y = algebra.element(parse_coeffs(args.y))
        out = x * y
        return Result(element_to_json(out), text=repr(out))
    if args.action == "norm":
        n = x.norm()
        return Result({"norm": scalar_to_json(n)}, text=str(raw_to_json(n.spec, n.raw)))
    if args.action == "conjugate":
        out = x.conjugate()
        return Result(element_to_json(out), text=repr(out))
    if args.action == "inverse":
        out = x.inverse()
        return Result(element_to_json(out), text=repr(out))
    raise CliError(f"unknown quat action {args.action!r}")


def cmd_mat(args) -> Result:
    Z = matrix_argument(args)
    if args.action == "study-det":
        value = study_det(Z)
        return Result(
            {"study_det": scalar_to_json(value)},
            text=str(raw_to_json(value.spec, value.raw)),
        )
    if args.action == "sympl":
        rep = symplectic_rep(Z)
        return Result(field_matrix_json(rep), latex=field_matrix_latex(rep))
    if args.action == "invertible":
        verdict = is_invertible(Z)
        return Result({"invertible": verdict}, text=str(verdict).lower())
    if args.action == "flatten":
        flat = flatten_split(Z)
        return Result(field_matrix_json(flat), latex=field_matrix_latex(flat))
    if args.action == "split-pair":
        first, second = split_pair(Z)
        return Result(
            {"first": field_matrix_json(first), "second": field_matrix_json(second)},
            latex=field_matrix_latex(first) + ", " + field_matrix_latex(second),
        )
    raise CliError(f"unknown mat action {args.action!r}")


def cmd_span(args) -> Result:
    if args.action == "rank":
        Z = matrix_argument(args)
        value = comp_rank(Z)
        return Result({"rank": value}, text=str(value))
    if args.action == "bound":
        algebra = parse_algebra(args)
        value = dependence_bound(algebra, args.m, args.d)
        return Result(
            {"threshold": value, "family_size": 1 + args.n * value if args.n else None},
            text=str(value),
        )
    if args.action == "verify-bound":
        algebra = parse_algebra(args)
        report = verify_span_bound(
            algebra,
            args.m,
            args.n,
            args.d,
            trials=args.trials,
            seed=args.seed,
            entry_bound=args.entry_bound,
            budget_ms=args.budget_ms,
        )
        code = 0 if report.counterexample is None else 2
        return Result(
            report.to_json(),
            text=f"successes {report.successes}/{report.trials}",
            exit_code=code,
        )
    raise CliError(f"unknown span action {args.action!r}")


def cmd_poincare(args) -> Result:
    if args.action == "hirsch":
        out = poly.hirsch(parse_degrees(args.g), parse_degrees(args.u))
    elif args.action == "product-form":
        if args.space == "sp-u1su":
            out = poly.sp_u1su_poincare(args.n)
        elif args.space == "so-u1su":
            out = poly.so_u1su_poincare(args.n)
        else:
            raise CliError("space must be sp-u1su or so-u1su")
    elif args.action == "gaussian":
        out = poly.gaussian_binomial(args.n, args.k, step=args.step)
    elif args.action == "grassmann":
        out = poly.grassmann_poincare(args.p, args.q)
    elif args.action == "oriented-grassmann":
        out = poly.oriented_grassmann_poincare(args.m, args.k)
    elif args.action == "clifford-gamma":
        out = poly.clifford_group_quotient_poincare(args.n, args.p, args.q)
    else:
        raise CliError(f"unknown poincare action {args.action!r}")
    return Result(out.to_sparse(), text=out.text(), latex=out.latex())


def cmd_weyl(args) -> Result:
    if args.action == "index":
        value = weyl.weyl_index(parse_group(args.g), parse_group(args.h))
        return Result({"index": value}, text=str(value))
    if args.action == "ktheory":
        kind = args.pair.replace("-", "_")
        value = weyl.ktheory_rank(kind, args.n)
        return Result({"rank": value}, text=str(value))
    if args.action == "reynolds":
        G = parse_group(args.group)
        f = weyl.parse_laurent(args.poly, G.n)
        out = weyl.reynolds(G, f)
        return Result({"poly": out.text()}, text=out.text())
    if args.action == "generators":
        gens = weyl.fundamental_generators(args.flavor, args.n)
        return Result({"generators": [g.text() for g in gens]}, text="\n".join(g.text() for g in gens))
    if args.action == "verify-generation":
        report = weyl.verify_generation(args.flavor, args.n, args.bound)
        return Result(report.to_json(), text=f"expressible {report.expressible}/{report.checked}")
    raise CliError(f"unknown weyl action {args.action!r}")


def cmd_zmod(args) -> Result:
    if args.action == "snf":
        payload = load_json_file(args.input)
        if isinstance(payload, dict):
            payload = payload.get("rows", payload)
        A = zmodule.IntMatrix(int_rows_from_json(payload, "--input"))
        U, D, V = zmodule.smith_normal_form(A)
        factors = zmodule.diagonal_factors(D)
        return Result(
            {
                "D": [list(r) for r in D.rows],
                "U": [list(r) for r in U.rows],
                "V": [list(r) for r in V.rows],
                "invariant_factors": list(factors),
            },
            text=" ".join(str(x) for x in factors) or "0",
        )
    if args.action == "loc-model":
        count = 2 * args.n - 1
        signs = [1 if ch == "+" else -1 for ch in args.signs]
        if any(ch not in "+-" for ch in args.signs):
            raise CliError("signs must be a string of + and - characters")
        if len(signs) < count:
            raise CliError(f"need at least {count} signs for n = {args.n}")
        model = zmodule.build_localization_model(args.n, args.smax, signs[:count])
        verdict = model.verdict()
        return Result(
            verdict,
            text=json.dumps(verdict, separators=(",", ":")),
            exit_code=0 if verdict["splits"] else 2,
        )
    if args.action == "sequence-check":
        f = zmodule.IntMatrix(int_rows_from_json(load_json_file(args.f), "--f"))
        g = zmodule.IntMatrix(int_rows_from_json(load_json_file(args.g), "--g"))
        checks = zmodule.sequence_checks(f, g)
        return Result(checks.to_json(), exit_code=0 if checks.all_true() else 2)
    raise CliError(f"unknown zmod action {args.action!r}")


def _sig_arg(args) -> cliff.CliffordSignature:
    parts = args.sig.split(",")
    if len(parts) != 2:
        raise CliError(f"--sig must be two counts p,q, not {args.sig!r}")
    return cliff.CliffordSignature(int(parts[0]), int(parts[1]))


def cmd_clifford(args) -> Result:
    if args.action == "classify":
        out = cliff.classify(args.p, args.q)
        return Result(out.to_json(), text=f"{out.base} size {out.matrix_size}" + (" (+)^2" if out.direct_sum else ""))
    if args.action == "verify":
        report = cliff.verify_classification(args.p, args.q)
        return Result(report.to_json(), exit_code=0 if report.agree() else 2)
    if args.action == "product":
        sig = _sig_arg(args)
        out = parse_multivector(sig, args.x) * parse_multivector(sig, args.y)
        return Result(multivector_to_json(out), text=repr(out))
    if args.action == "membership":
        sig = _sig_arg(args)
        report = cliff.clifford_group_membership(parse_multivector(sig, args.x))
        return Result(report.to_json())
    if args.action == "spin-check":
        return _spin_check(args)
    raise CliError(f"unknown clifford action {args.action!r}")


def _spin_check(args) -> Result:
    sig = cliff.CliffordSignature(args.p, args.q)
    if sig.n == 0:
        raise CliError("spin-check needs p + q >= 1: Cl(0,0) has no unit vectors")
    rng = SplitMix64(args.seed)
    n = sig.n
    failures = []
    for trial in range(args.count):
        k = 2 * rng.randint(1, 3)
        coords = []
        for _ in range(k):
            axis = rng.randint(1, n)
            vec = [0] * n
            vec[axis - 1] = 1
            coords.append(vec)
        g = cliff.unit_vector_product(sig, coords)
        matrix = cliff.induced_matrix(g)
        from .ratlin import det as rat_det

        ok = cliff.preserves_form(sig, matrix) and rat_det(matrix) == 1
        if not ok:
            failures.append({"trial": trial, "factors": [list(map(str, c)) for c in coords]})
    payload = {
        "p": args.p,
        "q": args.q,
        "trials": args.count,
        "violations": failures,
    }
    return Result(payload, text=f"violations {len(failures)}/{args.count}", exit_code=0 if not failures else 2)


# ---------------------------------------------------------------- plumbing


# Each command's actions, and the flags each action needs in the order they
# are checked before its handler runs; "p+q" is one group, reported together.
# Either-or choices (--a and --b or --split, --input or --fixture) are
# checked where they are read.
_ACTIONS = {
    "quat": {
        "mul": "field x y", "norm": "field x", "conjugate": "field x", "inverse": "field x",
        "is-split": "field",
    },
    "mat": dict.fromkeys(("study-det", "sympl", "invertible", "flatten", "split-pair"), ""),
    "span": {"rank": "", "bound": "field m d", "verify-bound": "field m n d"},
    "poincare": {
        "hirsch": "g u", "product-form": "space n", "gaussian": "n k", "grassmann": "p+q",
        "oriented-grassmann": "m k", "clifford-gamma": "n p+q",
    },
    "weyl": {
        "index": "g h", "ktheory": "pair", "reynolds": "group poly", "generators": "flavor n",
        "verify-generation": "flavor n bound",
    },
    "zmod": {"snf": "input", "loc-model": "n smax", "sequence-check": "f g"},
    "clifford": {
        "classify": "p+q", "verify": "p+q", "product": "sig x y", "membership": "sig x",
        "spin-check": "p+q",
    },
}


def build_parser() -> _Parser:
    parser = _Parser(prog="compalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", choices=("json", "text", "latex"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--budget-ms",
            type=int,
            default=int(os.environ.get("COMPALG_BUDGET_MS", DEFAULT_BUDGET_MS)),
        )
        return p

    def algebra_flags(p):
        p.add_argument("--field", help="Q or Fp:<prime>")
        p.add_argument("--a", help="first algebra parameter")
        p.add_argument("--b", help="second algebra parameter")
        p.add_argument("--split", action="store_true", help="use the 2x2 split algebra")
        return p

    quat = common(sub.add_parser("quat", help="quaternion element operations"))
    algebra_flags(quat)
    quat.add_argument("action", choices=tuple(_ACTIONS["quat"]))
    quat.add_argument("--x", help="four comma-separated coefficients")
    quat.add_argument("--y", help="four comma-separated coefficients")

    mat = common(sub.add_parser("mat", help="matrix operations over an algebra"))
    mat.add_argument("action", choices=tuple(_ACTIONS["mat"]))
    mat.add_argument("--input", help="matrix JSON file")
    mat.add_argument("--fixture", help="bundled fixture name")

    span = common(sub.add_parser("span", help="rank and spanning-threshold checks"))
    span.add_argument("action", choices=tuple(_ACTIONS["span"]))
    algebra_flags(span)
    span.add_argument("--input")
    span.add_argument("--fixture")
    span.add_argument("--m", type=int)
    span.add_argument("--n", type=nonnegative)
    span.add_argument("--d", type=int)
    span.add_argument("--trials", type=nonnegative, default=10)
    span.add_argument("--entry-bound", type=int, default=3)

    poin = common(sub.add_parser("poincare", help="Poincare polynomial formulas"))
    poin.add_argument("action", choices=tuple(_ACTIONS["poincare"]))
    poin.add_argument("--g", help="degree token, e.g. BC:3")
    poin.add_argument("--u", help="degree token, e.g. U1SU:3")
    poin.add_argument("--space", help="sp-u1su or so-u1su")
    poin.add_argument("--n", type=int)
    poin.add_argument("--k", type=int)
    poin.add_argument("--m", type=int)
    poin.add_argument("--p", type=int)
    poin.add_argument("--q", type=int)
    poin.add_argument("--step", type=int, default=1, choices=(1, 2))

    wey = common(sub.add_parser("weyl", help="Weyl group invariants and indices"))
    wey.add_argument("action", choices=tuple(_ACTIONS["weyl"]))
    wey.add_argument("--g")
    wey.add_argument("--h")
    wey.add_argument("--pair", help="quaternionic, split, or one-dim-split")
    wey.add_argument("--n", type=nonnegative)
    wey.add_argument("--group")
    wey.add_argument("--poly")
    wey.add_argument("--flavor")
    wey.add_argument("--bound", type=nonnegative)

    zmod = common(sub.add_parser("zmod", help="integer-lattice computations"))
    zmod.add_argument("action", choices=tuple(_ACTIONS["zmod"]))
    zmod.add_argument("--input")
    zmod.add_argument("--f")
    zmod.add_argument("--g")
    zmod.add_argument("--n", type=nonnegative)
    zmod.add_argument("--smax", type=int)
    zmod.add_argument("--signs", default="")

    cl = common(sub.add_parser("clifford", help="Clifford algebra computations"))
    cl.add_argument("action", choices=tuple(_ACTIONS["clifford"]))
    cl.add_argument("--p", type=int)
    cl.add_argument("--q", type=int)
    cl.add_argument("--sig", help="signature as p,q")
    cl.add_argument("--x")
    cl.add_argument("--y")
    cl.add_argument("--count", type=nonnegative, default=20)

    return parser


def _check_required(args) -> None:
    for group in _ACTIONS[args.command][args.action].split():
        names = group.split("+")
        if any(getattr(args, name) is None for name in names):
            flags = " and ".join(f"--{name}" for name in names)
            raise CliError(f"{args.command} {args.action} needs {flags}")


_HANDLERS = {
    "quat": cmd_quat,
    "mat": cmd_mat,
    "span": cmd_span,
    "poincare": cmd_poincare,
    "weyl": cmd_weyl,
    "zmod": cmd_zmod,
    "clifford": cmd_clifford,
}


def emit(result: Result, mode: str) -> None:
    if mode == "text" and result.text is not None:
        print(result.text)
    elif mode == "latex" and result.latex is not None:
        print(result.latex)
    else:
        print(json.dumps(result.payload, separators=(",", ":")))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_required(args)
        result = _HANDLERS[args.command](args)
    except (CliError, CompAlgError, ValueError, ZeroDivisionError, FileNotFoundError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error, separators=(",", ":")), file=sys.stderr)
        return 1
    except AssertionError as exc:
        error = {"error": {"type": "PropertyViolation", "message": str(exc)}}
        print(json.dumps(error, separators=(",", ":")), file=sys.stderr)
        return 2
    emit(result, args.output)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
