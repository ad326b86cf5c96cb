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
from fractions import Fraction

# each command imports the modules it runs, so a call loads no other command's code
from .errors import DEFAULT_BUDGET_MS, CompAlgError


class Result:
    """A command's JSON payload, its optional text and LaTeX forms, and its exit code."""

    def __init__(self, payload, text: str | None = None, latex: str | None = None, exit_code: int = 0):
        self.payload, self.text, self.latex, self.exit_code = payload, text, latex, exit_code


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


def seed(text: str) -> int:
    """The argparse type of a seed: an integer in [0, 2^64), all that `SplitMix64` keeps."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2^64), got {value}")
    return value


def parse_field(token: str):
    from .fields import QQ, PrimeField

    if token in ("Q", "QQ"):
        return QQ
    if token.startswith("Fp:"):
        return PrimeField(_integer(f"--field token {token!r} needs an integer prime", token[3:]))
    raise CliError(f"unknown field token {token!r} (use Q or Fp:<prime>)")


def parse_algebra(args):
    from .quaternion import Mat2Algebra, QuatAlgebra

    spec = parse_field(args.field)
    if getattr(args, "split", False):
        return Mat2Algebra(spec)
    if args.a is None or args.b is None:
        raise CliError("provide --a and --b, or --split")
    return QuatAlgebra(spec, _rational("--a", args.a), _rational("--b", args.b))


def _rational(flag: str, text: str) -> Fraction:
    """A scalar by the literal rule of the JSON scalar schema, p or p/q with q != 0."""
    from .termsplit import RATIONAL

    if not RATIONAL.fullmatch(text):
        raise CliError(f"{flag} must be p or p/q with q != 0, got {text!r}")
    return Fraction(text)


def parse_coeffs(text: str, flag: str):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise CliError(f"{flag} must be four comma-separated values, got {text!r}")
    return [_rational(flag, p) for p in parts]


def _integer(what: str, text: str) -> int:
    """int(text), or a CliError that says `what` and quotes the text."""
    try:
        return int(text)
    except ValueError:
        raise CliError(f"{what}, got {text!r}") from None


def _named_counts(token: str, kind: str):
    """(NAME, n) for each factor of a NAME:n[*NAME:n] token."""
    out = []
    for piece in token.split("*"):
        name, _, num = piece.partition(":")
        if not num:
            raise CliError(f"{kind} token {piece!r} needs the form NAME:n")
        out.append((name, _integer(f"{kind} token {piece!r} needs an integer count", num)))
    return out


def parse_degrees(token: str):
    from . import poincare as poly

    W = poly.WeylDegrees
    families = {"A": W.type_a, "BC": W.type_bc, "B": W.type_bc, "C": W.type_bc, "D": W.type_d, "U1SU": W.u1su}
    parts = []
    for name, n in _named_counts(token, "degree"):
        if name.upper() not in families:
            raise CliError(f"unknown degree family {name.upper()!r}")
        parts.append(families[name.upper()](n))
    return parts[0] if len(parts) == 1 else W.joint(parts)


def parse_group(token: str):
    from . import weyl

    token = token.strip()
    if token.startswith("{") or token.startswith("["):
        return weyl.group_from_json(json.loads(token))
    factors = [weyl.group_from_json({"flavor": name, "n": n}) for name, n in _named_counts(token, "group")]
    return factors[0] if len(factors) == 1 else weyl.ProductGroup(factors)


def parse_multivector(sig, text: str):
    """A sum like "1/2*e1 - e12 + 2" (the grammar of `termsplit`) over the given Clifford signature."""
    from .termsplit import parse_terms

    def blade(name):
        if not (name.startswith("e") and name[1:].isdecimal()):
            raise ValueError(f"cannot parse blade {name!r}")
        return sig.blade(int(ch) for ch in name[1:])

    try:
        terms = parse_terms(text, blade)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    acc = sig.zero()
    for coeff, term in terms:
        acc = acc + (sig.one() if term is None else term).scale(coeff)
    return acc


def multivector_to_json(x) -> dict:
    return {"".join(map(str, blade)) or "0": str(c) for blade, c in zip(x.sig.blades, x.coeffs) if c}


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


def matrix_argument(args):
    from .corpus import load_fixture
    from .serialize import matrix_from_json

    if getattr(args, "fixture", None):
        fixture = load_fixture(args.fixture)
        return matrix_from_json(fixture["matrix"])
    if getattr(args, "input", None):
        payload = load_json_file(args.input)
        return matrix_from_json(payload.get("matrix", payload) if isinstance(payload, dict) else payload)
    raise CliError("provide --input FILE or --fixture NAME")


def field_matrix_json(M) -> dict:
    from .serialize import scalar_to_json

    return {
        "m": M.m,
        "n": M.n,
        "entries": [[scalar_to_json(e) for e in row] for row in M.rows],
    }


def field_matrix_latex(M) -> str:
    from .serialize import raw_to_json

    body = r" \\ ".join(
        " & ".join(str(raw_to_json(M.ring, e.raw)) for e in row) for row in M.rows
    )
    return rf"\begin{{bmatrix}} {body} \end{{bmatrix}}"


# ---------------------------------------------------------------- handlers


def cmd_quat(args) -> Result:
    from .serialize import element_to_json, raw_to_json, scalar_to_json

    algebra = parse_algebra(args)
    if args.action == "is-split":
        witness = None
        verdict = algebra.is_split_decision()
        if verdict == "split" and algebra.split_witness() is not None:
            witness = element_to_json(algebra.split_witness())
        return Result({"verdict": verdict, "zero_divisor": witness}, text=verdict)
    x = algebra.element(parse_coeffs(args.x, "--x"))
    if args.action == "norm":
        n = x.norm()
        return Result({"norm": scalar_to_json(n)}, text=str(raw_to_json(n.spec, n.raw)))
    if args.action == "mul":
        out = x * algebra.element(parse_coeffs(args.y, "--y"))
    else:
        out = x.conjugate() if args.action == "conjugate" else x.inverse()
    return Result(element_to_json(out), text=repr(out))


def cmd_mat(args) -> Result:
    from .matrices import flatten_split, is_invertible, split_pair, study_det, symplectic_rep
    from .serialize import raw_to_json, scalar_to_json

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
    first, second = split_pair(Z)  # split-pair
    return Result(
        {"first": field_matrix_json(first), "second": field_matrix_json(second)},
        latex=field_matrix_latex(first) + ", " + field_matrix_latex(second),
    )


def cmd_span(args) -> Result:
    from .rank import comp_rank, dependence_bound, verify_span_bound

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
    algebra = parse_algebra(args)  # verify-bound
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


def cmd_poincare(args) -> Result:
    from . import poincare as poly

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
    else:  # clifford-gamma
        out = poly.clifford_group_quotient_poincare(args.n, args.p, args.q)
    return Result(out.to_sparse(), text=out.text(), latex=out.latex())


def cmd_weyl(args) -> Result:
    from . import weyl

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
    report = weyl.verify_generation(args.flavor, args.n, args.bound)  # verify-generation
    return Result(report.to_json(), text=f"expressible {report.expressible}/{report.checked}")


def cmd_zmod(args) -> Result:
    from . import zmodule

    if args.action == "snf":
        from .serialize import int_rows_from_json

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
    from .serialize import int_rows_from_json  # sequence-check

    f = zmodule.IntMatrix(int_rows_from_json(load_json_file(args.f), "--f"))
    g = zmodule.IntMatrix(int_rows_from_json(load_json_file(args.g), "--g"))
    checks = zmodule.sequence_checks(f, g)
    return Result(checks.to_json(), exit_code=0 if checks.all_true() else 2)


def _sig_arg(args):
    from .clifford import CliffordSignature

    parts = args.sig.split(",")
    if len(parts) != 2:
        raise CliError(f"--sig must be two counts p,q, not {args.sig!r}")
    return CliffordSignature(*(_integer(f"--sig {args.sig!r} needs integer counts p,q", c) for c in parts))


def cmd_clifford(args) -> Result:
    from . import clifford as cliff

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
    return _spin_check(args)  # spin-check


def _spin_check(args) -> Result:
    from . import clifford as cliff
    from .fields import QQ
    from .matrices import field_echelon
    from .rng import SplitMix64

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
        ok = cliff.preserves_form(sig, matrix) and field_echelon(matrix, QQ)[1] == 1
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
        p.add_argument("--seed", type=seed, default=0)
        # a string default goes through `type` inside parse_args, so a malformed variable is a CliError
        p.add_argument(
            "--budget-ms",
            type=nonnegative,
            default=os.environ.get("COMPALG_BUDGET_MS", DEFAULT_BUDGET_MS),
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
