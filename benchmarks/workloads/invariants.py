"""invariants: raw-Fraction and raw-int kernels with no Scalar wrapping.

Setup builds the Clifford signatures and the signed-permutation groups the
jobs reuse.  One cycle holds 38 jobs:

    generation  5  weyl.verify_generation, a fixed menu of (flavor, n, bound)
    reynolds    4  reynolds on BC:5 (order 3840) and D:5 of one seeded monomial
                   x_i^a x_j^b with |a| != |b|, on BC:4 and A:5 (Sym(5)) of two,
                   so orbit sizes do not depend on the seed
    locmodel    3  build_localization_model at (3,8), (4,12), (6,20), seeded signs
    sequence    3  sequence_checks on seeded split, non-saturated and random pairs
    snf         3  smith_normal_form on seeded integer matrices
    classify    8  clifford.verify_classification, p + q = 3 or 4
    spin        4  unit_vector_product + clifford_group_membership
    inverse     4  Multivector.inverse on sparse invertible elements, up to Cl(3,3)
    poincare    4  hirsch quotients and Gaussian binomials

Checks recompute each answer with the benchmark's own arithmetic: orbit
counts, invariance under generators, determinantal divisors, U*A*V = D,
bitmask blade products and values at t = 1.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import oracle
from workloads import Job

GENERATION = (("Sym", 2, 4), ("Hyperoctahedral", 2, 5), ("Sym", 3, 3), ("Hyperoctahedral", 3, 3), ("Hyperoctahedral", 3, 4))
REYNOLDS = (("BC", 5), ("D", 5), ("BC", 4), ("A", 5))
LOCMODEL = ((3, 8), (4, 12), (6, 20))
CLASSIFY = ((0, 3), (1, 2), (2, 1), (3, 0), (0, 4), (1, 3), (2, 2), (4, 0))
SPIN = ((2, 1, 2), (2, 2, 4), (3, 1, 4), (3, 3, 2))
INVERSE = ((2, 2, 5), (3, 1, 5), (3, 2, 5), (3, 3, 4))
SIGNATURES = ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
FLAVOR = {"BC": "BC", "D": "D", "A": "Sym"}
_BIG_PRIME = 2_147_483_647


def _blades(n):
    return [c for k in range(n + 1) for c in combinations(range(1, n + 1), k)]


def _mv_from_coeffs(blades, coeffs) -> dict:
    return {oracle.blade_mask(b): Fraction(c) for b, c in zip(blades, coeffs) if c != 0}


def _invertible_mod_p(p, q, x: dict) -> bool:
    metric, dim = oracle.clifford_metric(p, q), 1 << (p + q)
    columns = [oracle.clifford_mul(metric, x, {j: 1}) for j in range(dim)]
    rows = [[columns[j].get(i, 0) for j in range(dim)] for i in range(dim)]
    ops = oracle.FpOps(_BIG_PRIME)
    return oracle.rank_and_det(ops, rows)[0] == dim


def _unit_vector(rng, metric):
    n = len(metric)
    i = rng.randint(0, n - 1)
    coords = [Fraction(0)] * n
    if rng.randint(0, 1) == 0 or n == 1:
        coords[i] = Fraction(1)
        return coords
    j = rng.choice([k for k in range(n) if k != i])
    if metric[i] == metric[j]:
        s, t = Fraction(3, 5), Fraction(4, 5)
    else:
        if metric[i] < 0:
            i, j = j, i
        s, t = Fraction(5, 4), Fraction(3, 4)
    coords[i] = s * rng.choice((-1, 1))
    coords[j] = t * rng.choice((-1, 1))
    return coords


class Invariants:
    name = "invariants"
    trace_cycles = 1
    # Each cycle's third and fourth slowest jobs are Hyperoctahedral n=3
    # bound 3 (~200 ms) and Reynolds on D:5 (~175 or ~255 ms, by input); p92
    # sits between them, in the run of fixed-input Hyperoctahedral samples,
    # so the share of fast and slow Reynolds inputs does not move it.
    tail_pct = 0.92

    def __init__(self, root):
        self.root = root

    def setup(self, seed):
        from compalg import clifford, weyl

        return {
            "sigs": {pq: clifford.CliffordSignature(*pq) for pq in SIGNATURES},
            "groups": {
                (flavor, n): weyl.group_from_json({"flavor": flavor, "n": n})
                for flavor, n in REYNOLDS
            },
        }

    def jobs(self, state, rng):
        from compalg import weyl, zmodule

        out = [Job("generation", g, g) for g in GENERATION]
        for flavor, n in REYNOLDS:
            terms = {}
            while len(terms) < (1 if n == 5 and flavor != "A" else 2):
                i, j = rng.shuffle(list(range(n)))[:2]
                a, b = rng.shuffle([1, 2, 3])[:2]
                expo = [0] * n
                expo[i], expo[j] = a * rng.choice((1, -1)), b * rng.choice((1, -1))
                terms[tuple(expo)] = rng.choice((-3, -1, 1, 2))
            poly = weyl.LaurentPoly(n, terms)
            out.append(Job("reynolds", (flavor, n, terms), (state["groups"][(flavor, n)], poly)))
        for n, s_max in LOCMODEL:
            signs = tuple(rng.choice((1, -1)) for _ in range(2 * n - 1))
            out.append(Job("locmodel", (n, s_max, signs), (n, s_max, signs)))
        for variant, (a, b) in zip(("split", "doubled", "random"), ((2, 5), (3, 6), (2, 4))):
            f, g = self._sequence(rng, variant, a, b)
            out.append(Job("sequence", (f, g), (zmodule.IntMatrix(f), zmodule.IntMatrix(g))))
        for m, n, r in ((3, 4, 3), (4, 4, 2), (4, 5, 4)):
            left = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(m)]
            right = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
            A = oracle.int_matmul(left, right)
            out.append(Job("snf", A, (zmodule.IntMatrix(A),)))
        out.extend(Job("classify", pq, pq) for pq in CLASSIFY)
        for p, q, k in SPIN:
            vectors = [_unit_vector(rng, oracle.clifford_metric(p, q)) for _ in range(k)]
            out.append(Job("spin", (p, q, vectors), (state["sigs"][(p, q)], vectors)))
        for p, q, terms in INVERSE:
            sig = state["sigs"][(p, q)]
            blades = _blades(p + q)
            while True:
                coeffs = {(): Fraction(rng.randint(1, 3))}
                while len(coeffs) < terms:
                    coeffs[rng.choice(blades[1:])] = Fraction(rng.choice((-2, -1, 1, 2)))
                own = {oracle.blade_mask(b): c for b, c in coeffs.items()}
                if _invertible_mod_p(p, q, own):
                    break
            out.append(Job("inverse", (p, q, own), (sig.element(coeffs),)))
        for _ in range(2):
            n = rng.randint(3, 7)
            family = rng.choice(("BC", "D"))
            out.append(Job("hirsch", (family, n), (family, n)))
        for _ in range(2):
            n = rng.randint(6, 12)
            k = rng.randint(1, n - 1)
            step = rng.choice((1, 2))
            out.append(Job("gaussian", (n, k, step), (n, k, step)))
        return rng.shuffle(out)

    @staticmethod
    def _sequence(rng, variant, a, b):
        """(f, g) for 0 -> Z^a -> Z^b -> Z^(b-a) -> 0 built around a unimodular U."""
        c = b - a
        U, U_inv = oracle.random_unimodular(rng, b)
        f = [row[:a] for row in U]
        g = U_inv[a:]
        if variant == "doubled":
            f = [[2 * row[0]] + row[1:] for row in f]
        elif variant == "random":
            g = [[rng.randint(-2, 2) for _ in range(b)] for _ in range(c)]
        return f, g

    def run(self, state, job):
        from compalg import clifford, poincare, weyl, zmodule

        kind, call = job.kind, job.call
        if kind == "generation":
            return weyl.verify_generation(*call).to_json()
        if kind == "reynolds":
            return weyl.reynolds(*call).terms
        if kind == "locmodel":
            model = zmodule.build_localization_model(*call)
            return model.verdict(), model.boundary.rows
        if kind == "sequence":
            return zmodule.sequence_checks(*call).to_json()
        if kind == "snf":
            U, D, V = zmodule.smith_normal_form(*call)
            return U.rows, D.rows, V.rows
        if kind == "classify":
            return clifford.verify_classification(*call).to_json()
        if kind == "spin":
            sig, vectors = call
            g = clifford.unit_vector_product(sig, vectors)
            return g.coeffs, clifford.clifford_group_membership(g).to_json()
        if kind == "inverse":
            return call[0].inverse().coeffs
        if kind == "hirsch":
            family, n = call
            group = poincare.WeylDegrees.type_bc(n) if family == "BC" else poincare.WeylDegrees.type_d(n)
            return poincare.hirsch(group, poincare.WeylDegrees.u1su(n)).coeffs
        return poincare.gaussian_binomial(*call).coeffs

    def check(self, state, job, result):
        ok = getattr(self, f"_check_{job.kind}")(job.data, result)
        return ("decided" if ok else "wrong"), f"{job.kind} {job.data} -> {result}"

    @staticmethod
    def _check_generation(data, report):
        return oracle.generation_ok(*data, report)

    @staticmethod
    def _check_reynolds(data, terms):
        flavor, n, source = data
        result = {tuple(k): Fraction(v) for k, v in terms.items()}
        if sum(result.values()) != sum(Fraction(v) for v in source.values()):
            return False
        for perm, signs in oracle.group_generators(FLAVOR[flavor], n):
            if oracle.signed_act(perm, signs, result) != result:
                return False
        return True

    @staticmethod
    def _check_locmodel(data, result):
        (n, s_max, signs), (verdict, boundary) = data, result
        characters = list(range(1, s_max + 1)) + list(range(-1, -s_max - 1, -1))
        expected = [[0] * (2 * n - 1) for _ in characters]
        for i, s in enumerate(signs):
            expected[characters.index(s * (i + 1))][i] = 1
        return (
            [list(r) for r in boundary] == expected
            and verdict["middle_rank"] == 2 * s_max
            and all(verdict[k] for k in ("delta_injective", "cokernel_torsion_free", "exact_middle", "surjective_quotient", "splits"))
        )

    @staticmethod
    def _check_sequence(data, result):
        return result == oracle.sequence_oracle(*data)

    @staticmethod
    def _check_snf(A, result):
        return oracle.snf_ok(A, *([list(r) for r in M] for M in result))

    @staticmethod
    def _check_classify(data, report):
        return oracle.classification_ok(*data, report)

    @staticmethod
    def _check_spin(data, result):
        p, q, vectors = data
        coeffs, report = result
        metric = oracle.clifford_metric(p, q)
        product = {0: Fraction(1)}
        for v in vectors:
            product = oracle.clifford_mul(metric, product, {1 << i: c for i, c in enumerate(v) if c})
        witness = report["spin_witness"]
        return (
            _mv_from_coeffs(_blades(p + q), coeffs) == product
            and report["in_gamma"] is True
            and report["in_even_part"] is (len(vectors) % 2 == 0)
            and witness is not None
            and len(witness) == len(vectors)
        )

    @staticmethod
    def _check_inverse(data, coeffs):
        p, q, x = data
        inverse = _mv_from_coeffs(_blades(p + q), coeffs)
        metric = oracle.clifford_metric(p, q)
        one = {0: Fraction(1)}
        return oracle.clifford_mul(metric, x, inverse) == one and oracle.clifford_mul(metric, inverse, x) == one

    @staticmethod
    def _check_hirsch(data, coeffs):
        family, n = data
        if family == "BC":
            degrees = list(range(2, 2 * n + 1, 2))
        else:
            degrees = list(range(2, 2 * n - 1, 2)) + [n]
        sub = [2] + list(range(2, n + 1))
        top, bottom = 1, 1
        for d in degrees:
            top *= d
        for d in sub:
            bottom *= d
        return all(c >= 0 for c in coeffs) and Fraction(sum(coeffs)) == Fraction(top, bottom) and list(coeffs) == list(coeffs)[::-1]

    @staticmethod
    def _check_gaussian(data, coeffs):
        n, k, step = data
        ok = sum(coeffs) == comb(n, k) and all(c >= 0 for c in coeffs)
        return ok and list(coeffs) == list(coeffs)[::-1]
