"""span-rank: element products, determinants, elimination and brute-force rank.

Setup builds (-1,-1)_QQ, the split (1,-1)_QQ and Mat2 over GF(2), GF(3) and
GF(7), and decides their splitness once, so jobs never pay for a decision.
One cycle holds 19 jobs:

    span      5  verify_span_bound, one per algebra at a fixed (m,n,d), seeded
                 families
    rank      6  comp_rank on A*B with A n x r, B r x n (n = 4..6, r = n-1 or
                 n-2), over (-1,-1)_QQ, (1,-1)_QQ and Mat2(GF(7))
    study     3  study_det on 4 x 4 and 5 x 5 matrices
    invert    3  is_invertible, one of them on a singular product
    skew      2  skew_column_rank over (-1,-1)_QQ

Products A*B are formed by the benchmark's own arithmetic, so the library
sees them only as inputs.
"""

import oracle
from workloads import Job

ALGEBRAS = {
    "H": (None, (-1, -1)),
    "S": (None, (1, -1)),
    "M2": (2, None),
    "M3": (3, None),
    "M7": (7, None),
}
SPAN_CASES = (("H", 2, 2, 1), ("S", 2, 2, 2), ("M2", 2, 2, 1), ("M3", 1, 3, 1), ("M7", 2, 3, 2))
RANK_CASES = (("H", 4, 2), ("H", 5, 4), ("H", 6, 5), ("S", 5, 3), ("S", 6, 4), ("M7", 6, 4))


def _element(rng, p):
    if p is None:
        return tuple(rng.randint(-3, 3) for _ in range(4))
    return tuple(rng.randint(0, p - 1) for _ in range(4))


def _matrix(rng, key, rows, cols):
    p = ALGEBRAS[key][0]
    return [[_element(rng, p) for _ in range(cols)] for _ in range(rows)]


def _own_algebra(key):
    p, params = ALGEBRAS[key]
    return oracle.Algebra(p, params)


def _product(rng, key, n, r):
    alg = _own_algebra(key)
    return alg.matmul(_matrix(rng, key, n, r), _matrix(rng, key, r, n))


class SpanRank:
    name = "span-rank"
    trace_cycles = 1
    tail_pct = 0.92

    def __init__(self, root):
        self.root = root

    def setup(self, seed):
        from compalg import fields, quaternion

        algebras = {}
        for key, (p, params) in ALGEBRAS.items():
            if params is None:
                alg = quaternion.Mat2Algebra(fields.PrimeField(p))
            else:
                alg = quaternion.QuatAlgebra(fields.QQ, *params)
            alg.is_split_decision()
            algebras[key] = alg
        return algebras

    def _comp_matrix(self, state, key, raw):
        from compalg import matrices

        alg = state[key]
        return matrices.CompMatrix(alg, [[alg.element(e) for e in row] for row in raw])

    def jobs(self, state, rng):
        out = []
        for key, m, n, d in SPAN_CASES:
            seed = rng.randint(0, 2**32)
            out.append(Job("span", (key, m, n, d, seed), (state[key], m, n, d, seed)))
        for key, n, r in RANK_CASES:
            raw = _product(rng, key, n, r)
            out.append(Job("rank", (key, r, raw), (self._comp_matrix(state, key, raw),)))
        for key, n in (("H", 4), ("S", 5), ("M3", 4)):
            raw = _matrix(rng, key, n, n)
            out.append(Job("study", (key, raw), (self._comp_matrix(state, key, raw),)))
        for key, n, r in (("H", 4, 4), ("M2", 5, 5), ("S", 4, 2)):
            raw = _product(rng, key, n, r) if r < n else _matrix(rng, key, n, n)
            out.append(Job("invert", (key, raw), (self._comp_matrix(state, key, raw),)))
        for n, r in ((5, 3), (6, 6)):
            raw = _product(rng, "H", n, r) if r < n else _matrix(rng, "H", n, n)
            out.append(Job("skew", ("H", raw), (self._comp_matrix(state, "H", raw),)))
        return rng.shuffle(out)

    def run(self, state, job):
        from compalg import matrices, rank

        if job.kind == "span":
            algebra, m, n, d, seed = job.call
            return rank.verify_span_bound(algebra, m, n, d, trials=2, seed=seed).to_json()
        (Z,) = job.call
        if job.kind == "rank":
            return rank.comp_rank(Z)
        if job.kind == "study":
            return matrices.study_det(Z).raw
        if job.kind == "invert":
            return matrices.is_invertible(Z)
        return matrices.skew_column_rank(Z)

    def check(self, state, job, result):
        kind = job.kind
        text = f"{kind} {job.data} -> {result}"
        if kind == "span":
            key, m, n, d, _seed = job.data
            threshold = (m - d + 1) * (1 if key == "H" else 4)
            ok = (
                result["trials"] == 2
                and result["successes"] == 2
                and result["counterexample"] is None
                and result["params"]["family_size"] == 1 + n * threshold
            )
            return ("decided" if ok else "wrong"), text
        key, raw = job.data[0], job.data[-1]
        alg = _own_algebra(key)
        if kind == "rank":
            # over the division algebra H the rank is the answer; otherwise search minors
            ok = result == (alg.rank(raw) if key == "H" else alg.comp_rank(raw))
        elif kind == "study":
            ok = alg.ops.coerce(result) == alg.study_det(raw)
        elif kind == "invert":
            ok = result == (alg.study_det(raw) != 0)
        else:
            ok = result == alg.rank(raw)
        return ("decided" if ok else "wrong"), text
