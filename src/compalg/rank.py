"""Rank over a composition algebra and the guaranteed low-rank combination.

The rank of a matrix Z over the algebra C is the largest size of an
invertible square submatrix.  `comp_rank` reads it off one elimination of
the 2m x 2n half-size matrix H of Z (`matrices._half_echelon`):

- An invertible s x s submatrix makes 2s columns of H independent, so
  top = rank H // 2 bounds the rank for every algebra.
- Over a division algebra the rank is the right column rank: top, with the
  pivots of H checked to come in whole column pairs (`matrices._whole_pairs`).
  A square Z with rank H = 2n is invertible.
- Otherwise (split, or an infeasible split decision) the minors are searched
  from size min(m, n, top) down, lexicographically, each by d != 0 on its H,
  H at rows 2i, 2i+1 and columns 2j, 2j+1 (`is_invertible`'s test).

`low_rank_combination` makes the dependence argument constructive.  Given M
mutually distinct m x n matrices and a target d, let r = m - d + 1 and
threshold = r over a division algebra, 4 * r otherwise.  When
M >= 1 + n * threshold, the truncations to the first r rows are dependent
(as right vectors in C^(r*n), or as base-field coefficient vectors), and the
returned coefficients zero out the first r rows of the combination, which
then has rank at most d - 1.  The split case eliminates the raw coefficient
rows with `matrices.field_echelon`, the division case the half-size matrix
H of the stacked entries (`skew_solve`'s core); both take the first kernel
vector (`kernel()`), so the witness is reproducible.

`verify_span_bound` runs each trial on raw coordinates: it forms the m-row
combination once, checks its first r rows, ranks the combination's integer
numerators with `comp_rank`'s raw core, and builds elements only for the
matrices of a counterexample.
"""

import time
from itertools import combinations
from math import comb, lcm

from .errors import DEFAULT_BUDGET_MS, BoundNotMetError, InfeasibleError
from .fields import PrimeField
from .quaternion import NONSPLIT, SPLIT
from .matrices import CompMatrix, combine, field_echelon, is_invertible  # noqa: F401 (is_invertible: a tracer target)
from .matrices import _combine_raw, _element, _half, _half_echelon, _raw, _skew_solve_raw, _vanishes, _whole_pairs
from .rng import SplitMix64


def comp_rank(Z: CompMatrix) -> int:
    """Maximum size of an invertible square submatrix (0 if every entry is a non-unit)."""
    return _comp_rank_raw(Z.ring, _raw(Z))


def _comp_rank_raw(algebra, raw) -> int:
    """`comp_rank` of a raw matrix (`_raw`), its coordinates possibly unreduced mod p."""
    m, n = len(raw), len(raw[0])
    H, a = _half(algebra, raw)
    pivots = _half_echelon(algebra, H, a)[0]
    if len(pivots) == 2 * m == 2 * n:
        return n  # det L(Z) != 0, so Z itself is invertible
    try:
        division = algebra.is_split_decision() == NONSPLIT
    except InfeasibleError:
        division = False
    if division:
        return _whole_pairs(pivots)
    for size in range(min(m, n, len(pivots) // 2), 0, -1):
        for rows in combinations(range(m), size):
            block_rows = [H[2 * i + r] for i in rows for r in (0, 1)]
            for cols in combinations(range(n), size):
                idx = [2 * j + c for j in cols for c in (0, 1)]
                if _half_echelon(algebra, [[row[k] for k in idx] for row in block_rows], a)[1]:
                    return size
    return 0


def dependence_bound(algebra, m: int, d: int) -> int:
    """Per-column threshold: m-d+1 for a division algebra, 4*(m-d+1) when split."""
    if not 1 <= d <= m:
        raise ValueError("need 1 <= d <= m")
    if algebra.is_split_decision() == SPLIT:
        return algebra.dim * (m - d + 1)
    return m - d + 1


def low_rank_combination(matrices, d: int):
    """Coefficients (a_1, ..., a_M), not all zero, killing the first m-d+1 rows.

    Raises BoundNotMetError when M < 1 + n * threshold.  The truncated
    combination is checked to vanish (over a division algebra by the
    substitution of `skew_solve`'s core) before the coefficients are returned.
    """
    matrices = list(matrices)
    if not matrices:
        raise ValueError("need at least one matrix")
    algebra = matrices[0].ring
    m, n = matrices[0].m, matrices[0].n
    if m > n:
        raise ValueError("shapes must satisfy m <= n")
    for Z in matrices:
        if Z.ring != algebra or (Z.m, Z.n) != (m, n):
            raise ValueError("matrices must share shape and algebra")
    family = [_raw(Z) for Z in matrices]
    # one algebra and shape, so two matrices are equal exactly when their coordinates are
    if len(set(family)) != len(family):
        raise ValueError("matrices must be mutually distinct")
    threshold = dependence_bound(algebra, m, d)
    if len(family) < 1 + n * threshold:
        raise BoundNotMetError(f"need at least {1 + n * threshold} matrices, got {len(family)}")
    keep, p = m - d + 1, algebra.field.characteristic
    ys, den = _combination(algebra, family, keep)
    if algebra.is_split_decision() == SPLIT and not _vanishes(_combine_raw(algebra, family, ys, keep), p):
        raise AssertionError("combination failed to kill the truncated rows")
    return tuple(_element(algebra, y, den) for y in ys)


def _combination(algebra, family, keep):
    """Coefficients (numerators, denominator) killing the first `keep` rows of
    raw matrices.  Split: the first kernel vector over k, its first nonzero
    entry scaled to one, as base scalars.  Division: `skew_solve`'s core."""
    n, p = len(family[0][0]), algebra.field.characteristic
    if algebra.is_split_decision() == SPLIT:
        rows = [[T[i][j][c] for T in family] for i in range(keep) for j in range(n) for c in range(4)]
        sol = field_echelon(rows, algebra.field)[2]()
        if sol is None:
            raise AssertionError("dependence guaranteed by dimension count was not found")
        if p:
            inv, den = pow(next(c for c in sol if c), -1, p), 1
            sol = [c * inv % p for c in sol]
        else:
            clear = lcm(*(c.denominator for c in sol))
            sol = [c.numerator * (clear // c.denominator) for c in sol]
            den = next(c for c in sol if c)
        return [[c * e for e in algebra._one] for c in sol], den
    sol = _skew_solve_raw(algebra, [[T[i][j] for T in family] for i in range(keep) for j in range(n)])
    if sol is None:
        raise AssertionError("dependence guaranteed by dimension count was not found")
    return sol


class SpanReport:
    """Trials run, successes, and the first counterexample of `verify_span_bound`."""

    def __init__(self, params: dict, trials: int = 0, successes: int = 0, counterexample: dict | None = None):
        self.params, self.trials, self.successes, self.counterexample = params, trials, successes, counterexample

    def to_json(self) -> dict:
        return {
            "params": self.params,
            "trials": self.trials,
            "successes": self.successes,
            "counterexample": self.counterexample,
        }


def sample_distinct_matrices(algebra, m, n, count, rng: SplitMix64, entry_bound=3):
    """Rejection-sampled pairwise distinct matrices (seeded, deterministic): each
    entry draws 4 coordinates in [0, p) over GF(p), [-entry_bound, entry_bound]
    over QQ, row by row; duplicates are rejected on these raw values (`_sample`,
    one `randints` call per batch: the stream of one `randint` per coordinate)."""
    return [_matrix(algebra, raw) for raw in _sample(algebra, m, n, count, rng, entry_bound)]


def _matrix(algebra, raw) -> CompMatrix:
    return CompMatrix(algebra, [[algebra.element(e) for e in row] for row in raw])


def _sample(algebra, m, n, count, rng: SplitMix64, entry_bound):
    f = algebra.field
    lo, hi = (0, f.p - 1) if isinstance(f, PrimeField) else (-entry_bound, entry_bound)
    out, left = {}, 1000 * count  # a dict keeps the first draw of each matrix, in order
    while len(out) < count:
        draws = min(count - len(out), left)  # each draw adds at most one matrix
        if not draws:
            raise InfeasibleError("matrix space too small to sample distinct members")
        left -= draws
        coords = iter(rng.randints(lo, hi, 4 * m * n * draws))
        rows = zip(*[zip(coords, coords, coords, coords)] * n)
        out.update(dict.fromkeys(zip(*[rows] * m)))
    return list(out)


def _estimate_ops(m, n, d, M, trials) -> int:
    keep = m - d + 1
    solve = (keep * n * 4) ** 2 * M
    rank_cost = sum((2 * s) ** 3 * comb(m, s) * comb(n, s) for s in range(1, min(m, n) + 1))
    return trials * (solve + rank_cost + M * m * n * 16)


def verify_span_bound(algebra, m: int, n: int, d: int, trials: int, seed: int,
                      entry_bound: int = 3, budget_ms: int = DEFAULT_BUDGET_MS) -> SpanReport:
    """Sample families one past the spanning threshold and confirm each yields
    a verified combination of rank at most d-1.  A counterexample would fault
    the implementation, not the inequality; the first is recorded verbatim."""
    threshold = dependence_bound(algebra, m, d)
    M = 1 + n * threshold
    params = {"algebra": repr(algebra), "m": m, "n": n, "d": d, "family_size": M, "seed": seed,
              "entry_bound": entry_bound}
    est = _estimate_ops(m, n, d, M, trials)
    if est > budget_ms * 20_000:
        raise InfeasibleError(f"estimated work {est} exceeds the budget of {budget_ms} ms")
    report = SpanReport(params=params)
    if trials and m > n:
        raise ValueError("shapes must satisfy m <= n")
    keep, p, split = m - d + 1, algebra.field.characteristic, algebra.is_split_decision() == SPLIT
    rng = SplitMix64(seed)
    started = time.monotonic()
    for trial in range(trials):
        if (time.monotonic() - started) * 1000 > budget_ms:
            raise InfeasibleError("trial budget exhausted")
        family = _sample(algebra, m, n, M, rng.fork(), entry_bound)
        failure = None
        try:
            ys, _ = _combination(algebra, family, keep)
            acc = _combine_raw(algebra, family, ys, m)
            if not _vanishes(acc[:keep], p):
                failure = "combination failed to kill the truncated rows" if split else "truncated combination is nonzero"
            elif not any(v for y in ys for v in y):
                failure = "coefficients all zero"
            elif (rank := _comp_rank_raw(algebra, acc)) > d - 1:
                # acc is the combination times its denominator, a nonzero central scalar
                failure = f"rank {rank} exceeds {d - 1}"
        except AssertionError as exc:
            failure = str(exc)
        report.trials += 1
        if failure is None:
            report.successes += 1
        elif report.counterexample is None:
            from .serialize import matrix_to_json

            report.counterexample = {
                "trial": trial,
                "reason": failure,
                "matrices": [matrix_to_json(_matrix(algebra, raw)) for raw in family],
            }
    return report
