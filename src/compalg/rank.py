"""Rank over a composition algebra and the guaranteed low-rank combination.

The rank of a matrix Z over the algebra C is the largest size of an
invertible square submatrix.  `comp_rank` computes it from one exact
elimination over the base field k, on the 4m x 4n left regular
representation L(Z) of X -> Z*X (`matrices.left_regular_rep`):

- An invertible s x s submatrix makes 4s columns of L(Z) independent, so
  top = rank_k(L(Z)) // 4 bounds the rank for every algebra.
- Over a division algebra the image of L(Z) is a right subspace of D^m, of
  dimension the column rank, and the column rank is the rank; so the answer
  is top, and rank_k(L(Z)) is checked to be a multiple of 4.
- A square Z with rank_k(L(Z)) = 4n has det L(Z) != 0, so it is invertible.
- Otherwise, over a split algebra or one whose split decision is
  infeasible, the minors are searched by `is_invertible` (a nonzero det L
  of the minor, the same kernel for every algebra), in decreasing size from
  min(m, n, top) and lexicographic subset order.

`low_rank_combination` makes the dependence argument constructive.  Given M
mutually distinct m x n matrices and a target d, write r = m - d + 1 and

    threshold = r           (nonsplit)
    threshold = 4 * r       (split; 4 = dimension of the algebra over k)

Whenever M >= 1 + n * threshold, the truncations to the first r rows are
linearly dependent: over a division algebra as right vectors in C^(r*n),
otherwise as base-field vectors of coefficient data.  The returned
coefficients zero out the first r rows of the combination, which therefore
has rank at most d - 1.  Both cases run on the one base-field kernel,
`matrices.field_echelon`: the split case on the raw coefficient rows, the
division case on L of the stacked entries (`skew_solve`'s core).
Elimination is deterministic (lexicographic pivots, first free column), so
the chosen witness is reproducible.

`verify_span_bound` runs each trial on raw coordinate tuples: it samples,
eliminates and forms both combinations through the raw cores that
`sample_distinct_matrices`, `low_rank_combination` and `combine` wrap, and
builds elements only for `comp_rank` of the combination and for the
matrices of a counterexample.
"""

import time
from itertools import combinations
from math import comb, lcm

from .errors import DEFAULT_BUDGET_MS, BoundNotMetError, InfeasibleError
from .fields import PrimeField
from .quaternion import NONSPLIT, SPLIT
from .matrices import CompMatrix, combine, field_echelon, field_rank, is_invertible, left_regular_rep
from .matrices import _combine_raw, _element, _raw, _skew_solve_raw, _vanishes
from .rng import SplitMix64


def comp_rank(Z: CompMatrix) -> int:
    """Maximum size of an invertible square submatrix (0 if every entry is a non-unit)."""
    flat_rank = field_rank(left_regular_rep(Z), Z.ring.field)
    if flat_rank == 4 * Z.m == 4 * Z.n:
        return Z.n  # det L(Z) != 0, so Z itself is invertible
    top = flat_rank // 4
    try:
        division = Z.ring.is_split_decision() == NONSPLIT
    except InfeasibleError:
        division = False
    if division:
        if flat_rank % 4:
            raise AssertionError(f"rank {flat_rank} of L(Z) over a division algebra is not 4*r")
        return top
    for size in range(min(Z.m, Z.n, top), 0, -1):
        for rows in combinations(range(Z.m), size):
            for cols in combinations(range(Z.n), size):
                if is_invertible(Z.submatrix(rows, cols)):
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

    Raises BoundNotMetError when M < 1 + n * threshold, the regime where no
    combination is guaranteed.  The truncated combination is verified to be
    exactly zero before the coefficients are returned (over a division
    algebra by `skew_solve`'s substitution), in the raw core `_combination`.
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
    ys, den = _combination(algebra, family, m - d + 1)
    return tuple(_element(algebra, y, den) for y in ys)


def _combination(algebra, family, keep):
    """Coefficients (numerators, denominator) killing the first `keep` rows of
    raw matrices (`matrices._raw`).  Split: the first kernel vector over k,
    scaled so its first nonzero entry is one (over QQ: integers over that
    entry), as base scalars.  Division: `skew_solve`'s raw core."""
    n, p = len(family[0][0]), algebra.field.characteristic
    if algebra.is_split_decision() == SPLIT:
        rows = [[T[i][j][c] for T in family] for i in range(keep) for j in range(n) for c in range(4)]
        _, sol, _ = field_echelon(rows, algebra.field)
        if sol is None:
            raise AssertionError("dependence guaranteed by dimension count was not found")
        if p:
            inv, den = pow(next(c for c in sol if c), -1, p), 1
            sol = [c * inv % p for c in sol]
        else:
            clear = lcm(*(c.denominator for c in sol))
            sol = [c.numerator * (clear // c.denominator) for c in sol]
            den = next(c for c in sol if c)
        ys = [[c * e for e in algebra._one] for c in sol]
        if not _vanishes(_combine_raw(algebra, family, ys, keep), p):
            raise AssertionError("combination failed to kill the truncated rows")
        return ys, den
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
    """Rejection-sampled list of pairwise distinct matrices (seeded, deterministic).

    Entries draw 4 coordinates each, row by row, from [0, p) over GF(p) and
    [-entry_bound, entry_bound] over QQ: canonical raw values, so duplicates
    are rejected on them and each accepted matrix is built once.  The raw
    matrices ((x0..x3) per entry, per row) come from `_sample`.
    """
    return [_matrix(algebra, raw) for raw in _sample(algebra, m, n, count, rng, entry_bound)]


def _matrix(algebra, raw) -> CompMatrix:
    return CompMatrix(algebra, [[algebra.element(e) for e in row] for row in raw])


def _sample(algebra, m, n, count, rng: SplitMix64, entry_bound):
    f = algebra.field
    lo, hi = (0, f.p - 1) if isinstance(f, PrimeField) else (-entry_bound, entry_bound)
    seen = set()
    out = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise InfeasibleError("matrix space too small to sample distinct members")
        raw = tuple(tuple(tuple(rng.randint(lo, hi) for _ in range(4)) for _ in range(n)) for _ in range(m))
        if raw not in seen:
            seen.add(raw)
            out.append(raw)
    return out


def _estimate_ops(m, n, d, M, trials) -> int:
    keep = m - d + 1
    solve = (keep * n * 4) ** 2 * M
    rank_cost = sum((2 * s) ** 3 * comb(m, s) * comb(n, s) for s in range(1, min(m, n) + 1))
    return trials * (solve + rank_cost + M * m * n * 16)


def verify_span_bound(algebra, m: int, n: int, d: int, trials: int, seed: int,
                      entry_bound: int = 3, budget_ms: int = DEFAULT_BUDGET_MS) -> SpanReport:
    """Sample families one past the spanning threshold and confirm each yields
    a verified combination of rank at most d-1.

    A counterexample would falsify the implementation, not the underlying
    inequality; the first one found is recorded verbatim in the report.
    """
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
    keep, p = m - d + 1, algebra.field.characteristic
    rng = SplitMix64(seed)
    started = time.monotonic()
    for trial in range(trials):
        if (time.monotonic() - started) * 1000 > budget_ms:
            raise InfeasibleError("trial budget exhausted")
        family = _sample(algebra, m, n, M, rng.fork(), entry_bound)
        failure = None
        try:
            ys, den = _combination(algebra, family, keep)
            acc = _combine_raw(algebra, family, ys, m)
            if not _vanishes(acc[:keep], p):
                failure = "truncated combination is nonzero"
            elif not any(v for y in ys for v in y):
                failure = "coefficients all zero"
            else:
                full = CompMatrix(algebra, [[_element(algebra, a, den) for a in row] for row in acc])
                if (rank := comp_rank(full)) > d - 1:
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
