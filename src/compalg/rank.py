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
- Over a split algebra, or one whose split decision is infeasible, the
  minors are searched by `is_invertible` (a nonzero det L of the minor, the
  same kernel for every algebra), in decreasing size from min(m, n, top)
  and lexicographic subset order.

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
division case through `skew_solve`.  Elimination is deterministic
(lexicographic pivots, first free column), so the chosen witness is
reproducible.
"""

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import BoundNotMetError, InfeasibleError
from .fields import PrimeField
from .quaternion import NONSPLIT, SPLIT
from .matrices import (
    CompMatrix,
    combine,
    field_echelon,
    field_rank,
    is_invertible,
    left_regular_rep,
    skew_solve,
)
from .rng import SplitMix64

DEFAULT_BUDGET_MS = 60_000


def comp_rank(Z: CompMatrix) -> int:
    """Maximum size of an invertible square submatrix (0 if every entry is a non-unit)."""
    flat_rank = field_rank(left_regular_rep(Z), Z.ring.field)
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
    exactly zero before the coefficients are returned.
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
    if len(set(matrices)) != len(matrices):
        raise ValueError("matrices must be mutually distinct")
    M = len(matrices)
    threshold = dependence_bound(algebra, m, d)
    if M < 1 + n * threshold:
        raise BoundNotMetError(f"need at least {1 + n * threshold} matrices, got {M}")
    keep = m - d + 1
    truncated = [Z.take_rows(keep) for Z in matrices]

    if algebra.is_split_decision() == SPLIT:
        f = algebra.field
        rows = [
            [T.rows[i][j].coeffs[c] for T in truncated]
            for i in range(keep)
            for j in range(n)
            for c in range(4)
        ]
        _, sol, _ = field_echelon(rows, f)
        if sol is None:
            raise AssertionError("dependence guaranteed by dimension count was not found")
        inv = f._inv(next(c for c in sol if c))
        coeffs = tuple(algebra.from_base(f._mul(c, inv)) for c in sol)
    else:
        stacked = [[T.rows[i][j] for T in truncated] for i in range(keep) for j in range(n)]
        coeffs = skew_solve(CompMatrix(algebra, stacked))
        if coeffs is None:
            raise AssertionError("dependence guaranteed by dimension count was not found")

    combo = combine(truncated, coeffs)
    if not combo.is_zero():
        raise AssertionError("combination failed to kill the truncated rows")
    return coeffs


@dataclass
class SpanReport:
    params: dict
    trials: int = 0
    successes: int = 0
    counterexample: dict | None = None

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
    are rejected on them and each accepted matrix is built once.
    """
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
            out.append(CompMatrix(algebra, [[algebra.element(e) for e in row] for row in raw]))
    return out


def _estimate_ops(m, n, d, M, trials) -> int:
    keep = m - d + 1
    solve = (keep * n * 4) ** 2 * M
    rank_cost = sum(
        (2 * s) ** 3 * comb(m, s) * comb(n, s) for s in range(1, min(m, n) + 1)
    )
    return trials * (solve + rank_cost + M * m * n * 16)


def verify_span_bound(
    algebra,
    m: int,
    n: int,
    d: int,
    trials: int,
    seed: int,
    entry_bound: int = 3,
    budget_ms: int = DEFAULT_BUDGET_MS,
) -> SpanReport:
    """Sample families one past the spanning threshold and confirm each yields
    a verified combination of rank at most d-1.

    A counterexample would falsify the implementation, not the underlying
    inequality; the first one found is recorded verbatim in the report.
    """
    threshold = dependence_bound(algebra, m, d)
    M = 1 + n * threshold
    params = {
        "algebra": repr(algebra),
        "m": m,
        "n": n,
        "d": d,
        "family_size": M,
        "seed": seed,
        "entry_bound": entry_bound,
    }
    est = _estimate_ops(m, n, d, M, trials)
    if est > budget_ms * 20_000:
        raise InfeasibleError(f"estimated work {est} exceeds the budget of {budget_ms} ms")
    report = SpanReport(params=params)
    rng = SplitMix64(seed)
    started = time.monotonic()
    for trial in range(trials):
        if (time.monotonic() - started) * 1000 > budget_ms:
            raise InfeasibleError("trial budget exhausted")
        trial_rng = rng.fork()
        matrices = sample_distinct_matrices(algebra, m, n, M, trial_rng, entry_bound)
        ok = True
        failure = None
        try:
            coeffs = low_rank_combination(matrices, d)
            full = combine(matrices, coeffs)
            keep = m - d + 1
            if not full.take_rows(keep).is_zero():
                ok, failure = False, "truncated combination is nonzero"
            elif all(c.is_zero() for c in coeffs):
                ok, failure = False, "coefficients all zero"
            elif (rank := comp_rank(full)) > d - 1:
                ok, failure = False, f"rank {rank} exceeds {d - 1}"
        except AssertionError as exc:
            ok, failure = False, str(exc)
        report.trials += 1
        if ok:
            report.successes += 1
        elif report.counterexample is None:
            from .serialize import matrix_to_json

            report.counterexample = {
                "trial": trial,
                "reason": failure,
                "matrices": [matrix_to_json(Z) for Z in matrices],
            }
    return report
