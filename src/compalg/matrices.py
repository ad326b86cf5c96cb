"""Dense exact matrices over field specs and over composition algebras.

`RingMatrix` holds an immutable m x n grid over one ring and defines shape
checks, equality, hashing, sums, products, `submatrix`, `zero` and
`identity` once.  `FieldMatrix` (over a field spec) adds coercion, `scale`
and `det`; `CompMatrix` (over a composition algebra, a right module) adds
the algebra check, `scale_right` and `take_rows`.

Verdicts and witnesses on Z over an algebra with base field k come from its
2m x 2n half-size matrix H (`_half`): the flattening over Mat2, and over
(a,b) the doubling matrix Z = X + v*Y -> [[X, -conj(Y)], [-b*Y, conj(X)]],
over k with sqrt(a) = s when a = s^2 in k, else over the field k(sqrt(a)).
With L(Z) the 4m x 4n base-field matrix of X -> Z*X, never built here,
rank_k L(Z) = 2 rank H and det L(Z) = d^2, d = det H in k: `study_det` is
d^2, `is_invertible` is d != 0, rank H gives `rank.comp_rank` and
`skew_column_rank` with no split decision, and `skew_solve` reads its
kernel vector off H.

Two raw kernels eliminate, each giving (pivots, det, kernel), where `kernel()`
back-substitutes only for a caller that asks: `field_echelon` over QQ and
GF(p), behind H over k, `FieldMatrix.det`, the split span trials of `rank`,
`ratlin` and `IntMatrix.det`; and `pair_echelon` over k(sqrt(a)), behind H
over k(sqrt(a)), `skew_solve` and `FieldMatrix.det` over a quadratic field.
The H of a minor is the block submatrix of H at its rows 2i, 2i+1 and
columns 2j, 2j+1, so `rank.comp_rank` builds H once.
"""

import operator
from fractions import Fraction
from math import lcm, prod

from .errors import (
    AlgebraMismatchError,
    FieldMismatchError,
    NotDiagonalError,
    NotSplitFormError,
    ShapeError,
    UnexpectedZeroDivisorError,
)
from .fields import (
    FieldSpec,
    PrimeField,
    QuadExt,
    RationalField,
    Scalar,
    from_split_components,
    split_components,
)
from .quaternion import (
    SPLIT,
    Mat2Algebra,
    Mat2Element,
    QuatAlgebra,
    _table_mul,
    mat2_to_quat,
    quat_to_mat2,
)


class RingMatrix:
    """Immutable m x n matrix over `ring`, whose `zero()` and `one()` it uses.

    A subclass supplies `_entries`, which coerces or checks the entries, and
    `_mismatch`, the error for an operand of another class or ring.
    """

    __slots__ = ("ring", "m", "n", "rows")

    def __init__(self, ring, rows):
        rows = self._entries(ring, rows)
        if not rows or not rows[0]:
            raise ShapeError("dimensions must be positive")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "n", width)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def identity(cls, ring, n: int):
        one, zero = ring.one(), ring.zero()
        return cls(ring, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, ring, m: int, n: int):
        z = ring.zero()
        return cls(ring, [[z] * n for _ in range(m)])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return type(other) is type(self) and other.ring == self.ring and other.rows == self.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def _check(self, other):
        if type(other) is not type(self) or other.ring != self.ring:
            error, message = self._mismatch
            raise error(message)
        return other

    def _zip(self, op, other, verb):
        other = self._check(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeError(f"{verb} needs equal shapes")
        return type(self)(self.ring, [list(map(op, a, b)) for a, b in zip(self.rows, other.rows)])

    def __add__(self, other):
        return self._zip(operator.add, other, "addition")

    def __sub__(self, other):
        return self._zip(operator.sub, other, "subtraction")

    def __neg__(self):
        return type(self)(self.ring, [[-e for e in row] for row in self.rows])

    def __mul__(self, other):
        other = self._check(other)
        if self.n != other.m:
            raise ShapeError(f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        zero, cols = self.ring.zero(), list(zip(*other.rows))
        out = [[sum((x * y for x, y in zip(row, col)), zero) for col in cols] for row in self.rows]
        return type(self)(self.ring, out)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def is_square(self) -> bool:
        return self.m == self.n

    def submatrix(self, row_idx, col_idx):
        return type(self)(self.ring, [[self.rows[i][j] for j in col_idx] for i in row_idx])


class FieldMatrix(RingMatrix):
    """Immutable m x n matrix of scalars sharing one field spec."""

    __slots__ = ()
    _mismatch = (FieldMismatchError, "matrices over different fields")

    @staticmethod
    def _entries(spec, rows):
        return tuple(tuple(spec.element(e) for e in row) for row in rows)

    @property
    def spec(self) -> FieldSpec:
        """The field spec, read-only; the same object as `ring`."""
        return self.ring

    def __repr__(self):
        body = "; ".join(" ".join(repr(e.raw) for e in row) for row in self.rows)
        return f"FieldMatrix({self.m}x{self.n}: {body})"

    def scale(self, c) -> "FieldMatrix":
        c = self.ring.element(c)
        return FieldMatrix(self.ring, [[e * c for e in row] for row in self.rows])

    def det(self) -> Scalar:
        """Exact determinant by `field_echelon`, `pair_echelon` over a quadratic
        field, or componentwise through k (+) k over a split extension."""
        if self.m != self.n:
            raise ShapeError("determinant needs a square matrix")
        spec = self.ring
        if not isinstance(spec, QuadExt):
            return Scalar(spec, field_echelon([[e.raw for e in row] for row in self.rows], spec)[1])
        if spec.split:
            parts = [[split_components(e) for e in row] for row in self.rows]
            d1, d2 = (FieldMatrix(spec.base, [[e[k] for e in row] for row in parts]).det() for k in (0, 1))
            return from_split_components(spec, d1, d2)
        return Scalar(spec, pair_echelon([[e.raw for e in row] for row in self.rows], spec.base, spec.a)[1])


def field_echelon(rows, spec: FieldSpec):
    """(pivot columns, determinant or None, kernel) of raw QQ or GF(p) rows.

    A column's pivot is its first nonzero entry at or below the current row.
    Over GF(p) a lower row r becomes r - (r[col] / pivot) * top, mod p.  Over
    QQ the rows are cleared of denominators (a row of `int`s is copied as it
    is) and pivot * r - r[col] * top is divided exactly by the previous pivot
    (Bareiss), so entries stay minors and the last pivot is the determinant
    up to sign.  Entries left of the current column are never read again.

    The determinant is given for square input, else None.  `kernel()`, run
    only by a caller that needs it, gives the first kernel vector: 1 at the
    first non-pivot column c, 0 after it, or None when every column is a
    pivot.  Its back substitution over QQ runs on y = d*x, d the leading
    c x c minor, integral by Cramer's rule (over Z[g] in `pair_echelon`).
    """
    if isinstance(spec, PrimeField):
        p, scale = spec.p, 1
        work = [[x % p for x in row] for row in rows]
    elif isinstance(spec, RationalField):
        p, scale = 0, 1
        work = []
        for row in rows:
            if all(type(x) is int for x in row):
                work.append(list(row))
                continue
            den = lcm(*(x.denominator for x in row))
            work.append([x.numerator * (den // x.denominator) for x in row])
            scale *= den
    else:
        raise FieldMismatchError(f"field_echelon runs over QQ or GF(p), not {spec!r}")
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    pivots, sign, prev = [], 1, 1
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            sign = -sign
        top = work[rank]
        pivot, tail = top[col], top[col + 1 :]
        if p:
            inv = pow(pivot, -1, p)
            for row in work[rank + 1 :]:
                if row[col]:
                    f = row[col] * inv % p
                    row[col + 1 :] = [(x - f * y) % p for x, y in zip(row[col + 1 :], tail)]
        else:
            for row in work[rank + 1 :]:
                f = row[col]
                row[col + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[col + 1 :], tail)]
            prev = pivot
        pivots.append(col)
    rank = len(pivots)

    def kernel():
        c = next((i for i, col in enumerate(pivots) if col != i), rank)
        if c == ncols:
            return None
        d = 1 if p or not c else work[c - 1][c - 1]
        y = [0] * c + [d]
        for i in range(c - 1, -1, -1):
            row = work[i]
            s = -sum(row[j] * y[j] for j in range(i + 1, c + 1))
            y[i] = s * pow(row[i], -1, p) % p if p else s // row[i]
        y += [0] * (ncols - c - 1)
        return y if p else [Fraction(v, d) for v in y]

    if nrows != ncols:
        return pivots, None, kernel
    if rank < ncols:
        return pivots, 0 if p else Fraction(0), kernel
    return pivots, sign * prod(work[i][i] for i in range(rank)) % p if p else Fraction(sign * prev, scale), kernel


def pair_echelon(rows, k: FieldSpec, a):
    """(pivot columns, determinant or None, kernel) of raw pairs (x, y) =
    x + y*sqrt(a) over the field k(sqrt(a)), pivoting as `field_echelon`.
    Bareiss: a lower row r becomes (pivot * r - r[col] * top) / q, q the
    previous pivot, and x / q = x * conj(q) / N(q).  Over QQ, with a = A/D and
    g = D*sqrt(a), the rows are cleared of denominators in g, so entries stay
    in Z[g] and N(q) divides exactly; the division is skipped only when q = 1.

    `kernel()`, run only by a caller that needs it, gives the first kernel
    vector as pairs over k, or None, by `field_echelon`'s back substitution.
    """
    p = k.characteristic
    if p:
        N, D, scale = a % p, 1, 1
        work = [([x % p for x, _ in row], [y % p for _, y in row]) for row in rows]
    else:
        a = Fraction(a)
        D, N, scale, work = a.denominator, a.numerator * a.denominator, 1, []
        for row in rows:
            xs, ys = [x for x, _ in row], [y if D == 1 else Fraction(y, D) for _, y in row]
            den = lcm(*(v.denominator for v in xs + ys))
            if den != 1 or not all(type(v) is int for v in xs + ys):
                xs, ys = ([v.numerator * (den // v.denominator) for v in vs] for vs in (xs, ys))
                scale *= den
            work.append((xs, ys))
    nrows, ncols = len(work), len(work[0][0]) if work else 0
    pivots, sign, prev = [], 1, (1, 0)
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, nrows) if work[r][0][col] or work[r][1][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            sign = -sign
        tx, ty = work[rank]
        px, py, tx, ty, npy = tx[col], ty[col], tx[col + 1 :], ty[col + 1 :], N * ty[col]
        qx, qy = prev
        nq = qx * qx - N * qy * qy
        if p:  # conj(q) / N(q)
            qx, qy = qx * pow(nq, -1, p) % p, qy * pow(nq, -1, p) % p
        nqy = N * qy
        for xs, ys in work[rank + 1 :]:
            fx, fy, X, Y = xs[col], ys[col], xs[col + 1 :], ys[col + 1 :]
            nfy = N * fy
            ux = [u * px + v * npy - fx * s - nfy * t for u, v, s, t in zip(X, Y, tx, ty)]
            uy = [u * py + v * px - fx * t - fy * s for u, v, s, t in zip(X, Y, tx, ty)]
            if p:
                ux, uy = [(u * qx - v * nqy) % p for u, v in zip(ux, uy)], [(v * qx - u * qy) % p for u, v in zip(ux, uy)]
            elif qy:
                ux, uy = [(u * qx - v * nqy) // nq for u, v in zip(ux, uy)], [(v * qx - u * qy) // nq for u, v in zip(ux, uy)]
            elif qx != 1:
                ux, uy = [u // qx for u in ux], [v // qx for v in uy]
            xs[col + 1 :], ys[col + 1 :] = ux, uy
        prev = (px, py)
        pivots.append(col)

    def kernel():
        c = next((i for i, col in enumerate(pivots) if col != i), len(pivots))
        if c == ncols:
            return None
        dx, dy = (work[c - 1][0][c - 1], work[c - 1][1][c - 1]) if c and not p else (1, 0)
        y = [(0, 0)] * c + [(dx * dx - N * dy * dy, 0)]  # y = N(d)*x in Z[g], d the leading c x c minor
        for i in range(c - 1, -1, -1):
            xs, ys = work[i]
            later = list(enumerate(y[i + 1 :], i + 1))
            sx = -sum(xs[j] * u + N * ys[j] * v for j, (u, v) in later)
            sy = -sum(xs[j] * v + ys[j] * u for j, (u, v) in later)
            qx, qy = xs[i], ys[i]
            nq = qx * qx - N * qy * qy
            ex, ey = sx * qx - N * sy * qy, sy * qx - sx * qy  # s / q = s * conj(q) / N(q)
            y[i] = (ex * pow(nq, -1, p) % p, ey * pow(nq, -1, p) % p) if p else (ex // nq, ey // nq)
        y += [(0, 0)] * (ncols - c - 1)
        return y if p else [(Fraction(u, y[c][0]), Fraction(v * D, y[c][0])) for u, v in y]

    if nrows != ncols:
        return pivots, None, kernel
    x, y = (sign * prev[0], sign * prev[1] * D) if len(pivots) == ncols else (0, 0)
    return pivots, (x % p, y % p) if p else (Fraction(x, scale), Fraction(y, scale)), kernel


def field_rank(rows, spec: FieldSpec) -> int:
    """Rank of a matrix of raw QQ or GF(p) values: the pivots of `field_echelon`."""
    return len(field_echelon(rows, spec)[0])


class CompMatrix(RingMatrix):
    """Matrix with entries from one composition algebra; a right module."""

    __slots__ = ()
    _mismatch = (AlgebraMismatchError, "matrices over different algebras")

    @staticmethod
    def _entries(algebra, rows):
        rows = tuple(tuple(row) for row in rows)
        for row in rows:
            for e in row:
                if e.algebra is not algebra and e.algebra != algebra:
                    raise AlgebraMismatchError("entry from a different algebra")
        return rows

    @property
    def algebra(self):
        """The algebra, read-only; the same object as `ring`."""
        return self.ring

    @property
    def entries(self):
        """The rows of entries, read-only; the same tuple as `rows`."""
        return self.rows

    def __repr__(self):
        return f"CompMatrix({self.m}x{self.n} over {self.ring!r})"

    def scale_right(self, q) -> "CompMatrix":
        """Right scalar action: every entry is multiplied by q on the right."""
        if q.algebra != self.ring:
            raise AlgebraMismatchError("scalar from a different algebra")
        return CompMatrix(self.ring, [[e * q for e in row] for row in self.rows])

    def take_rows(self, count: int) -> "CompMatrix":
        if not 1 <= count <= self.m:
            raise ShapeError("row count out of range")
        return CompMatrix(self.ring, self.rows[:count])


def _raw(Z: CompMatrix):
    """The raw matrix that the raw cores take: the coordinate tuple of each
    entry, row by row, with an integral QQ value as an `int`."""
    return tuple(tuple(tuple(v.numerator if v.denominator == 1 else v for v in e.coeffs) for e in row) for row in Z.rows)


def _element(algebra, y, den):
    return algebra.element(y if den == 1 else [Fraction(v, den) for v in y])


def _vanishes(acc, p) -> bool:
    return not any(v % p if p else v for row in acc for a in row for v in a)


def _combine_raw(algebra, family, ys, count):
    """First `count` rows of sum family[i] . ys[i] for raw matrices and
    coefficients, unreduced: a coefficient c * one scales each coordinate by
    c, any other adds the table product x * y of each entry x (`_table_mul`)."""
    terms = [[(k, c.numerator if c.denominator == 1 else c) for k, c in row] for row in algebra._terms]
    acc = [[[0] * algebra.dim for _ in family[0][0]] for _ in range(count)]
    for Z, y in zip(family, ys):
        c = y[0]
        base = y == [c * e for e in algebra._one]
        if base and not c:
            continue
        for acc_row, row in zip(acc, Z):
            for a, x in zip(acc_row, row):
                a[:] = map(operator.add, a, [v * c for v in x] if base else _table_mul(terms, x, y, 0))
    return acc


def combine(matrices, coeffs) -> CompMatrix:
    """Sum of matrices[i] . coeffs[i] under the right scalar action, by
    `_combine_raw` on the coefficients as integers over their common
    denominator d, each coordinate divided by d once."""
    algebra, m, n = matrices[0].ring, matrices[0].m, matrices[0].n
    for Z, q in zip(matrices, coeffs):
        if q.algebra != algebra or type(Z) is not CompMatrix or Z.ring != algebra:
            raise AlgebraMismatchError("matrices and coefficients must share one algebra")
        if (Z.m, Z.n) != (m, n):
            raise ShapeError("combined matrices must share one shape")
    d = lcm(*(y.denominator for q in coeffs for y in q.coeffs))
    ys = [[v.numerator * (d // v.denominator) for v in q.coeffs] for q in coeffs]
    acc = _combine_raw(algebra, [_raw(Z) for Z in matrices], ys, m)
    return CompMatrix(algebra, [[_element(algebra, a, d) for a in row] for row in acc])


def _doubling_rows(algebra, rows, s=None):
    """Raw doubling matrix over (a,b): entry (i, j), z = x + v*y (`cd_coords`),
    becomes [[x, -conj(y)], [-b*y, conj(x)]] at rows 2i, 2i+1 and columns 2j,
    2j+1, as pairs (x, y) = x + y*sqrt(a), or as x + y*s given s^2 = a in k."""
    b = algebra.b.raw
    b = b.numerator if b.denominator == 1 else b
    if s is None:
        blocks = [[((x0, x1), (-x2, -x3), (-b * x2, b * x3), (x0, -x1)) for x0, x1, x2, x3 in row] for row in rows]
    else:
        blocks = [[(x0 + x1 * s, -x2 - x3 * s, b * (x3 * s - x2), x0 - x1 * s) for x0, x1, x2, x3 in row] for row in rows]
    return [[blk[2 * r + c] for blk in row for c in (0, 1)] for row in blocks for r in (0, 1)]


def _half(algebra, rows):
    """(H, a): the half-size matrix of a raw matrix (`_raw`), and the a of its
    pairs over k(sqrt(a)), or None when its values lie in k."""
    if isinstance(algebra, Mat2Algebra):
        return [[e[2 * r + c] for e in row for c in (0, 1)] for row in rows for r in (0, 1)], None
    s = algebra.quad_subfield()._sqrt_a
    if s is None:
        return _doubling_rows(algebra, rows), algebra.a.raw
    return _doubling_rows(algebra, rows, s.numerator if s.denominator == 1 else s), None


def _half_echelon(algebra, H, a):
    """Pivots of a half-size matrix (H, a) (`_half`) and, if square, d = det H in k:
    H is Z under Mat(n, C) (x) L ~ Mat(2n, L), L = k(sqrt(a)) splitting C, and
    d is the reduced norm, so its sqrt(a) part is checked to be 0."""
    if a is None:
        pivots, d, _ = field_echelon(H, algebra.field)
        return pivots, d
    pivots, d, _ = pair_echelon(H, algebra.field, a)
    if d is not None and d[1]:
        raise AssertionError(f"determinant {d} of the doubling matrix has a nonzero sqrt(a) part")
    return pivots, None if d is None else d[0]


def symplectic_rep(Z: CompMatrix) -> FieldMatrix:
    """The doubling matrix (`_doubling_rows`) over L = k[sqrt(a)] in the block
    layout [[X, -conj(Y)], [-b*Y, conj(X)]]; over Mat2 that of (1,-1)."""
    if not Z.is_square():
        raise ShapeError("the representation is defined for square matrices")
    if Z.ring.field.characteristic == 2:
        raise ValueError("the doubling representation needs characteristic != 2")
    if isinstance(Z.ring, Mat2Algebra):
        Z = mat2_matrix_to_quat(Z)
    H, n = _doubling_rows(Z.ring, _raw(Z)), Z.n
    return FieldMatrix(Z.ring.quad_subfield(), [[H[2 * i + r][2 * j + c] for c in (0, 1) for j in range(n)] for r in (0, 1) for i in range(n)])


def study_det(Z: CompMatrix) -> Scalar:
    """Study determinant det L(Z) = d * conj(d) = d^2, d from `_half_echelon`."""
    if not Z.is_square():
        raise ShapeError("the Study determinant is defined for square matrices")
    d = _half_echelon(Z.ring, *_half(Z.ring, _raw(Z)))[1]
    return Scalar(Z.ring.field, Z.ring.field._mul(d, d))


def flatten_split(Z: CompMatrix) -> FieldMatrix:
    """Mat(n, Mat(2,k)) ~ Mat(2n,k): substitute each entry by its 2x2 block."""
    alg = Z.ring
    if not (isinstance(alg, Mat2Algebra) or isinstance(alg, QuatAlgebra) and alg.has_mat2_form()):
        raise NotSplitFormError(f"{alg!r} has no registered 2x2 realization")
    return FieldMatrix(alg.field, _half(alg, _raw(Z))[0])


def unflatten_split(M: FieldMatrix, algebra) -> CompMatrix:
    """Inverse of `flatten_split` onto the given split algebra."""
    if M.m % 2 or M.n % 2:
        raise ShapeError("block dimensions must be even")
    mat2 = algebra if isinstance(algebra, Mat2Algebra) else Mat2Algebra(M.ring)
    raw = [[e.raw for e in row] for row in M.rows]
    blocks = [[mat2.element((raw[i][j], raw[i][j + 1], raw[i + 1][j], raw[i + 1][j + 1])) for j in range(0, M.n, 2)]
              for i in range(0, M.m, 2)]
    if not isinstance(algebra, Mat2Algebra):
        blocks = [[mat2_to_quat(b, algebra) for b in row] for row in blocks]
    return CompMatrix(algebra, blocks)


def mat2_matrix_to_quat(Z: CompMatrix, target: QuatAlgebra | None = None) -> CompMatrix:
    if not isinstance(Z.ring, Mat2Algebra):
        raise AlgebraMismatchError("expected a matrix over the 2x2 realization")
    if target is None:
        target = QuatAlgebra.split_form(Z.ring.field)
    return CompMatrix(target, [[mat2_to_quat(e, target) for e in row] for row in Z.rows])


def split_pair(Z: CompMatrix) -> tuple[FieldMatrix, FieldMatrix]:
    """Project a matrix of diagonal 2x2 blocks onto its upper-left and
    lower-right components, a homomorphism onto pairs of base-field matrices."""
    spec = Z.ring.field
    if not isinstance(Z.ring, (Mat2Algebra, QuatAlgebra)) or not Z.ring.has_mat2_form():
        raise NotSplitFormError("entry has no registered 2x2 realization")
    blocks = [[e if isinstance(e, Mat2Element) else quat_to_mat2(e) for e in row] for row in Z.rows]
    zero = spec._coerce(0)
    for row in blocks:
        for e in row:
            if e.coeffs[1] != zero or e.coeffs[2] != zero:
                raise NotDiagonalError(f"entry {e!r} is not diagonal")
    first = FieldMatrix(spec, [[e.coeffs[0] for e in row] for row in blocks])
    second = FieldMatrix(spec, [[e.coeffs[3] for e in row] for row in blocks])
    return first, second


def is_invertible(Z: CompMatrix) -> bool:
    """Invertibility over the algebra: a nonzero Study determinant."""
    return not study_det(Z).is_zero()


def _whole_pairs(pivots) -> int:
    """Right column rank over a division algebra D from the pivots of H: the
    first j column pairs of H have twice the rank of the first j D-columns,
    so each pair holds two pivots or none."""
    if pivots != [2 * (col // 2) + k for col in pivots[::2] for k in (0, 1)]:
        raise AssertionError("pivots of the half-size matrix over a division algebra are not whole pairs")
    return len(pivots) // 2


def _skew_kernel(algebra, rows):
    """First right kernel vector of raw A over a division algebra D, or None:
    4n base-field coordinates, a_f = 1 at the first free D-column f and a_j = 0
    after it.  Z*a = 0 puts the first column (x, -b*y) of the doubling matrix
    of a = x + v*y in the kernel of H over k(sqrt(a)) (`_half`), so the first
    kernel vector u of H (`pair_echelon`), 1 at column 2f and 0 after it, gives
    x_j = u[2j] and y_j = -u[2j+1] / b = y0 + y1*sqrt(a), and v*y_j = y0*v - y1*w.
    """
    if algebra.is_split_decision() == SPLIT:
        raise UnexpectedZeroDivisorError("skew elimination needs a division algebra")
    H, a = _half(algebra, rows)
    pivots, _, kernel = pair_echelon(H, algebra.field, a)
    _whole_pairs(pivots)
    u, b = kernel(), algebra.b.raw
    return None if u is None else [c for x, y in zip(u[::2], u[1::2]) for c in (*x, -y[0] / b, y[1] / b)]


def skew_column_rank(A: CompMatrix) -> int:
    """Number of right-independent columns over a division quaternion algebra (`_whole_pairs`)."""
    if A.ring.is_split_decision() == SPLIT:
        raise UnexpectedZeroDivisorError("skew elimination needs a division algebra")
    return _whole_pairs(_half_echelon(A.ring, *_half(A.ring, _raw(A)))[0])


def _skew_solve_raw(algebra, rows):
    """`skew_solve` on a raw matrix: (numerators, denominator), or None.

    With the kernel vector cleared to integers and y_f its first nonzero
    block, a_t = y_t * conj(y_f) / N(y_f) (conjugation negates u, v and w).
    """
    kernel = _skew_kernel(algebra, rows)
    if kernel is None:
        return None
    den = lcm(*(v.denominator for v in kernel))
    y = [v.numerator * (den // v.denominator) for v in kernel]
    blocks = [y[4 * j : 4 * j + 4] for j in range(len(rows[0]))]
    f = next(j for j, b in enumerate(blocks) if any(b))
    # the row of blocks times conj(y_f); its entry f is the norm
    (ys,) = _combine_raw(algebra, [(blocks,)], [[blocks[f][0]] + [-v for v in blocks[f][1:]]], 1)
    if any(ys[f][1:]):
        raise AssertionError("norm has a nonreal component; structure table is broken")
    columns = [[(row[t],) for row in rows] for t in range(len(blocks))]
    if not _vanishes(_combine_raw(algebra, columns, ys, len(rows)), algebra.field.characteristic):
        raise AssertionError("skew elimination produced a bad kernel vector")
    return ys, ys[f][0]


def skew_solve(A: CompMatrix):
    """Nonzero right-coefficient vector with (columns of A) . a = 0, or None.

    The first free column gets coefficient one and later free columns zero,
    the first nonzero coefficient is then normalized to one, and the output
    is substituted back into the system before it is returned.
    """
    sol = _skew_solve_raw(A.ring, _raw(A))
    return None if sol is None else tuple(_element(A.ring, y, sol[1]) for y in sol[0])
