"""Dense exact matrices over field specs and over composition algebras.

One core, `RingMatrix`, holds an immutable m x n grid over one ring and
defines shape checks, equality, hashing, sums, products, `submatrix`,
`zero` and `identity` once.  `FieldMatrix` (over a field spec) adds entry
coercion, `scale` and `det`; `CompMatrix` (over a composition algebra) adds
the per-entry algebra check, `scale_right` and `take_rows`.  The
composition-algebra matrices are right modules: scalar coefficients
multiply every entry on the right, and `combine` sums such multiples on raw
coordinates (for `rank` and the substitution check of `skew_solve`).
Verdicts on a square matrix Z over an algebra with base field k come from
one base-field picture, the matrix L(Z) of X -> Z*X (`left_regular_rep`):
det L(Z) is the square of the reduced norm, i.e. the Study determinant
d * conj(d) (`study_det`), and Z is invertible exactly when it is nonzero
(`is_invertible`), for every algebra.
The doubling representation Z = X + v*Y -> [[X, -conj(Y)], [-b*Y, conj(X)]]
over L = k[sqrt(a)] (`symplectic_rep`, d its determinant; the lower-left
sign is pinned by the homomorphism tests), the flattening
Mat(n, Mat(2,k)) ~ Mat(2n,k) (`flatten_split`) and the diagonal projection
(`split_pair`) are outputs only.

One raw-value kernel, `field_echelon`, eliminates over QQ and GF(p): it
returns the pivot columns, the first kernel vector and, for square input,
the determinant.  Its callers are `study_det`, `field_rank` (which
`rank.comp_rank` applies to L(Z)), `FieldMatrix.det`, `skew_column_rank`
and `skew_solve` (the base-field kernel of L(A) over a division algebra),
the split branch of `rank.low_rank_combination`, `ratlin.det`,
`ratlin.solve_square` (the kernel vector of [A | b]) and `IntMatrix.det`.
`FieldMatrix.det` over a split quadratic extension goes through the
componentwise decomposition L ~ k (+) k; over a quadratic field it is
division elimination on the scalars, which no library verdict reaches.
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
    QuaternionElement,
    _table_mul,
    mat2_to_quat,
    quat_to_mat2,
)


class RingMatrix:
    """Immutable m x n matrix over `ring`, whose `zero()` and `one()` it uses.

    A subclass supplies `_entries`, which coerces or checks the entries
    before the shape is checked, and `_mismatch`, the error type and message
    for an operand of another class or over another ring.
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
        """Exact determinant.

        Over QQ and GF(p) it is the one raw kernel, `field_echelon`.  Over a
        split quadratic extension the computation runs componentwise through
        k (+) k so that zero-divisor pivots never arise; over a quadratic
        field it is division elimination on the scalars.
        """
        if self.m != self.n:
            raise ShapeError("determinant needs a square matrix")
        spec = self.ring
        if not isinstance(spec, QuadExt):
            return Scalar(spec, field_echelon([[e.raw for e in row] for row in self.rows], spec)[2])
        if spec.split:
            parts = [[split_components(e) for e in row] for row in self.rows]
            d1, d2 = (FieldMatrix(spec.base, [[e[k] for e in row] for row in parts]).det() for k in (0, 1))
            return from_split_components(spec, d1, d2)
        work = [list(row) for row in self.rows]
        n = self.n
        det = spec.one()
        for col in range(n):
            pivot_row = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pivot_row is None:
                return spec.zero()
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                det = -det
            pivot = work[col][col]
            det = det * pivot
            inv = pivot.inverse()
            for r in range(col + 1, n):
                factor = work[r][col] * inv
                if factor.is_zero():
                    continue
                work[r] = [work[r][j] - factor * work[col][j] for j in range(n)]
        return det


def field_echelon(rows, spec: FieldSpec):
    """(pivot columns, first kernel vector, determinant) of raw QQ or GF(p) rows.

    Forward elimination; a column's pivot is its first nonzero entry at or
    below the current row.  Over GF(p) a lower row r becomes
    r - (r[col] / pivot) * (pivot row), mod p.  Over QQ the rows are cleared
    of denominators (the determinant is divided by their product at the end;
    a row of `int`s is copied as it is and adds nothing to that product)
    and the step pivot * r - r[col] * (pivot row) is divided exactly by the
    previous pivot (Bareiss), so the integers stay minors of the cleared
    matrix; the last pivot of a square matrix of full rank is its
    determinant up to the sign of the row swaps.  Entries left of the
    current column are not updated, since nothing reads them again.

    The kernel vector is 1 at the first non-pivot column c and 0 after it,
    None when every column is a pivot.  Columns 0..c-1 are pivots, so back
    substitution gives the rest; over QQ it runs on y = d*x, d the leading
    c x c minor, whose entries are integers by Cramer's rule.  The
    determinant is given for square input, else None.
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
    kernel = None
    c = next((i for i, col in enumerate(pivots) if col != i), rank)
    if c < ncols:
        d = 1 if p or not c else work[c - 1][c - 1]
        y = [0] * c + [d]
        for i in range(c - 1, -1, -1):
            row = work[i]
            s = -sum(row[j] * y[j] for j in range(i + 1, c + 1))
            y[i] = s * pow(row[i], -1, p) % p if p else s // row[i]
        y += [0] * (ncols - c - 1)
        kernel = y if p else [Fraction(v, d) for v in y]
    det = None
    if nrows == ncols:
        if rank < ncols:
            det = 0 if p else Fraction(0)
        elif p:
            det = sign * prod(work[i][i] for i in range(rank)) % p
        else:
            det = Fraction(sign * prev, scale)
    return pivots, kernel, det


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


def combine(matrices, coeffs) -> CompMatrix:
    """Sum of matrices[i] . coeffs[i] under the right scalar action, on raw coordinates.

    A coefficient from_base(c) is central and scales each coordinate by c;
    any other coefficient q adds the table product x * q (`_table_mul`) of
    each entry x.  Over QQ the coefficients are integers over their common
    denominator d, and integral coordinates and structure constants ints, so
    each coordinate is divided by d once; over GF(p) building the one
    CompMatrix at the end reduces mod p.
    """
    algebra, m, n = matrices[0].ring, matrices[0].m, matrices[0].n
    pairs = list(zip(matrices, coeffs))
    for Z, q in pairs:
        if q.algebra != algebra or type(Z) is not CompMatrix or Z.ring != algebra:
            raise AlgebraMismatchError("matrices and coefficients must share one algebra")
        if (Z.m, Z.n) != (m, n):
            raise ShapeError("combined matrices must share one shape")
    d = lcm(*(y.denominator for _, q in pairs for y in q.coeffs))
    terms = [[(k, c.numerator if c.denominator == 1 else c) for k, c in row] for row in algebra._terms]
    acc = [[[0] * algebra.dim for _ in range(n)] for _ in range(m)]
    for Z, q in pairs:
        y = [v.numerator * (d // v.denominator) for v in q.coeffs]
        c = y[0]
        base = y == [c * e for e in algebra._one]
        if base and not c:
            continue
        for acc_row, row in zip(acc, Z.rows):
            for a, e in zip(acc_row, row):
                x = [v.numerator if v.denominator == 1 else v for v in e.coeffs]
                for k, v in enumerate([v * c for v in x] if base else _table_mul(terms, x, y, 0)):
                    a[k] += v
    rows = [[a if algebra.field.characteristic else [Fraction(v, d) for v in a] for a in row] for row in acc]
    return CompMatrix(algebra, [[algebra.element(a) for a in row] for row in rows])


def symplectic_rep(Z: CompMatrix) -> FieldMatrix:
    """The doubling representation, a 2n x 2n matrix over L = k[sqrt(a)].

    Requires the coefficient (a,b) form; a matrix over the literal 2x2
    realization converts through `mat2_matrix_to_quat` first.
    """
    if not Z.is_square():
        raise ShapeError("the representation is defined for square matrices")
    if Z.ring.field.characteristic == 2:
        raise ValueError("the doubling representation needs characteristic != 2")
    if isinstance(Z.ring, Mat2Algebra):
        Z = mat2_matrix_to_quat(Z)
    alg: QuatAlgebra = Z.ring
    L = alg.quad_subfield()
    b = L.embed(alg.b.raw)
    n = Z.n
    size = 2 * n
    zero = L.zero()
    out = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            x, y = Z.rows[i][j].cd_coords()
            out[i][j] = x
            out[i][n + j] = -(y.conjugate())
            out[n + i][j] = -(b * y)
            out[n + i][n + j] = x.conjugate()
    return FieldMatrix(L, out)


def study_det(Z: CompMatrix) -> Scalar:
    """Study determinant d * conj(d) of a square matrix: det L(Z), a base-field value."""
    if not Z.is_square():
        raise ShapeError("the Study determinant is defined for square matrices")
    k = Z.ring.field
    return Scalar(k, field_echelon(left_regular_rep(Z), k)[2])


def _mat2_entry(e) -> Mat2Element:
    if isinstance(e, Mat2Element):
        return e
    if isinstance(e, QuaternionElement) and e.algebra.has_mat2_form():
        return quat_to_mat2(e)
    raise NotSplitFormError("entry has no registered 2x2 realization")


def flatten_split(Z: CompMatrix) -> FieldMatrix:
    """Mat(n, Mat(2,k)) ~ Mat(2n,k): substitute each entry by its 2x2 block."""
    alg = Z.ring
    if isinstance(alg, Mat2Algebra):
        spec = alg.field
    elif isinstance(alg, QuatAlgebra) and alg.has_mat2_form():
        spec = alg.field
    else:
        raise NotSplitFormError(f"{alg!r} has no registered 2x2 realization")
    out = [[spec.zero()] * (2 * Z.n) for _ in range(2 * Z.m)]
    for i in range(Z.m):
        for j in range(Z.n):
            m00, m01, m10, m11 = _mat2_entry(Z.rows[i][j]).coeffs
            out[2 * i][2 * j] = Scalar(spec, m00)
            out[2 * i][2 * j + 1] = Scalar(spec, m01)
            out[2 * i + 1][2 * j] = Scalar(spec, m10)
            out[2 * i + 1][2 * j + 1] = Scalar(spec, m11)
    return FieldMatrix(spec, out)


def left_regular_rep(Z: CompMatrix) -> list[list]:
    """Raw 4m x 4n base-field matrix of X -> Z*X on column vectors X in C^n.

    Column 4j + k holds the coordinates of the column Z[:, j] * e_k, with
    e_0..e_3 the algebra's coordinate basis; row 4i + c is coordinate c of
    entry i.  Each basis product e_l * e_k is one term c * e_t of the
    algebra's table, and for a fixed k the nonzero ones land on distinct t,
    so Z[i, j] = sum z_l e_l puts z_l * c at (4i + t, 4j + k), c = +-1 as a
    sign.  Over QQ an integral value, zero included, is an `int`, so integer
    input gives the all-`int` rows that `field_echelon` takes as they are.
    """
    f = Z.ring.field
    neg, mul, minus_one = f._neg, f._mul, f._neg(f._coerce(1))
    terms = [(l, k, t, 1 if c == 1 else -1 if c == minus_one else c)
             for l, row in enumerate(Z.ring._terms) for k, (t, c) in enumerate(row) if c]
    out = [[0] * (4 * Z.n) for _ in range(4 * Z.m)]
    for i, row in enumerate(Z.rows):
        for j, z in enumerate(row):
            coeffs = [x.numerator if x.denominator == 1 else x for x in z.coeffs]
            for l, k, t, c in terms:
                x = coeffs[l]
                if x:
                    v = x if c == 1 else neg(x) if c == -1 else mul(x, c)
                    out[4 * i + t][4 * j + k] = v.numerator if v.denominator == 1 else v
    return out


def unflatten_split(M: FieldMatrix, algebra) -> CompMatrix:
    """Inverse of `flatten_split` onto the given split algebra."""
    if M.m % 2 or M.n % 2:
        raise ShapeError("block dimensions must be even")
    mat2 = algebra if isinstance(algebra, Mat2Algebra) else Mat2Algebra(M.ring)
    rows = []
    for i in range(M.m // 2):
        row = []
        for j in range(M.n // 2):
            block = mat2.element(
                (
                    M.rows[2 * i][2 * j].raw,
                    M.rows[2 * i][2 * j + 1].raw,
                    M.rows[2 * i + 1][2 * j].raw,
                    M.rows[2 * i + 1][2 * j + 1].raw,
                )
            )
            row.append(block if isinstance(algebra, Mat2Algebra) else mat2_to_quat(block, algebra))
        rows.append(row)
    return CompMatrix(algebra, rows)


def mat2_matrix_to_quat(Z: CompMatrix, target: QuatAlgebra | None = None) -> CompMatrix:
    if not isinstance(Z.ring, Mat2Algebra):
        raise AlgebraMismatchError("expected a matrix over the 2x2 realization")
    if target is None:
        target = QuatAlgebra.split_form(Z.ring.field)
    return CompMatrix(target, [[mat2_to_quat(e, target) for e in row] for row in Z.rows])


def split_pair(Z: CompMatrix) -> tuple[FieldMatrix, FieldMatrix]:
    """Project a matrix over the diagonal subalgebra onto its two components.

    Every entry must be a diagonal 2x2 block; the first component collects the
    upper-left entries, the second the lower-right ones.  The projection is a
    homomorphism onto pairs of base-field matrices.
    """
    spec = Z.ring.field
    blocks = [[_mat2_entry(e) for e in row] for row in Z.rows]
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


def _skew_kernel(A: CompMatrix):
    """Right column rank of A over a division algebra D, and its first right kernel vector.

    A right combination sum_j A[:, j] * a_j = 0 is the base-field system
    L(A) x = 0 (`left_regular_rep`) in the 4n coordinates x of a.  Over D the
    k-span of earlier columns is a right D-subspace, so the column block of
    a D-column holds four pivots of L(A) or none, and the first free k-column
    is the first coordinate of the first free D-column f.  The kernel vector
    of `field_echelon` thus sets a_f = 1 and every later a_j = 0, and it is
    the only right kernel vector that does.
    """
    alg = A.ring
    if alg.is_split_decision() == SPLIT:
        raise UnexpectedZeroDivisorError("skew elimination needs a division algebra")
    pivots, kernel, _ = field_echelon(left_regular_rep(A), alg.field)
    if pivots != [4 * (col // 4) + k for col in pivots[::4] for k in range(4)]:
        raise AssertionError("pivots of L(A) over a division algebra are not whole blocks")
    return len(pivots) // 4, kernel


def skew_column_rank(A: CompMatrix) -> int:
    """Number of right-independent columns over a division quaternion algebra."""
    return _skew_kernel(A)[0]


def skew_solve(A: CompMatrix):
    """Nonzero right-coefficient vector with (columns of A) . a = 0, or None.

    Deterministic: the first free column receives coefficient one and the
    later free columns zero, the result is normalized so its first nonzero
    coefficient is one, and substituting the output back into the system is
    checked before returning.
    """
    _, kernel = _skew_kernel(A)
    if kernel is None:
        return None
    alg = A.ring
    sol = [alg.element(kernel[4 * j : 4 * j + 4]) for j in range(A.n)]
    first = next(c for c in sol if not c.is_zero())
    inv = first.inverse()
    sol = [c * inv for c in sol]
    if not combine([CompMatrix(alg, [[e] for e in col]) for col in zip(*A.rows)], sol).is_zero():
        raise AssertionError("skew elimination produced a bad kernel vector")
    return tuple(sol)
