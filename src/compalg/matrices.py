"""Dense exact matrices over field specs and over composition algebras.

The composition-algebra matrices are right modules: scalar coefficients
multiply every entry on the right.  Verdicts on a square matrix Z over an
algebra with base field k come from one base-field picture, the matrix L(Z)
of X -> Z*X (`left_regular_rep`): det L(Z) is the square of the reduced
norm, i.e. the Study determinant d * conj(d) (`study_det`), and Z is
invertible exactly when it is nonzero (`is_invertible`), for every algebra.
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
    mat2_to_quat,
    quat_to_mat2,
)


class FieldMatrix:
    """Immutable m x n matrix of scalars sharing one field spec."""

    __slots__ = ("spec", "m", "n", "rows")

    def __init__(self, spec: FieldSpec, rows):
        rows = tuple(tuple(spec.element(e) for e in row) for row in rows)
        if not rows or not rows[0]:
            raise ShapeError("dimensions must be positive")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "n", width)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *_):
        raise AttributeError("FieldMatrix is immutable")

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        return cls(spec, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, spec: FieldSpec, m: int, n: int) -> "FieldMatrix":
        return cls(spec, [[0] * n for _ in range(m)])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and other.spec == self.spec
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.spec, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(repr(e.raw) for e in row) for row in self.rows)
        return f"FieldMatrix({self.m}x{self.n}: {body})"

    def _check(self, other):
        if not isinstance(other, FieldMatrix) or other.spec != self.spec:
            raise FieldMismatchError("matrices over different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeError("addition needs equal shapes")
        return FieldMatrix(
            self.spec,
            [[self.rows[i][j] + other.rows[i][j] for j in range(self.n)] for i in range(self.m)],
        )

    def __sub__(self, other):
        other = self._check(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeError("subtraction needs equal shapes")
        return FieldMatrix(
            self.spec,
            [[self.rows[i][j] - other.rows[i][j] for j in range(self.n)] for i in range(self.m)],
        )

    def __neg__(self):
        return FieldMatrix(self.spec, [[-e for e in row] for row in self.rows])

    def __mul__(self, other):
        other = self._check(other)
        if self.n != other.m:
            raise ShapeError(f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        zero = self.spec.zero()
        out = []
        for i in range(self.m):
            row = []
            for j in range(other.n):
                acc = zero
                for k in range(self.n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return FieldMatrix(self.spec, out)

    def scale(self, c) -> "FieldMatrix":
        c = self.spec.element(c)
        return FieldMatrix(self.spec, [[e * c for e in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def is_square(self) -> bool:
        return self.m == self.n

    def submatrix(self, row_idx, col_idx) -> "FieldMatrix":
        return FieldMatrix(self.spec, [[self.rows[i][j] for j in col_idx] for i in row_idx])

    def det(self) -> Scalar:
        """Exact determinant.

        Over QQ and GF(p) it is the one raw kernel, `field_echelon`.  Over a
        split quadratic extension the computation runs componentwise through
        k (+) k so that zero-divisor pivots never arise; over a quadratic
        field it is division elimination on the scalars.
        """
        if self.m != self.n:
            raise ShapeError("determinant needs a square matrix")
        spec = self.spec
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
    of denominators (the determinant is divided by their product at the end)
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


class CompMatrix:
    """Matrix with entries from one composition algebra; a right module."""

    __slots__ = ("algebra", "m", "n", "entries")

    def __init__(self, algebra, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ShapeError("dimensions must be positive")
        width = len(entries[0])
        if any(len(r) != width for r in entries):
            raise ShapeError("ragged rows")
        for row in entries:
            for e in row:
                if e.algebra != algebra:
                    raise AlgebraMismatchError("entry from a different algebra")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "m", len(entries))
        object.__setattr__(self, "n", width)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *_):
        raise AttributeError("CompMatrix is immutable")

    @classmethod
    def identity(cls, algebra, n: int) -> "CompMatrix":
        one, zero = algebra.one(), algebra.zero()
        return cls(algebra, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, algebra, m: int, n: int) -> "CompMatrix":
        z = algebra.zero()
        return cls(algebra, [[z] * n for _ in range(m)])

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, CompMatrix)
            and other.algebra == self.algebra
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.algebra, self.entries))

    def __repr__(self):
        return f"CompMatrix({self.m}x{self.n} over {self.algebra!r})"

    def _check(self, other):
        if not isinstance(other, CompMatrix) or other.algebra != self.algebra:
            raise AlgebraMismatchError("matrices over different algebras")
        return other

    def __add__(self, other):
        other = self._check(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeError("addition needs equal shapes")
        return CompMatrix(
            self.algebra,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.n)]
                for i in range(self.m)
            ],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CompMatrix(self.algebra, [[-e for e in row] for row in self.entries])

    def __mul__(self, other):
        other = self._check(other)
        if self.n != other.m:
            raise ShapeError(f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        zero = self.algebra.zero()
        out = []
        for i in range(self.m):
            row = []
            for j in range(other.n):
                acc = zero
                for k in range(self.n):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return CompMatrix(self.algebra, out)

    def scale_right(self, q) -> "CompMatrix":
        """Right scalar action: every entry is multiplied by q on the right."""
        if q.algebra != self.algebra:
            raise AlgebraMismatchError("scalar from a different algebra")
        return CompMatrix(self.algebra, [[e * q for e in row] for row in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def is_square(self) -> bool:
        return self.m == self.n

    def submatrix(self, row_idx, col_idx) -> "CompMatrix":
        return CompMatrix(
            self.algebra, [[self.entries[i][j] for j in col_idx] for i in row_idx]
        )

    def take_rows(self, count: int) -> "CompMatrix":
        if not 1 <= count <= self.m:
            raise ShapeError("row count out of range")
        return CompMatrix(self.algebra, self.entries[:count])


def symplectic_rep(Z: CompMatrix) -> FieldMatrix:
    """The doubling representation, a 2n x 2n matrix over L = k[sqrt(a)].

    Requires the coefficient (a,b) form; a matrix over the literal 2x2
    realization converts through `mat2_matrix_to_quat` first.
    """
    if not Z.is_square():
        raise ShapeError("the representation is defined for square matrices")
    if Z.algebra.field.characteristic == 2:
        raise ValueError("the doubling representation needs characteristic != 2")
    if isinstance(Z.algebra, Mat2Algebra):
        Z = mat2_matrix_to_quat(Z)
    alg: QuatAlgebra = Z.algebra
    L = alg.quad_subfield()
    b = L.embed(alg.b.raw)
    n = Z.n
    size = 2 * n
    zero = L.zero()
    out = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j in range(n):
            x, y = Z.entries[i][j].cd_coords()
            out[i][j] = x
            out[i][n + j] = -(y.conjugate())
            out[n + i][j] = -(b * y)
            out[n + i][n + j] = x.conjugate()
    return FieldMatrix(L, out)


def study_det(Z: CompMatrix) -> Scalar:
    """Study determinant d * conj(d) of a square matrix: det L(Z), a base-field value."""
    if not Z.is_square():
        raise ShapeError("the Study determinant is defined for square matrices")
    k = Z.algebra.field
    return Scalar(k, field_echelon(left_regular_rep(Z), k)[2])


def _mat2_entry(e) -> Mat2Element:
    if isinstance(e, Mat2Element):
        return e
    if isinstance(e, QuaternionElement) and e.algebra.has_mat2_form():
        return quat_to_mat2(e)
    raise NotSplitFormError("entry has no registered 2x2 realization")


def flatten_split(Z: CompMatrix) -> FieldMatrix:
    """Mat(n, Mat(2,k)) ~ Mat(2n,k): substitute each entry by its 2x2 block."""
    alg = Z.algebra
    if isinstance(alg, Mat2Algebra):
        spec = alg.field
    elif isinstance(alg, QuatAlgebra) and alg.has_mat2_form():
        spec = alg.field
    else:
        raise NotSplitFormError(f"{alg!r} has no registered 2x2 realization")
    out = [[spec.zero()] * (2 * Z.n) for _ in range(2 * Z.m)]
    for i in range(Z.m):
        for j in range(Z.n):
            m00, m01, m10, m11 = _mat2_entry(Z.entries[i][j]).coeffs
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
    so Z[i, j] = sum z_l e_l puts z_l * c at (4i + t, 4j + k).
    """
    alg = Z.algebra
    f = alg.field
    terms = [(l, k, t, c) for l, row in enumerate(alg._terms) for k, (t, c) in enumerate(row) if c]
    out = [[f._coerce(0)] * (4 * Z.n) for _ in range(4 * Z.m)]
    for i, row in enumerate(Z.entries):
        for j, z in enumerate(row):
            coeffs = z.coeffs
            for l, k, t, c in terms:
                if coeffs[l]:
                    out[4 * i + t][4 * j + k] = f._mul(coeffs[l], c)
    return out


def unflatten_split(M: FieldMatrix, algebra) -> CompMatrix:
    """Inverse of `flatten_split` onto the given split algebra."""
    if M.m % 2 or M.n % 2:
        raise ShapeError("block dimensions must be even")
    mat2 = algebra if isinstance(algebra, Mat2Algebra) else Mat2Algebra(M.spec)
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
    if not isinstance(Z.algebra, Mat2Algebra):
        raise AlgebraMismatchError("expected a matrix over the 2x2 realization")
    if target is None:
        target = QuatAlgebra.split_form(Z.algebra.field)
    return CompMatrix(target, [[mat2_to_quat(e, target) for e in row] for row in Z.entries])


def quat_matrix_to_mat2(Z: CompMatrix, target: Mat2Algebra | None = None) -> CompMatrix:
    if not isinstance(Z.algebra, QuatAlgebra) or not Z.algebra.has_mat2_form():
        raise NotSplitFormError("matrix is not over the (1,-1) algebra")
    if target is None:
        target = Mat2Algebra(Z.algebra.field)
    return CompMatrix(target, [[quat_to_mat2(e, target) for e in row] for row in Z.entries])


def split_pair(Z: CompMatrix) -> tuple[FieldMatrix, FieldMatrix]:
    """Project a matrix over the diagonal subalgebra onto its two components.

    Every entry must be a diagonal 2x2 block; the first component collects the
    upper-left entries, the second the lower-right ones.  The projection is a
    homomorphism onto pairs of base-field matrices.
    """
    spec = Z.algebra.field
    blocks = [[_mat2_entry(e) for e in row] for row in Z.entries]
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
    alg = A.algebra
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
    alg = A.algebra
    sol = [alg.element(kernel[4 * j : 4 * j + 4]) for j in range(A.n)]
    first = next(c for c in sol if not c.is_zero())
    inv = first.inverse()
    sol = [c * inv for c in sol]
    if not (A * CompMatrix(alg, [[c] for c in sol])).is_zero():
        raise AssertionError("skew elimination produced a bad kernel vector")
    return tuple(sol)
