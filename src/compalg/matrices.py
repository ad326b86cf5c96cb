"""Dense exact matrices over field specs and over composition algebras.

The composition-algebra matrices are right modules: scalar coefficients
multiply every entry on the right.  The faithful doubling representation

    Z = X + v*Y  ->  [[X, -conj(Y)], [-b*Y, conj(X)]]

sends an n x n matrix over (a,b) to a 2n x 2n matrix over L = k[sqrt(a)]
(conjugation applied entrywise), and the Study determinant of Z is
d * conj(d) for d = det of that image, an element of the base field.  The
sign convention in the lower-left block is pinned by the homomorphism tests
rather than trusted.

Determinants over a split quadratic extension (where elimination would meet
zero divisors) go through the componentwise decomposition L ~ k (+) k; plain
division elimination handles every actual field.

`field_rank` ranks raw QQ or GF(p) values; `rank.comp_rank` applies it to
`left_regular_rep`, the base-field matrix of X -> Z*X.
"""

from math import lcm

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

        Division elimination over any actual field; over a split quadratic
        extension the computation runs componentwise through k (+) k so that
        zero-divisor pivots never arise.
        """
        if self.m != self.n:
            raise ShapeError("determinant needs a square matrix")
        spec = self.spec
        if isinstance(spec, QuadExt) and spec.split:
            comp1, comp2 = [], []
            for row in self.rows:
                r1, r2 = [], []
                for e in row:
                    c1, c2 = split_components(e)
                    r1.append(c1)
                    r2.append(c2)
                comp1.append(r1)
                comp2.append(r2)
            d1 = FieldMatrix(spec.base, comp1).det()
            d2 = FieldMatrix(spec.base, comp2).det()
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


def field_solve_homogeneous(rows: list[list[Scalar]], ncols: int, spec: FieldSpec):
    """First nonzero kernel vector of the column action, or None.

    Deterministic: columns are processed left to right, the first free column
    gets coefficient one.  Entries must be field elements (no zero divisors).
    """
    work = [list(r) for r in rows]
    nrows = len(work)
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        pivot_row = next(
            (r for r in range(rank, nrows) if not work[r][col].is_zero()), None
        )
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [e * inv for e in work[rank]]
        for r in range(nrows):
            if r != rank and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [work[r][j] - factor * work[rank][j] for j in range(ncols)]
        pivot_of_col[col] = rank
        rank += 1
    free = next((c for c in range(ncols) if c not in pivot_of_col), None)
    if free is None:
        return None
    sol = [spec.zero()] * ncols
    sol[free] = spec.one()
    for col, prow in pivot_of_col.items():
        sol[col] = -work[prow][free]
    return sol


def field_rank(rows, spec: FieldSpec) -> int:
    """Rank of a matrix of raw values over QQ or GF(p).

    Fraction-free elimination: each pivot step replaces a lower row r by
    pivot * r - r[col] * (pivot row).  Over GF(p) the result is reduced mod p.
    Over QQ each row is first cleared of denominators (scaling a row keeps
    the rank) and the step is divided exactly by the previous pivot (Bareiss),
    so the integers stay minors of the cleared matrix, as in `IntMatrix.det`.
    """
    if isinstance(spec, PrimeField):
        p = spec.p
        work = [[x % p for x in row] for row in rows]
    elif isinstance(spec, RationalField):
        p = 0
        work = []
        for row in rows:
            den = lcm(*(x.denominator for x in row))
            work.append([x.numerator * (den // x.denominator) for x in row])
    else:
        raise FieldMismatchError(f"field_rank runs over QQ or GF(p), not {spec!r}")
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    rank, prev = 0, 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        top = work[rank]
        pivot = top[col]
        for r in range(rank + 1, nrows):
            row = work[r]
            f = row[col]
            if p:
                if f:
                    work[r] = [(x * pivot - f * y) % p for x, y in zip(row, top)]
            else:
                work[r] = [(x * pivot - f * y) // prev for x, y in zip(row, top)]
        prev = pivot
        rank += 1
    return rank


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
    """d * conj(d) for d = det of the doubling representation; a base-field value."""
    d = symplectic_rep(Z).det()
    prod = d * d.conjugate()
    if prod.raw[1] != 0:
        raise AssertionError("Study determinant left the base field")
    return Scalar(prod.spec.base, prod.raw[0])


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
            m00, m01, m10, m11 = _mat2_entry(Z.entries[i][j]).entries
            out[2 * i][2 * j] = Scalar(spec, m00)
            out[2 * i][2 * j + 1] = Scalar(spec, m01)
            out[2 * i + 1][2 * j] = Scalar(spec, m10)
            out[2 * i + 1][2 * j + 1] = Scalar(spec, m11)
    return FieldMatrix(spec, out)


def left_regular_rep(Z: CompMatrix) -> list[list]:
    """Raw 4m x 4n base-field matrix of X -> Z*X on column vectors X in C^n.

    Column 4j + k holds the coordinates of the column Z[:, j] * e_k, with
    e_0..e_3 the algebra's coordinate basis; row 4i + c is coordinate c of
    entry i.
    """
    alg = Z.algebra
    f = alg.field
    zero, one = f._coerce(0), f._coerce(1)
    basis = [tuple(one if c == k else zero for c in range(4)) for k in range(4)]
    columns = [
        [x for i in range(Z.m) for x in alg._mul_raw(Z.entries[i][j].coeffs, e)]
        for j in range(Z.n)
        for e in basis
    ]
    return [list(row) for row in zip(*columns)]


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
            if e.entries[1] != zero or e.entries[2] != zero:
                raise NotDiagonalError(f"entry {e!r} is not diagonal")
    first = FieldMatrix(spec, [[e.entries[0] for e in row] for row in blocks])
    second = FieldMatrix(spec, [[e.entries[3] for e in row] for row in blocks])
    return first, second


def is_invertible_via_study(Z: CompMatrix) -> bool:
    return not study_det(Z).is_zero()


def is_invertible_via_flatten(Z: CompMatrix) -> bool:
    return not flatten_split(Z).det().is_zero()


def is_invertible(Z: CompMatrix) -> bool:
    """Invertibility over the algebra: nonzero Study determinant, or nonzero
    determinant of the flattening when the split 2x2 form is available."""
    if not Z.is_square():
        raise ShapeError("invertibility is defined for square matrices")
    if isinstance(Z.algebra, Mat2Algebra) or (
        isinstance(Z.algebra, QuatAlgebra) and Z.algebra.has_mat2_form()
    ):
        return is_invertible_via_flatten(Z)
    return is_invertible_via_study(Z)


def _skew_echelon(A: CompMatrix):
    """Left row reduction over a quaternion division algebra.

    Returns (work rows, pivot column -> pivot row).  Left row operations
    preserve the right null space.  A nonzero non-unit entry anywhere signals
    that the algebra is not a division ring.
    """
    if A.algebra.is_split_decision() == SPLIT:
        raise UnexpectedZeroDivisorError("skew elimination needs a division algebra")
    work = [list(row) for row in A.entries]
    nrows, ncols = A.m, A.n
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            e = work[r][col]
            if e.is_zero():
                continue
            if not e.is_unit():
                raise UnexpectedZeroDivisorError(f"nonzero non-unit entry {e!r}")
            pivot_row = r
            break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = work[rank][col].inverse()
        work[rank] = [inv * e for e in work[rank]]
        for r in range(nrows):
            if r != rank and not work[r][col].is_zero():
                factor = work[r][col]
                work[r] = [work[r][j] - factor * work[rank][j] for j in range(ncols)]
        pivot_of_col[col] = rank
        rank += 1
    return work, pivot_of_col


def skew_column_rank(A: CompMatrix) -> int:
    """Number of right-independent columns over a division quaternion algebra."""
    _, pivots = _skew_echelon(A)
    return len(pivots)


def skew_solve(A: CompMatrix):
    """Nonzero right-coefficient vector with (columns of A) . a = 0, or None.

    Deterministic: the first free column receives coefficient one, the result
    is normalized so its first nonzero coefficient is one, and substituting
    the output back into the system is checked before returning.
    """
    work, pivot_of_col = _skew_echelon(A)
    alg = A.algebra
    free = next((c for c in range(A.n) if c not in pivot_of_col), None)
    if free is None:
        return None
    sol = [alg.zero()] * A.n
    sol[free] = alg.one()
    for col, prow in pivot_of_col.items():
        sol[col] = -work[prow][free]
    first = next(c for c in sol if not c.is_zero())
    inv = first.inverse()
    sol = [c * inv for c in sol]
    for i in range(A.m):
        acc = alg.zero()
        for j in range(A.n):
            acc = acc + A.entries[i][j] * sol[j]
        if not acc.is_zero():
            raise AssertionError("skew elimination produced a bad kernel vector")
    return tuple(sol)
