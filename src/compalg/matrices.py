"""Dense exact matrices over field specs and over composition algebras.

`RingMatrix` holds an immutable m x n grid over one ring and defines shape
checks, equality, hashing, sums, products, `submatrix`, `zero` and
`identity` once.  `FieldMatrix` (over a field spec) adds coercion and
`det`; `CompMatrix` (over a composition algebra, a right module) adds
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
back-substitutes, into integers over one denominator, only for a caller that
asks: `field_echelon` over QQ and GF(p), behind H over k, `FieldMatrix.det`,
the split span trials of `rank`, `ratlin` and `IntMatrix.det`; `pair_echelon`
over k(sqrt(a)), behind H over k(sqrt(a)), `skew_solve` and `FieldMatrix.det`
over a quadratic field.  Over QQ both run Bareiss's elimination on rows packed
into one int each (`_pack`, a Kronecker substitution), and over GF(2) a row is
a bitset, so a row update is a few big-integer operations run in C.
The H of a minor is the block submatrix of H at its rows 2i, 2i+1 and
columns 2j, 2j+1, so `rank.comp_rank` builds H once.
"""

import operator
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import (AlgebraMismatchError, FieldMismatchError, Frozen, NotDiagonalError, NotSplitFormError, ShapeError,
                     UnexpectedZeroDivisorError)
from .fields import FieldSpec, PrimeField, QuadExt, RationalField, Scalar
from .quaternion import SPLIT, Mat2Algebra, Mat2Element, QuatAlgebra, mat2_to_quat, quat_to_mat2


class RingMatrix(Frozen):
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

    def det(self) -> Scalar:
        """Exact determinant by `field_echelon`, `pair_echelon` over a quadratic field, or
        over a split one (s^2 = a in k) as (d1 + d2)/2 + (d1 - d2)/(2s)*sqrt(a), d1 and
        d2 the determinants of the entries x + y*sqrt(a) sent to x + y*s and x - y*s."""
        if self.m != self.n:
            raise ShapeError("determinant needs a square matrix")
        spec = self.ring
        if not isinstance(spec, QuadExt):
            return Scalar(spec, field_echelon([[e.raw for e in row] for row in self.rows], spec)[1])
        if spec.split:
            k, s = spec.base, spec._sqrt_a
            d1, d2 = (field_echelon([[x + t * y for x, y in (e.raw for e in row)] for row in self.rows], k)[1] for t in (s, -s))
            return Scalar(spec, (k._mul(d1 + d2, k._inv(2)), k._mul(d1 - d2, k._inv(2 * s))))
        return Scalar(spec, pair_echelon([[e.raw for e in row] for row in self.rows], spec.base, spec.a)[1])


def field_echelon(rows, spec: FieldSpec):
    """(pivot columns, determinant or None, kernel) of raw QQ or GF(p) rows.

    A column's pivot is its first nonzero entry at or below the current row.
    Over GF(2) a row is one int, bit j for column j, and a lower row r with
    bit `col` set becomes r ^ top.  Over odd p a lower row r becomes
    r - (r[col] / pivot) * top, mod p, on lists.  Over QQ the rows are
    cleared of denominators and packed (`_pack`), and r becomes
    (r * pivot - r[col] * top) // prev on whole rows, prev the previous
    pivot (Bareiss), so every entry is a minor and the last pivot is the
    determinant up to sign.  Slots of w bits, 2^(w-1) above the Hadamard
    bound prod ||row||, hold every minor.  Invariant: every row at or below
    the current one is zero in each slot left of the current column, so the
    slot at `col` is the low w bits of v >> w*col, read with their sign.

    The determinant is given for square input, else None.  `kernel()`, run
    only by a caller that needs it, gives the first kernel vector x, 1 at the
    first non-pivot column c and 0 after it, as (y, d) with y = d*x, or None
    when every column is a pivot.  Mod p, d = 1 (over GF(2) y_i is the parity
    of row_i & y).  Over QQ, d is the leading c x c minor, so the back
    substitution on the c rows it unpacks is integral by Cramer's rule.
    """
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    if isinstance(spec, PrimeField):
        p, w, mask = spec.p, int(spec.p == 2), 1  # over GF(2) a row is packed in one-bit slots
        work = [] if w else [[x % p for x in row] for row in rows]
        for row in rows if w else ():
            v = 0
            for x in reversed(row):  # Horner's rule, as in `_pack`
                v = v << 1 | x & 1
            work.append(v)
    elif isinstance(spec, RationalField):
        p, scale, work, norms = 0, 1, [], 1
        for row in rows:
            if type(sq := sum(map(operator.mul, row, row))) is not int:  # a Fraction entry
                den = lcm(*(x.denominator for x in row))
                row = [x.numerator * (den // x.denominator) for x in row]
                sq, scale = sum(map(operator.mul, row, row)), scale * den
            work.append(row)
            norms *= sq or 1
        w, work = _pack(work, norms.bit_length())
        mask, half, prev = (1 << w) - 1, 1 << (w - 1), 1
    else:
        raise FieldMismatchError(f"field_echelon runs over QQ or GF(p), not {spec!r}")
    pivots, sign = [], 1
    for col in range(ncols):
        rank, s = len(pivots), w * col
        for r in range(rank, nrows):
            if work[r] >> s & mask if w else work[r][col]:
                break
        else:
            continue
        if r != rank:
            work[rank], work[r] = work[r], work[rank]
            sign = -sign
        top = work[rank]
        if p == 2:
            work[rank + 1 :] = [v ^ top if v >> col & 1 else v for v in work[rank + 1 :]]
        elif p:
            inv, tail = pow(top[col], -1, p), top[col + 1 :]
            for row in work[rank + 1 :]:
                if row[col]:
                    f = row[col] * inv % p
                    row[col + 1 :] = [(x - f * y) % p for x, y in zip(row[col + 1 :], tail)]
        else:
            pivot = (top >> s & mask ^ half) - half
            if rank + 1 < nrows:
                work[rank + 1 :] = [(v * pivot - ((v >> s & mask ^ half) - half) * top) // prev for v in work[rank + 1 :]]
            prev = pivot
        pivots.append(col)
    rank = len(pivots)

    def kernel():
        c = next((i for i, col in enumerate(pivots) if col != i), rank)
        if c == ncols:
            return None
        if p == 2:
            y = 1 << c
            for i in range(c - 1, -1, -1):
                y |= ((work[i] & y).bit_count() & 1) << i
            return [y >> j & 1 for j in range(ncols)], 1
        top = work[:c] if p else [_unpack(v, w, c + 1) for v in work[:c]]
        d = 1 if p or not c else top[c - 1][c - 1]
        y = [0] * c + [d]
        for i in range(c - 1, -1, -1):
            row = top[i]
            s = -sum(row[j] * y[j] for j in range(i + 1, c + 1))
            y[i] = s * pow(row[i], -1, p) % p if p else s // row[i]
        return y + [0] * (ncols - c - 1), d

    if nrows != ncols:
        return pivots, None, kernel
    if rank < ncols or p == 2:  # a full-rank GF(2) determinant is 1
        return pivots, int(rank == ncols) if p else Fraction(0), kernel
    return pivots, sign * prod(work[i][i] for i in range(rank)) % p if p else Fraction(sign * prev, scale) if scale > 1 else Fraction(sign * prev), kernel


def pair_echelon(rows, k: FieldSpec, a):
    """(pivot columns, determinant or None, kernel) of raw pairs (x, y) =
    x + y*sqrt(a) over the field k(sqrt(a)), pivoting as `field_echelon`.
    Bareiss: a lower row r becomes (pivot * r - r[col] * top) / q, q the
    previous pivot, as (c*pivot * r - c*r[col] * top) / n with c = conj(q) / e,
    n = N(q) / e and e = gcd(q_x, q_y): one exact division.  Over GF(p), on
    lists, c = conj(q) / N(q) and n = 1.  Over QQ, with a = A/D and
    g = D*sqrt(a), the rows are cleared of denominators in g, so entries are
    minors in Z[g], packed as in `field_echelon` in two ints, the x and y
    parts.  Both parts of a minor are at most its images in C, under the
    Hadamard bound from sum x^2 + |g^2|*y^2 per row, doubled if g^2 > 0.

    `kernel()`, run only by a caller that needs it, gives the first kernel
    vector as `field_echelon` does, pairs y = d*x and d = N(leading minor).
    """
    p, nrows, ncols = k.characteristic, len(rows), len(rows[0]) if rows else 0
    if p:
        N, D, scale, w = a % p, 1, 1, 0
        work = [([x % p for x, _ in row], [y % p for _, y in row]) for row in rows]
    else:
        a = Fraction(a)
        D, N, scale, work, norms = a.denominator, a.numerator * a.denominator, 1, [], 1
        for row in rows:
            xs, ys = zip(*row) if D == 1 else ([x for x, _ in row], [Fraction(y, D) for _, y in row])
            if type(sq := sum(map(operator.mul, xs, xs)) + abs(N) * sum(map(operator.mul, ys, ys))) is not int:
                den = lcm(*(v.denominator for v in (*xs, *ys)))
                xs, ys = ([v.numerator * (den // v.denominator) for v in vs] for vs in (xs, ys))
                sq, scale = sum(map(operator.mul, xs, xs)) + abs(N) * sum(map(operator.mul, ys, ys)), scale * den
            work += xs, ys
            norms *= sq or 1
        w, work = _pack(work, norms.bit_length() + (nrows if N > 0 else 0))
        work = list(zip(work[::2], work[1::2]))
        mask, half = (1 << w) - 1, 1 << (w - 1)
    pivots, sign, prev = [], 1, (1, 0)
    for col in range(ncols):
        rank, s = len(pivots), w * col
        fs = [(X[col], Y[col]) if p else ((X >> s & mask ^ half) - half, (Y >> s & mask ^ half) - half) for X, Y in work[rank:]]
        for r, (px, py) in enumerate(fs):
            if px or py:
                break
        else:
            continue
        if r:
            work[rank], work[rank + r], fs[r] = work[rank + r], work[rank], fs[0]
            sign = -sign
        (TX, TY), (qx, qy) = work[rank], prev
        nq = qx * qx - N * qy * qy
        e = pow(nq, -1, p) if p else gcd(qx, qy)
        cx, cy, n = (qx * e, -qy * e, 1) if p else (qx // e, -qy // e, nq // e)
        ax, ay = cx * px + N * cy * py, cx * py + cy * px  # c * pivot
        for i, (fx, fy) in enumerate(fs[1:], rank + 1):
            (X, Y), bx, by = work[i], cx * fx + N * cy * fy, cx * fy + cy * fx  # c * f
            if p:
                work[i] = ([(ax * u + N * ay * v - bx * s - N * by * t) % p for u, v, s, t in zip(X, Y, TX, TY)],
                           [(ay * u + ax * v - by * s - bx * t) % p for u, v, s, t in zip(X, Y, TX, TY)])
            else:
                work[i] = ((ax * X + N * ay * Y - bx * TX - N * by * TY) // n, (ay * X + ax * Y - by * TX - bx * TY) // n)
        prev = (px, py)
        pivots.append(col)

    def kernel():
        c = next((i for i, col in enumerate(pivots) if col != i), len(pivots))
        if c == ncols:
            return None
        top = work[:c] if p else [(_unpack(X, w, c + 1), _unpack(Y, w, c + 1)) for X, Y in work[:c]]
        dx, dy = (top[c - 1][0][c - 1], top[c - 1][1][c - 1]) if c and not p else (1, 0)
        y = [(0, 0)] * c + [(dx * dx - N * dy * dy, 0)]  # y = N(d)*x in Z[g], d the leading c x c minor
        for i in range(c - 1, -1, -1):
            xs, ys = top[i]
            later = list(enumerate(y[i + 1 :], i + 1))
            sx = -sum(xs[j] * u + N * ys[j] * v for j, (u, v) in later)
            sy = -sum(xs[j] * v + ys[j] * u for j, (u, v) in later)
            qx, qy = xs[i], ys[i]
            nq = qx * qx - N * qy * qy
            ex, ey = sx * qx - N * sy * qy, sy * qx - sx * qy  # s / q = s * conj(q) / N(q)
            y[i] = (ex * pow(nq, -1, p) % p, ey * pow(nq, -1, p) % p) if p else (ex // nq, ey // nq)
        y += [(0, 0)] * (ncols - c - 1)
        return (y, 1) if p else ([(u, v * D) for u, v in y], y[c][0])

    if nrows != ncols:
        return pivots, None, kernel
    x, y = (sign * prev[0], sign * prev[1] * D) if len(pivots) == ncols else (0, 0)
    return pivots, (x % p, y % p) if p else (Fraction(x, scale), Fraction(y, scale)), kernel


def _pack(rows, bits):
    """(w, rows as ints): entry c in the balanced w-bit slot at bit w*c, with
    2^(w-1) > B for every B (a bound on every minor) whose B^2 has `bits` bits."""
    w, out = (bits + 3) // 2, []
    for row in rows:
        v = 0
        for x in reversed(row):  # Horner's rule, faster than a sum of shifts for short rows
            v = (v << w) + x
        out.append(v)
    return w, out


def _unpack(v, w, count):
    """The first `count` entries of a packed row (`_pack`), lowest slot first."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    v += half * (((1 << w * count) - 1) // mask)  # entry + half in [0, 2^w) in each slot: no borrows
    return [(v >> w * c & mask) - half for c in range(count)]


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
    """The raw matrix that the raw cores take: the coordinate tuple of each entry,
    row by row, with an integral QQ value as an `int`: `num` when den = 1."""
    return tuple(tuple(e.num if e.den == 1 else tuple(v.numerator if v.denominator == 1 else v for v in e.coeffs)
                       for e in row) for row in Z.rows)


def _vanishes(acc, p) -> bool:
    return not any(v % p if p else v for row in acc for a in row for v in a)


def _combine_raw(algebra, family, ys):
    """D * sum family[i] . ys[i] for raw matrices and coefficients, unreduced,
    by the straight-line product x * y of each entry x, where D =
    `algebra._den` is 1 unless a or b is a non-integral rational."""
    mul, consts = algebra._family, algebra._consts
    acc = [[[0] * algebra.dim for _ in family[0][0]] for _ in family[0]]
    for Z, y in zip(family, ys):
        if any(y):
            for acc_row, row in zip(acc, Z):
                for a, x in zip(acc_row, row):
                    a[:] = map(operator.add, a, mul(x, y, *consts))
    return acc


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
    for row in blocks:
        for e in row:
            if e.coeffs[1] or e.coeffs[2]:
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
    """First right kernel vector of raw A over a division algebra D, or None,
    as `kernel()` gives one: 4n base-field coordinates, a_f = 1 at the first
    free D-column f and a_j = 0 after it.  Z*a = 0 puts the first column
    (x, -b*y) of the doubling matrix of a = x + v*y in the kernel of H over
    k(sqrt(a)) (`_half`), so the first kernel vector u of H (`pair_echelon`),
    1 at column 2f and 0 after it, gives x_j = u[2j] and y_j = -u[2j+1] / b
    = y0 + y1*sqrt(a), and v*y_j = y0*v - y1*w: over d*B for b = B/E."""
    if algebra.is_split_decision() == SPLIT:
        raise UnexpectedZeroDivisorError("skew elimination needs a division algebra")
    H, a = _half(algebra, rows)
    pivots, _, kernel = pair_echelon(H, algebra.field, a)
    _whole_pairs(pivots)
    u, (B, E) = kernel(), algebra.b.raw.as_integer_ratio()
    return None if u is None else ([c for (x0, x1), (y0, y1) in zip(u[0][::2], u[0][1::2]) for c in (x0 * B, x1 * B, -y0 * E, y1 * E)], u[1] * B)


def skew_column_rank(A: CompMatrix) -> int:
    """Number of right-independent columns over a division quaternion algebra (`_whole_pairs`)."""
    if A.ring.is_split_decision() == SPLIT:
        raise UnexpectedZeroDivisorError("skew elimination needs a division algebra")
    return _whole_pairs(_half_echelon(A.ring, *_half(A.ring, _raw(A)))[0])


def _skew_solve_raw(algebra, rows):
    """`skew_solve` on a raw matrix: (numerators, denominator), or None.

    With y the integer kernel vector and y_f its first nonzero block,
    a_t = y_t * conj(y_f) / N(y_f) (conjugation negates u, v and w).
    """
    kernel = _skew_kernel(algebra, rows)
    if kernel is None:
        return None
    y = kernel[0]
    blocks = [y[4 * j : 4 * j + 4] for j in range(len(rows[0]))]
    f = next(j for j, b in enumerate(blocks) if any(b))
    # the row of blocks times conj(y_f), times D; its entry f is D * N(y_f)
    (ys,) = _combine_raw(algebra, [(blocks,)], [[blocks[f][0]] + [-v for v in blocks[f][1:]]])
    if any(ys[f][1:]):
        raise AssertionError("norm has a nonreal component; structure table is broken")
    columns = [[(row[t],) for row in rows] for t in range(len(blocks))]
    if not _vanishes(_combine_raw(algebra, columns, ys), algebra.field.characteristic):
        raise AssertionError("skew elimination produced a bad kernel vector")
    return ys, ys[f][0]


def skew_solve(A: CompMatrix):
    """Nonzero right-coefficient vector with (columns of A) . a = 0, or None.

    The first free column gets coefficient one and later free columns zero,
    the first nonzero coefficient is then normalized to one, and the output
    is substituted back into the system before it is returned.
    """
    sol = _skew_solve_raw(A.ring, _raw(A))
    return None if sol is None else tuple(A.ring.element(y).scale(Fraction(1, sol[1])) for y in sol[0])
