"""Integer matrices: Smith normal form, split-exactness checks, and the
truncated model of the boundary sequence on the singular-matrix locus.

`smith_normal_form` returns (U, D, V) with U*A*V = D, U and V unimodular and
the diagonal divisibility chain d1 | d2 | ....  Every elementary operation of
the elimination is also applied, inverted, to U^-1 and V^-1, and before
returning the triple is certified in integers: D is checked to be diagonal
with d1 | d2 | ..., and U*A = D*V^-1, U*U^-1 = I and V*V^-1 = I are
verified.  A square integer matrix with an integer inverse is unimodular, so
no determinant is needed; V*V^-1 = I gives V^-1*V = I, so the first product
gives U*A*V = D*V^-1*V = D.  D*V^-1 is only the rows of V^-1 scaled by the
diagonal, and the products skip zero entries.  The certified triple, like
every product of two IntMatrix values, is wrapped without re-validating its
ints; the public constructor still checks each entry.  Pivots are chosen
deterministically (smallest nonzero absolute value, ties by position), so the
output is reproducible.

A signed partial permutation matrix (at most one nonzero in each row and each
column, every one +-1), such as both maps of the localization model, is not
eliminated.  The elimination would only swap each nonzero row and its column
into place and negate a -1 pivot, so the same U, D and V are written down
from the pivot positions.  They are certified without products: U is a signed
permutation matrix and V a permutation matrix, hence unimodular; each row of
U*A*V, a signed row of A with its entries picked in V's column order, equals
D's row; and D passes the same diagonal and divisibility check.  Its invariant
factors, a 1 for each nonzero row, and g*f = 0 for two such maps need no
triple and no product: one scan of each map gives them (`sequence_checks`).

`build_localization_model` realizes the rank bookkeeping of the boundary
sequence: the middle lattice is the character lattice truncated at |s| <=
s_max, the boundary matrix sends the i-th fundamental class to the basis
character t^(sign_i * i), and the quotient map projects onto the characters
missed by the boundary.  The conclusion (injective boundary, torsion-free
cokernel, split sequence, middle rank 2*s_max) is read off one scan of each
map (see `sequence_checks`) and is independent of the sign choices, which
the sequence leaves free.
"""

from itertools import compress
from operator import itemgetter, neg

from .errors import Frozen, Report, ShapeError, TruncationError


def _mul_rows(a, b, width):
    """Rows of the product a*b (b has `width` columns), skipping zero entries."""
    cols, ks = range(len(b[0])), range(len(b))
    b_support = [[(j, row[j]) for j in compress(cols, row)] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for k in compress(ks, row):
            x = row[k]
            for j, y in b_support[k]:
                acc[j] += x * y
        out.append(acc)
    return out


def _identity_rows(n):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


class IntMatrix(Frozen):
    """Immutable matrix of arbitrary-precision integers; entries must be `int` (bool excluded)."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(row) for row in rows)
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                if type(e) is not int:
                    raise ValueError(f"IntMatrix entry [{i}][{j}] is {e!r}, not an int")
        if not rows or not rows[0]:
            raise ShapeError("dimensions must be positive")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "n", width)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, rows, m: int, n: int) -> "IntMatrix":
        """An m x n matrix of rows already known to hold only ints: no entry is re-checked."""
        out = object.__new__(cls)
        object.__setattr__(out, "m", m)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "rows", tuple(map(tuple, rows)))
        return out

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(_identity_rows(n))

    @classmethod
    def zero(cls, m: int, n: int) -> "IntMatrix":
        return cls([[0] * n for _ in range(m)])

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and other.rows == self.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.n != other.m:
            raise ShapeError(f"cannot multiply {self.m}x{self.n} by {other.m}x{other.n}")
        return IntMatrix._trusted(_mul_rows(self.rows, other.rows, other.n), self.m, other.n)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def det(self) -> int:
        """Determinant of a square matrix: `field_echelon` over QQ, which runs
        fraction-free (Bareiss) on integer rows."""
        from .fields import QQ
        from .matrices import field_echelon

        if self.m != self.n:
            raise ShapeError("determinant needs a square matrix")
        return field_echelon(self.rows, QQ)[1].numerator


def smith_normal_form(A: IntMatrix):
    """(U, D, V) with U*A*V = D diagonal, d1 | d2 | ..., U and V unimodular:
    written down from the pivots of a signed partial permutation matrix, and
    by elimination for any other (see the module docstring)."""
    m, n = A.m, A.n
    triple = _permutation_triple(A.rows, m, n)
    if triple is None:
        triple = _eliminate(A.rows, m, n)
    else:
        _certify_permutation(A.rows, *triple)
    u, d, v = triple
    return IntMatrix._trusted(u, m, m), IntMatrix._trusted(d, m, n), IntMatrix._trusted(v, n, n)


def _unit_entries(rows, width):
    """(column, value) of the one nonzero of each row, None for a zero row;
    None in place of the list, at the first row that fails, unless every
    nonzero is +-1 and no two rows share a column."""
    out, seen, cols = [], set(), range(width)
    for row in rows:
        zeros = row.count(0)
        if zeros == width:
            out.append(None)
            continue
        if zeros != width - 1:
            return None
        j = next(compress(cols, row))
        if row[j] not in (1, -1) or j in seen:
            return None
        seen.add(j)
        out.append((j, row[j]))
    return out


def _permutation_triple(a, m, n):
    """The elimination's (U, D, V) for a signed partial permutation matrix, or
    None for any other matrix.

    On such a matrix the elimination's pivot rule picks, at step t, the first
    nonzero row at or below t.  Its swaps move only zero rows down, so the
    t-th pivot is the t-th nonzero row of A in its original place: swap it to
    row t, swap its column to column t, negate the row on a -1 pivot.  No
    entry off the pivots changes, so nothing is cleared or folded.
    """
    entries = _unit_entries(a, n)
    if entries is None:
        return None
    rows, cols = list(range(m)), list(range(n))
    where = list(range(n))  # where[c]: current position of A's column c
    signs = []
    for i, entry in enumerate(entries):
        if entry is None:
            continue
        t, (c, x) = len(signs), entry
        rows[t], rows[i] = rows[i], rows[t]
        k = where[c]
        cols[t], cols[k] = cols[k], cols[t]
        where[cols[k]], where[c] = k, t
        signs.append(x)
    rank = len(signs)
    plus, minus, e = _units(m, 1), _units(m, -1), _units(n, 1)
    u = [(plus if x == 1 else minus)(r) for r, x in zip(rows, signs + [1] * (m - rank))]
    d = [e(t) for t in range(rank)] + [(0,) * n] * (m - rank)
    return u, d, [e(k) for k in where]


def _units(width, x):
    """j -> x times the j-th unit row of length `width`, each a slice of one tuple."""
    line = (0,) * (width - 1) + (x,) + (0,) * (width - 1)
    return lambda j: line[width - 1 - j : 2 * width - 1 - j]


def _certify_permutation(a, u, d, v):
    """Raise AssertionError unless D is diagonal with d1 | d2 | ..., U is a
    signed permutation matrix, V a permutation matrix, and U*A*V = D.

    Both transforms are unimodular by their shape.  Row t of U*A*V is s times
    row r of A, where U's row t holds s in column r, with its entries taken in
    the order V's columns pick them; it is compared with D's row t directly.
    """
    m, n = len(u), len(v)
    _check_diagonal(d, m, n)
    u_entries, v_entries = _unit_entries(u, m), _unit_entries(v, n)
    if u_entries is None or v_entries is None or None in u_entries or None in v_entries or any(
        x != 1 for _, x in v_entries
    ):
        raise AssertionError("transformation matrices are not unimodular")
    cols = [0] * n  # column k of V picks A's column cols[k]
    for c, (k, _) in enumerate(v_entries):
        cols[k] = c
    pick = itemgetter(*cols) if n > 1 else itemgetter(slice(1))  # one column: a 1-tuple
    for (r, s), row in zip(u_entries, d):
        if pick(a[r]) != (tuple(row) if s == 1 else tuple(map(neg, row))):
            raise AssertionError("normal form factorization failed")


def _eliminate(a, m, n):
    """(U, D, V) by elimination, certified by `_certify`.

    Deterministic pivoting: the entry of smallest nonzero absolute value in
    the remaining submatrix, earliest position winning ties.  Each row
    operation on U is mirrored, inverted, as a column operation on U^-1, and
    each column operation on V as a row operation on V^-1.  Once pivot t-1 is
    done, rows and columns of D before t are zero off the diagonal, so column
    operations on D touch only rows t and below.  Before returning, D is
    checked to be diagonal with d1 | d2 | ..., and U*A = D*V^-1, U*U^-1 = I
    and V*V^-1 = I are verified in integers (see the module docstring).
    """
    d = [list(row) for row in a]
    # the transforms start as identities sharing its rows, which no operation
    # writes into; u_inv_t[k] is column k of U^-1 and v_t[k] column k of V, so
    # their column operations are row operations
    eye_m, eye_n = _identity_rows(m), _identity_rows(n)
    u, u_inv_t, v_t, v_inv = list(eye_m), list(eye_m), list(eye_n), list(eye_n)

    def add_row(src, dst, q):
        # row dst += q * row src; inverse: column src of U^-1 -= q * column dst
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        u_inv_t[src] = [x - q * y for x, y in zip(u_inv_t[src], u_inv_t[dst])]

    def add_col(t, dst, q):
        # column dst += q * column t; inverse: row t of V^-1 -= q * row dst
        for row in d[t:]:
            row[dst] += q * row[t]
        v_t[dst] = [x + q * y for x, y in zip(v_t[dst], v_t[t])]
        v_inv[t] = [x - q * y for x, y in zip(v_inv[t], v_inv[dst])]

    def find_pivot(t):
        # a unit is the least possible, so the first one found wins
        best, least = None, 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        return best
        return best

    t = 0
    while t < min(m, n):
        pivot = find_pivot(t)
        if pivot is None:
            break
        while True:
            i, j = pivot
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
            u_inv_t[t], u_inv_t[i] = u_inv_t[i], u_inv_t[t]
            if j != t:
                for row in d[t:]:
                    row[t], row[j] = row[j], row[t]
                v_t[t], v_t[j] = v_t[j], v_t[t]
                v_inv[t], v_inv[j] = v_inv[j], v_inv[t]
            if d[t][t] < 0:
                d[t], u[t], u_inv_t[t] = [[-x for x in r] for r in (d[t], u[t], u_inv_t[t])]
            # a row operation changes only its own row, and a column operation
            # only its own column, so the positions to clear are known up front
            p, dirty = d[t][t], False
            for i in [i for i in range(t + 1, m) if d[i][t]]:
                add_row(t, i, -(d[i][t] // p))
                dirty = dirty or d[i][t] != 0
            row = d[t]
            for j in [j for j in range(t + 1, n) if row[j]]:
                add_col(t, j, -(row[j] // p))
                dirty = dirty or row[j] != 0
            if not dirty:
                break
            pivot = find_pivot(t)
        # enforce the divisibility chain: fold in any entry the pivot misses
        # (a unit pivot divides every entry)
        if p != 1:
            offender = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None)
            if offender is not None:
                add_row(offender, t, 1)
                continue
        t += 1

    v = [list(col) for col in zip(*v_t)]
    _certify(a, u, [list(col) for col in zip(*u_inv_t)], d, v, v_inv, eye_m, eye_n)
    return u, d, v


def _check_diagonal(d, m, n):
    """Raise AssertionError unless D is diagonal with d1 | d2 | ...; return its diagonal."""
    diag = [d[i][i] for i in range(min(m, n))]
    if (
        # a row is zero off the diagonal when its zeros number n, less one for a nonzero d_i
        any(row.count(0) != n - (i < n and row[i] != 0) for i, row in enumerate(d))
        or any(x < 0 for x in diag)
        or any(y % x if x else y for x, y in zip(diag, diag[1:]))
    ):
        raise AssertionError("D is not diagonal with d1 | d2 | ...")
    return diag


def _certify(a, u, u_inv, d, v, v_inv, eye_m, eye_n):
    """Raise AssertionError unless D is diagonal with d1 | d2 | ..., U*A = D*V^-1,
    U*U^-1 = eye_m and V*V^-1 = eye_n."""
    m, n = len(d), len(v)
    diag = _check_diagonal(d, m, n)
    # D*V^-1 is the rows of V^-1 scaled by the diagonal, and zero below it
    d_v_inv = [[x * y for y in row] for x, row in zip(diag, v_inv)] + [[0] * n] * (m - len(diag))
    if _mul_rows(u, a, n) != d_v_inv:
        raise AssertionError("normal form factorization failed")
    if _mul_rows(u, u_inv, m) != eye_m or _mul_rows(v, v_inv, n) != eye_n:
        raise AssertionError("transformation matrices are not unimodular")


def diagonal_factors(D: IntMatrix) -> tuple[int, ...]:
    """The nonzero diagonal entries of a Smith form D: its invariant factors."""
    return tuple(D.rows[i][i] for i in range(min(D.m, D.n)) if D.rows[i][i] != 0)


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    return _invariant_factors(A, _unit_entries(A.rows, A.n))


def _invariant_factors(A, entries):
    """Given `_unit_entries` of A's rows: a 1 for each nonzero row of a signed
    partial permutation matrix, else the diagonal of A's Smith form."""
    if entries is None:
        return diagonal_factors(smith_normal_form(A)[1])
    return (1,) * (len(entries) - entries.count(None))


class SequenceChecks(Report):
    """The four verdicts of `sequence_checks`."""

    def all_true(self) -> bool:
        return self.injective_f and self.exact_middle and self.surjective_g and self.splits


def sequence_checks(f: IntMatrix, g: IntMatrix) -> SequenceChecks:
    """Verdicts for 0 -> Z^a --f--> Z^b --g--> Z^c -> 0 given as matrices,
    read off the invariant factors of f and g and whether g*f = 0 alone.

    injective_f:  rank f = a.
    exact_middle: g*f = 0, rank f + rank g = b and the cokernel of f is
                  torsion-free.  With g*f = 0, im f lies in ker g, which is
                  saturated in Z^b (Z^b / ker g embeds in Z^c) of rank
                  b - rank g; so the two are equal exactly when im f has that
                  rank and is saturated too.
    surjective_g: g hits all of Z^c (full rank, all invariant factors 1).
    splits:       the cokernel of f is torsion-free (invariant factors of f
                  all 1), so the sequence admits a section when exact.
    """
    if g.n != f.m:
        raise ShapeError("g's domain must be f's codomain")
    units_f, units_g = _unit_entries(f.rows, f.n), _unit_entries(g.rows, g.n)
    facs_f, facs_g = _invariant_factors(f, units_f), _invariant_factors(g, units_g)
    inj = len(facs_f) == f.n
    surj = len(facs_g) == g.m and all(x == 1 for x in facs_g)
    splits = all(x == 1 for x in facs_f)
    if units_f is None or units_g is None:
        composite_zero = (g * f).is_zero()
    else:  # row i of g*f is x times row c of f, where g's row i holds x in column c
        composite_zero = all(units_f[e[0]] is None for e in units_g if e is not None)
    exact = composite_zero and len(facs_f) + len(facs_g) == f.m and splits
    return SequenceChecks(injective_f=inj, exact_middle=exact, surjective_g=surj, splits=splits)


class LocalizationModel(Report):
    """The truncated boundary sequence of `build_localization_model` and its checks."""

    def verdict(self) -> dict:
        return {
            "delta_injective": self.checks.injective_f,
            "cokernel_torsion_free": self.checks.splits,
            "exact_middle": self.checks.exact_middle,
            "surjective_quotient": self.checks.surjective_g,
            "splits": self.checks.all_true(),
            "middle_rank": self.middle_rank,
        }


def build_localization_model(n: int, s_max: int, signs) -> LocalizationModel:
    """Truncated boundary sequence for size parameter n.

    The 2n-1 fundamental classes map to the pairwise distinct characters
    t^(sign_i * i); truncation at s_max >= 2n-1 keeps every map finitely
    supported, and enlarging s_max only pads the quotient with free summands.
    Sign choices are a free parameter; the Smith data is identical for all of
    them, which the test suite checks.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    count = 2 * n - 1
    signs = tuple(int(s) for s in signs)
    if len(signs) != count:
        raise ValueError(f"need {count} signs")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    if s_max < count:
        raise TruncationError(f"s_max must be at least {count}")
    characters = tuple(list(range(1, s_max + 1)) + list(range(-1, -s_max - 1, -1)))
    size = len(characters)
    # the class i hits t^(i+1), at index i, or t^-(i+1), at index s_max + i
    column = {i if s == 1 else s_max + i: i for i, s in enumerate(signs)}
    class_unit, zero = _units(count, 1), (0,) * count
    boundary = IntMatrix._trusted([class_unit(column[r]) if r in column else zero for r in range(size)], size, count)
    character_unit = _units(size, 1)
    missed = [character_unit(r) for r in range(size) if r not in column]
    projection = IntMatrix._trusted(missed, len(missed), size)
    checks = sequence_checks(boundary, projection)
    if not checks.all_true():
        raise AssertionError("the localization model must form a split short exact sequence")
    return LocalizationModel(n=n, s_max=s_max, signs=signs, characters=characters, boundary=boundary,
                             projection=projection, checks=checks, middle_rank=size)
