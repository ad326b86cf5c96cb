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
diagonal, and the products skip zero entries, which makes the check cheap on
the sparse 0/1 injections and projections of the localization model.  The
certified triple, like every product of two IntMatrix values, is wrapped
without re-validating its ints; the public constructor still checks each
entry.  Pivots are chosen deterministically (smallest nonzero absolute value,
ties by position), so the output is reproducible.

`build_localization_model` realizes the rank bookkeeping of the boundary
sequence: the middle lattice is the character lattice truncated at |s| <=
s_max, the boundary matrix sends the i-th fundamental class to the basis
character t^(sign_i * i), and the quotient map projects onto the characters
missed by the boundary.  The conclusion (injective boundary, torsion-free
cokernel, split sequence, middle rank 2*s_max) is read off the Smith forms
of the two maps (see `sequence_checks`) and is independent of the sign
choices, which the sequence leaves free.
"""

from itertools import compress

from .errors import ShapeError, TruncationError


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


class IntMatrix:
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

    def __setattr__(self, *_):
        raise AttributeError("IntMatrix is immutable")

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
    """(U, D, V) with U*A*V = D diagonal, d1 | d2 | ..., U and V unimodular.

    Deterministic pivoting: the entry of smallest nonzero absolute value in
    the remaining submatrix, earliest position winning ties.  Each row
    operation on U is mirrored, inverted, as a column operation on U^-1, and
    each column operation on V as a row operation on V^-1.  Once pivot t-1 is
    done, rows and columns of D before t are zero off the diagonal, so column
    operations on D touch only rows t and below.  Before returning, D is
    checked to be diagonal with d1 | d2 | ..., and U*A = D*V^-1, U*U^-1 = I
    and V*V^-1 = I are verified in integers (see the module docstring).
    """
    m, n = A.m, A.n
    d = [list(row) for row in A.rows]
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
    _certify(A.rows, u, [list(col) for col in zip(*u_inv_t)], d, v, v_inv, eye_m, eye_n)
    return IntMatrix._trusted(u, m, m), IntMatrix._trusted(d, m, n), IntMatrix._trusted(v, n, n)


def _certify(a, u, u_inv, d, v, v_inv, eye_m, eye_n):
    """Raise AssertionError unless D is diagonal with d1 | d2 | ..., U*A = D*V^-1,
    U*U^-1 = eye_m and V*V^-1 = eye_n."""
    m, n = len(d), len(v)
    diag = [d[i][i] for i in range(min(m, n))]
    if (
        any(any(row[:i]) or any(row[i + 1 :]) for i, row in enumerate(d))
        or any(x < 0 for x in diag)
        or any(y % x if x else y for x, y in zip(diag, diag[1:]))
    ):
        raise AssertionError("D is not diagonal with d1 | d2 | ...")
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
    return diagonal_factors(smith_normal_form(A)[1])


def rank(A: IntMatrix) -> int:
    return len(invariant_factors(A))


class SequenceChecks:
    """The four verdicts of `sequence_checks`."""

    def __init__(self, injective_f: bool, exact_middle: bool, surjective_g: bool, splits: bool):
        self.injective_f, self.exact_middle = injective_f, exact_middle
        self.surjective_g, self.splits = surjective_g, splits

    def all_true(self) -> bool:
        return self.injective_f and self.exact_middle and self.surjective_g and self.splits

    def to_json(self):
        return {k: getattr(self, k) for k in ("injective_f", "exact_middle", "surjective_g", "splits")}


def sequence_checks(f: IntMatrix, g: IntMatrix) -> SequenceChecks:
    """Verdicts for 0 -> Z^a --f--> Z^b --g--> Z^c -> 0 given as matrices,
    read off the Smith forms of f and g alone.

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
    facs_f = invariant_factors(f)
    facs_g = invariant_factors(g)
    inj = len(facs_f) == f.n
    surj = len(facs_g) == g.m and all(x == 1 for x in facs_g)
    splits = all(x == 1 for x in facs_f)
    exact = (g * f).is_zero() and len(facs_f) + len(facs_g) == f.m and splits
    return SequenceChecks(inj, exact, surj, splits)


class LocalizationModel:
    """The truncated boundary sequence of `build_localization_model` and its checks."""

    def __init__(self, n, s_max, signs, characters, boundary, projection, checks, middle_rank):
        self.n, self.s_max, self.signs, self.characters = n, s_max, signs, characters
        self.boundary, self.projection, self.checks = boundary, projection, checks
        self.middle_rank = middle_rank

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
    count = 2 * n - 1
    signs = tuple(int(s) for s in signs)
    if len(signs) != count:
        raise ValueError(f"need {count} signs")
    if any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +1 or -1")
    if s_max < count:
        raise TruncationError(f"s_max must be at least {count}")
    characters = tuple(list(range(1, s_max + 1)) + list(range(-1, -s_max - 1, -1)))
    index_of = {s: i for i, s in enumerate(characters)}
    boundary = [[0] * count for _ in characters]
    for i in range(count):
        boundary[index_of[signs[i] * (i + 1)]][i] = 1
    boundary = IntMatrix._trusted(boundary, len(characters), count)
    hit = {index_of[signs[i] * (i + 1)] for i in range(count)}
    missed = [r for r in range(len(characters)) if r not in hit]
    identity = _identity_rows(len(characters))
    projection = IntMatrix._trusted([identity[r] for r in missed], len(missed), len(characters))
    checks = sequence_checks(boundary, projection)
    if not checks.all_true():
        raise AssertionError("the localization model must form a split short exact sequence")
    return LocalizationModel(n, s_max, signs, characters, boundary, projection, checks, len(characters))
