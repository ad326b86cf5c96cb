"""Integer matrices: Smith normal form, split-exactness checks, and the
truncated model of the boundary sequence on the singular-matrix locus.

`smith_normal_form` returns (U, D, V) with U*A*V = D, U and V unimodular and
the diagonal divisibility chain d1 | d2 | ....  Every elementary operation of
the elimination is also applied, inverted, to U^-1 and V^-1, and before
returning the triple is certified in integers: U*A*V = D, U*U^-1 = I and
V*V^-1 = I.  A square integer matrix with an integer inverse is unimodular,
so no determinant is needed.  The products skip zero entries, which makes
the check cheap on the sparse 0/1 injections and projections of the
localization model.  Pivots are chosen deterministically (smallest nonzero
absolute value, ties by position), so the output is reproducible.

`build_localization_model` realizes the rank bookkeeping of the boundary
sequence: the middle lattice is the character lattice truncated at |s| <=
s_max, the boundary matrix sends the i-th fundamental class to the basis
character t^(sign_i * i), and the quotient map projects onto the characters
missed by the boundary.  The conclusion (injective boundary, torsion-free
cokernel, split sequence, middle rank 2*s_max) is read off the Smith forms
of the two maps (see `sequence_checks`) and is independent of the sign
choices, which the sequence leaves free.
"""

from dataclasses import dataclass

from .errors import ShapeError, TruncationError
from .fields import QQ
from .matrices import field_echelon


def _mul_rows(a, b, width):
    """Rows of the product a*b (b has `width` columns), skipping zero entries."""
    b_support = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for k, x in enumerate(row):
            if x:
                for j, y in b_support[k]:
                    acc[j] += x * y
        out.append(acc)
    return out


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _is_identity(rows) -> bool:
    return all(x == (1 if i == j else 0) for i, row in enumerate(rows) for j, x in enumerate(row))


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
        return IntMatrix(_mul_rows(self.rows, other.rows, other.n))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(list(zip(*self.rows)))

    def is_zero(self) -> bool:
        return all(e == 0 for row in self.rows for e in row)

    def det(self) -> int:
        """Determinant of a square matrix: `field_echelon` over QQ, which runs
        fraction-free (Bareiss) on integer rows."""
        if self.m != self.n:
            raise ShapeError("determinant needs a square matrix")
        return field_echelon(self.rows, QQ)[2].numerator


def smith_normal_form(A: IntMatrix):
    """(U, D, V) with U*A*V = D diagonal, d1 | d2 | ..., U and V unimodular.

    Deterministic pivoting: the entry of smallest nonzero absolute value in
    the remaining submatrix, earliest position winning ties.  Each row
    operation on U is mirrored, inverted, as a column operation on U^-1, and
    each column operation on V as a row operation on V^-1.  Before returning,
    U*A*V = D, U*U^-1 = I and V*V^-1 = I are verified in integers; the last
    two prove U and V unimodular.
    """
    m, n = A.m, A.n
    d = [list(row) for row in A.rows]
    u, v = _identity_rows(m), _identity_rows(n)
    # u_inv_t[k] is column k of U^-1, so its column operations are row operations
    u_inv_t, v_inv = _identity_rows(m), _identity_rows(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        u_inv_t[i], u_inv_t[j] = u_inv_t[j], u_inv_t[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, q):
        # row dst += q * row src; inverse: column src of U^-1 -= q * column dst
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]
        u_inv_t[src] = [x - q * y for x, y in zip(u_inv_t[src], u_inv_t[dst])]

    def add_col(src, dst, q):
        # column dst += q * column src; inverse: row src of V^-1 -= q * row dst
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        v_inv[src] = [x - q * y for x, y in zip(v_inv[src], v_inv[dst])]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        u_inv_t[i] = [-x for x in u_inv_t[i]]

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
            swap_rows(t, pivot[0])
            swap_cols(t, pivot[1])
            if d[t][t] < 0:
                negate_row(t)
            dirty = False
            for i in range(m):
                if i != t and d[i][t] != 0:
                    add_row(t, i, -(d[i][t] // d[t][t]))
                    dirty = dirty or d[i][t] != 0
            for j in range(n):
                if j != t and d[t][j] != 0:
                    add_col(t, j, -(d[t][j] // d[t][t]))
                    dirty = dirty or d[t][j] != 0
            if not dirty and all(d[i][t] == 0 for i in range(m) if i != t) and all(
                d[t][j] == 0 for j in range(n) if j != t
            ):
                break
            pivot = find_pivot(t)
        # enforce the divisibility chain: fold in any entry the pivot misses
        offender = None
        if d[t][t] != 1:  # a unit pivot divides every entry
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    if _mul_rows(_mul_rows(u, A.rows, n), v, n) != d:
        raise AssertionError("normal form factorization failed")
    u_inv = [list(col) for col in zip(*u_inv_t)]
    if not (_is_identity(_mul_rows(u, u_inv, m)) and _is_identity(_mul_rows(v, v_inv, n))):
        raise AssertionError("transformation matrices are not unimodular")
    return IntMatrix(u), IntMatrix(d), IntMatrix(v)


def diagonal_factors(D: IntMatrix) -> tuple[int, ...]:
    """The nonzero diagonal entries of a Smith form D: its invariant factors."""
    return tuple(D.rows[i][i] for i in range(min(D.m, D.n)) if D.rows[i][i] != 0)


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    return diagonal_factors(smith_normal_form(A)[1])


def rank(A: IntMatrix) -> int:
    return len(invariant_factors(A))


@dataclass
class SequenceChecks:
    injective_f: bool
    exact_middle: bool
    surjective_g: bool
    splits: bool

    def all_true(self) -> bool:
        return self.injective_f and self.exact_middle and self.surjective_g and self.splits

    def to_json(self):
        return {
            "injective_f": self.injective_f,
            "exact_middle": self.exact_middle,
            "surjective_g": self.surjective_g,
            "splits": self.splits,
        }


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


@dataclass
class LocalizationModel:
    n: int
    s_max: int
    signs: tuple[int, ...]
    characters: tuple[int, ...]
    boundary: IntMatrix
    projection: IntMatrix
    checks: SequenceChecks
    middle_rank: int

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
    boundary = IntMatrix(boundary)
    hit = {index_of[signs[i] * (i + 1)] for i in range(count)}
    missed = [r for r in range(len(characters)) if r not in hit]
    projection = IntMatrix(
        [[1 if c == r else 0 for c in range(len(characters))] for r in missed]
    )
    checks = sequence_checks(boundary, projection)
    if not checks.all_true():
        raise AssertionError("the localization model must form a split short exact sequence")
    return LocalizationModel(
        n=n,
        s_max=s_max,
        signs=signs,
        characters=characters,
        boundary=boundary,
        projection=projection,
        checks=checks,
        middle_rank=len(characters),
    )
