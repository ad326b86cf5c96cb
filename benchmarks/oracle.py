"""Independent exact arithmetic for generating inputs and checking outputs.

Nothing here imports compalg: every check recomputes its answer from first
principles (Hilbert symbols, plain Fraction or mod-p elimination, Bareiss
determinants, bitmask blade products), so a wrong library answer cannot
hide behind the same code path that produced it.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, gcd

_MASK = (1 << 64) - 1


class SplitMix64:
    """The splitmix64 stream; the benchmark's only source of randomness."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]
        return items

    def fork(self, *salt: int) -> "SplitMix64":
        value = self.next_u64()
        for s in salt:
            value = SplitMix64(value ^ (s & _MASK)).next_u64()
        return SplitMix64(value)


# ---------------------------------------------------------------- primes, symbols


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: SplitMix64, lo: int, hi: int) -> int:
    while True:
        n = rng.randint(lo, hi) | 1
        if lo <= n <= hi and is_prime(n):
            return n


def legendre(a: int, p: int) -> int:
    """1, -1 or 0 for an odd prime p (Euler's criterion)."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _prime_factors(n: int) -> set:
    n = abs(n)
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def _valuation(n: int, p: int):
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k, n


def _square_class(x) -> int:
    """An integer in the same square class as the nonzero rational x."""
    x = Fraction(x)
    return x.numerator * x.denominator


def hilbert_symbol(a, b, p) -> int:
    """(a,b)_p for nonzero rationals; p is a prime or the string 'inf'."""
    a, b = _square_class(a), _square_class(b)
    if p == "inf":
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _valuation(a, p)
    beta, v = _valuation(b, p)
    if p == 2:
        eps = lambda t: ((t - 1) // 2) % 2
        omega = lambda t: ((t * t - 1) // 8) % 2
        e = (eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)) % 2
        return -1 if e else 1
    e = (alpha * beta * ((p - 1) // 2)) % 2
    sign = -1 if e else 1
    return sign * legendre(u, p) ** beta * legendre(v, p) ** alpha


def ramified_places(a, b) -> list:
    """Places where the quaternion algebra (a,b) over QQ does not split."""
    ia, ib = _square_class(a), _square_class(b)
    places = sorted(_prime_factors(2 * ia * ib))
    out = [p for p in places if hilbert_symbol(ia, ib, p) == -1]
    if hilbert_symbol(ia, ib, "inf") == -1:
        out.append("inf")
    return out


def qq_is_split(a, b) -> bool:
    return not ramified_places(a, b)


# ---------------------------------------------------------------- scalar rings


class QQOps:
    zero, one = Fraction(0), Fraction(1)

    @staticmethod
    def coerce(x):
        return Fraction(x)

    @staticmethod
    def inv(x):
        return 1 / x


class FpOps:
    def __init__(self, p: int):
        self.p = p
        self.zero, self.one = 0, 1

    def coerce(self, x):
        x = Fraction(x)
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def inv(self, x):
        return pow(x, -1, self.p)


def ops_for(p):
    return QQOps() if p is None else FpOps(p)


def _reduce(ops, x):
    return x % ops.p if isinstance(ops, FpOps) else x


def rank_and_det(ops, rows):
    """(rank, det) by Gaussian elimination; det is only meaningful when square."""
    work = [[ops.coerce(x) for x in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    rank, det = 0, ops.one
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if work[r][col] != 0), None)
        if pivot is None:
            det = ops.zero
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            det = -det
        head = work[rank][col]
        det = _reduce(ops, det * head)
        inv = ops.inv(head)
        for r in range(rank + 1, nrows):
            factor = work[r][col]
            if factor != 0:
                factor = _reduce(ops, factor * inv)
                work[r] = [_reduce(ops, x - factor * y) for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank, _reduce(ops, det)


# ---------------------------------------------------------------- quaternion algebras


def quat_mul(ops, a, b, x, y):
    """Product in (a,b): u^2 = a, v^2 = b, w = uv = -vu."""
    x0, x1, x2, x3 = x
    y0, y1, y2, y3 = y
    ab = a * b
    out = (
        x0 * y0 + a * x1 * y1 + b * x2 * y2 - ab * x3 * y3,
        x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
        x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
        x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
    )
    return tuple(_reduce(ops, c) for c in out)


def quat_norm(ops, a, b, x):
    x0, x1, x2, x3 = x
    return _reduce(ops, x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3)


def mat2_mul(ops, x, y):
    a00, a01, a10, a11 = x
    b00, b01, b10, b11 = y
    out = (
        a00 * b00 + a01 * b10,
        a00 * b01 + a01 * b11,
        a10 * b00 + a11 * b10,
        a10 * b01 + a11 * b11,
    )
    return tuple(_reduce(ops, c) for c in out)


class Algebra:
    """Raw-coefficient arithmetic for (a,b) (params given) or literal 2x2 matrices."""

    def __init__(self, p=None, params=None):
        self.ops = ops_for(p)
        self.params = None if params is None else tuple(self.ops.coerce(t) for t in params)

    def mul(self, x, y):
        if self.params is None:
            return mat2_mul(self.ops, x, y)
        return quat_mul(self.ops, *self.params, x, y)

    def add(self, x, y):
        return tuple(_reduce(self.ops, s + t) for s, t in zip(x, y))

    def matmul(self, A, B):
        zero = (self.ops.zero,) * 4
        out = []
        for row in A:
            new = []
            for j in range(len(B[0])):
                acc = zero
                for k, x in enumerate(row):
                    acc = self.add(acc, self.mul(x, B[k][j]))
                new.append(acc)
            out.append(new)
        return out

    def left_rep(self, Z):
        """The 4n x 4n base-field matrix of X -> Z X on column vectors over the algebra."""
        n_rows, n_cols = len(Z), len(Z[0])
        basis = [tuple(self.ops.one if i == k else self.ops.zero for i in range(4)) for k in range(4)]
        out = [[self.ops.zero] * (4 * n_cols) for _ in range(4 * n_rows)]
        for i in range(n_rows):
            for j in range(n_cols):
                for k, e in enumerate(basis):
                    col = self.mul(Z[i][j], e)
                    for r in range(4):
                        out[4 * i + r][4 * j + k] = col[r]
        return out

    def rank(self, Z) -> int:
        """Rank over a division algebra (dimension of the image over the base / 4)."""
        r, _ = rank_and_det(self.ops, self.left_rep(Z))
        return r // 4

    def flat_rank(self, Z) -> int:
        """Base-field rank of the left representation; twice the flattened rank if split."""
        r, _ = rank_and_det(self.ops, self.left_rep(Z))
        return r // 2

    def study_det(self, Z):
        """Determinant of the left representation, which equals d * conj(d)."""
        _, det = rank_and_det(self.ops, self.left_rep(Z))
        return det

    def comp_rank(self, Z) -> int:
        """Largest k with a k x k submatrix of nonzero study_det, searched top down.

        An invertible k x k submatrix has a left representation of rank 4k
        inside that of Z, so the search starts at rank(left_rep(Z)) // 4.
        """
        m, n = len(Z), len(Z[0])
        top, _ = rank_and_det(self.ops, self.left_rep(Z))
        for size in range(min(m, n, top // 4), 0, -1):
            for rows in combinations(range(m), size):
                for cols in combinations(range(n), size):
                    if self.study_det([[Z[i][j] for j in cols] for i in rows]) != 0:
                        return size
        return 0


# ---------------------------------------------------------------- integer lattices


def int_matmul(A, B):
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(len(B[0]))] for row in A]


def bareiss_det(rows) -> int:
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def int_rank(rows) -> int:
    if not rows or not rows[0]:
        return 0
    return rank_and_det(QQOps(), rows)[0]


def determinantal_divisors(rows) -> list:
    """[d_1, ..., d_r]: d_k is the gcd of all k x k minors, r the rank."""
    m, n = len(rows), len(rows[0])
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                g = gcd(g, bareiss_det([[rows[i][j] for j in ci] for i in ri]))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        out.append(g)
    return out


def invariant_factors(rows) -> list:
    divs = determinantal_divisors(rows)
    return [d // (divs[i - 1] if i else 1) for i, d in enumerate(divs)]


def random_unimodular(rng: SplitMix64, n: int, steps: int = 8):
    """(U, U^-1) built from elementary row operations row_i += q * row_j."""
    ops = []
    while len(ops) < steps:
        i, j = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if i != j:
            ops.append((i, j, rng.choice((-2, -1, 1, 2))))
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u_inv = [list(row) for row in u]
    for i, j, q in ops:
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
    for i, j, q in reversed(ops):
        u_inv[i] = [x - q * y for x, y in zip(u_inv[i], u_inv[j])]
    return u, u_inv


def snf_ok(A, U, D, V) -> bool:
    """U*A*V = D with U, V unimodular, D diagonal, |d_1| | |d_2| | ... the invariant factors."""
    m, n = len(A), len(A[0])
    if int_matmul(int_matmul(U, A), V) != D:
        return False
    if abs(bareiss_det(U)) != 1 or abs(bareiss_det(V)) != 1:
        return False
    if any(D[i][j] != 0 for i in range(m) for j in range(n) if i != j):
        return False
    diag = [abs(D[i][i]) for i in range(min(m, n))]
    factors = [d for d in diag if d != 0]
    if diag[: len(factors)] != factors:
        return False
    return factors == invariant_factors(A)


def sequence_oracle(f, g) -> dict:
    """Verdicts for 0 -> Z^a -f-> Z^b -g-> Z^c -> 0 from determinantal divisors."""
    a, c = len(f[0]), len(g)
    b = len(f)
    rank_f, rank_g = int_rank(f), int_rank(g)
    facs_f = invariant_factors(f)
    facs_g = invariant_factors(g)
    composite_zero = all(x == 0 for row in int_matmul(g, f) for x in row)
    saturated = all(x == 1 for x in facs_f)
    exact = composite_zero and rank_f == b - rank_g and saturated
    return {
        "injective_f": rank_f == a,
        "exact_middle": exact,
        "surjective_g": rank_g == c and all(x == 1 for x in facs_g),
        "splits": saturated,
    }


# ---------------------------------------------------------------- Clifford algebras


def clifford_metric(p: int, q: int) -> tuple:
    """e_i^2 = +1 for the first p generators, -1 for the remaining q."""
    return (1,) * p + (-1,) * q


def blade_mask(blade) -> int:
    mask = 0
    for i in blade:
        mask |= 1 << (i - 1)
    return mask


def blade_sign(a: int, b: int, metric) -> int:
    """Sign of e_A e_B = sign * e_(A xor B) for bitmask blades."""
    swaps, t = 0, a >> 1
    while t:
        swaps += bin(t & b).count("1")
        t >>= 1
    sign = -1 if swaps % 2 else 1
    common, i = a & b, 0
    while common:
        if common & 1:
            sign *= metric[i]
        common >>= 1
        i += 1
    return sign


def clifford_mul(metric, x: dict, y: dict) -> dict:
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            key = a ^ b
            out[key] = out.get(key, 0) + blade_sign(a, b, metric) * ca * cb
    return {k: v for k, v in out.items() if v != 0}


def classification_ok(p: int, q: int, report: dict) -> bool:
    """A verify_classification report agrees with the mod-8 table and the center."""
    base, size, double = clifford_type(p, q)
    return (
        report["agree"] is True
        and report["dimension"] == 2 ** (p + q)
        and report["classification"] == {"base": base, "matrix_size": size, "direct_sum": double}
        and report["center_dim"] == (2 if (p + q) % 2 else 1)
    )


def clifford_type(p: int, q: int):
    """(base, matrix size, direct sum) for Cl(p,q), checked against the real dimension."""
    n = p + q
    r = (p - q) % 8
    if r in (0, 2):
        base, size, double = "R", 2 ** (n // 2), False
    elif r == 1:
        base, size, double = "R", 2 ** ((n - 1) // 2), True
    elif r in (3, 7):
        base, size, double = "C", 2 ** ((n - 1) // 2), False
    elif r in (4, 6):
        base, size, double = "H", 2 ** ((n - 2) // 2), False
    else:
        base, size, double = "H", 2 ** ((n - 3) // 2), True
    real_dim = {"R": 1, "C": 2, "H": 4}[base] * size * size * (2 if double else 1)
    if real_dim != 2**n:
        raise AssertionError("classification table is inconsistent")
    return base, size, double


# ---------------------------------------------------------------- Laurent polynomials


def signed_act(perm, signs, poly: dict) -> dict:
    out = {}
    for expo, c in poly.items():
        new = [0] * len(expo)
        for i, e in enumerate(expo):
            new[perm[i]] += signs[i] * e
        key = tuple(new)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v != 0}


def group_generators(flavor: str, n: int):
    """Generating signed permutations for Sym(n), BC(n) and D(n)."""
    ident = list(range(n))
    gens = []
    for i in range(n - 1):
        perm = list(ident)
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append((perm, [1] * n))
    if flavor == "BC":
        gens.append((ident, [-1] + [1] * (n - 1)))
    elif flavor == "D":
        gens.append((ident, [-1, -1] + [1] * (n - 2)))
    return gens


def orbit_count(flavor: str, n: int, bound: int) -> int:
    """Orbits of exponent vectors in [-bound, bound]^n under Sym(n) or BC(n)."""
    values = 2 * bound + 1 if flavor == "Sym" else bound + 1
    return comb(values + n - 1, n)


def generation_ok(flavor: str, n: int, bound: int, report: dict) -> bool:
    """One verdict per orbit sum, each either expressible or inconclusive."""
    return (
        report["checked"] == orbit_count(flavor, n, bound)
        and report["expressible"] + len(report["inconclusive"]) == report["checked"]
        and report["expressible"] >= 1
    )
