"""split-decide: cold quaternion split decisions and prime-field square roots.

Every job builds a fresh algebra over a freshly drawn prime, so nothing is
cached between jobs.  One cycle holds 26 jobs in fixed proportions:

    qq        4  (a,b) over QQ: 2 split (Hilbert symbols all +1), one integer
                 and one rational; 2 nonsplit, one definite (a,b < 0) and
                 one indefinite rational pair
    gf_small  4  GF(p) with p < 2000
    gf_large 16  GF(p) with 2003 <= p < 10000, four per Legendre pattern
                 ((a|p), (b|p)) in {++, +-, -+, --}, the natural proportions
    quadext   2  QuadExt(GF(p), r^2) with 10^6 < p < 2*10^6

Every GF(p) algebra splits, and every QQ verdict is checked against the
Hilbert symbols, so a verdict of 'undecided' or an InfeasibleError is counted
as such rather than avoided.
"""

from fractions import Fraction

import oracle
from workloads import Job

SMALL_PRIMES = (3, 2000)
LARGE_PRIMES = (2003, 10000)
QUADEXT_PRIMES = (1_000_003, 2_000_000)
PATTERNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _qq_pair(rng, want_split, rational, definite=False):
    while True:
        if rational:
            a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(2, 7))
            b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 7))
        else:
            a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 15))
            b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 15))
        if definite != (a < 0 and b < 0):
            continue
        if oracle.qq_is_split(a, b) == want_split:
            return a, b


def _gf_pair(rng, p, pattern=None):
    while True:
        a, b = rng.randint(1, p - 1), rng.randint(1, p - 1)
        if pattern is None or (oracle.legendre(a, p), oracle.legendre(b, p)) == pattern:
            return a, b


class SplitDecide:
    name = "split-decide"
    trace_cycles = 2
    tail_pct = 0.94

    def __init__(self, root):
        self.root = root

    def setup(self, seed):
        """Nothing is reused but the library itself and the field of rationals."""
        from compalg import fields

        return {"QQ": fields.QQ}

    def jobs(self, state, rng):
        from compalg import fields

        out = []
        for split, rational, definite in (
            (True, False, False),
            (True, True, False),
            (False, False, True),
            (False, True, False),
        ):
            a, b = _qq_pair(rng, split, rational, definite)
            out.append(Job("qq", (None, a, b), (state["QQ"], a, b)))
        for primes, patterns in ((SMALL_PRIMES, (None,) * 4), (LARGE_PRIMES, PATTERNS * 4)):
            for pattern in patterns:
                p = oracle.random_prime(rng, *primes)
                a, b = _gf_pair(rng, p, pattern)
                out.append(Job("gf", (p, a, b), (fields.PrimeField(p), a, b)))
        for _ in range(2):
            p = oracle.random_prime(rng, *QUADEXT_PRIMES)
            a = rng.randint(2, p - 2) ** 2 % p
            out.append(Job("quadext", (p, a), (fields.PrimeField(p), a)))
        return rng.shuffle(out)

    def run(self, state, job):
        from compalg import fields, quaternion

        if job.kind == "quadext":
            spec, a = job.call
            ext = fields.QuadExt(spec, a)
            return ext.split, fields.split_components(ext.gen())[0].raw if ext.split else None
        spec, a, b = job.call
        algebra = quaternion.QuatAlgebra(spec, a, b)
        verdict = algebra.is_split_decision()
        witness = algebra.split_witness()
        return verdict, None if witness is None else witness.coeffs

    def check(self, state, job, result):
        if job.kind == "quadext":
            p, a = job.data
            split, root = result
            ok = split is True and root is not None and (root * root - a) % p == 0
            return ("decided" if ok else "wrong"), f"quadext {p} {a} -> {split}"
        p, a, b = job.data
        verdict, witness = result
        text = f"{job.kind} {p} {a} {b} -> {verdict} {witness}"
        expected = "split" if p is not None or oracle.qq_is_split(a, b) else "nonsplit"
        if verdict == "undecided":
            return "undecided", text
        if verdict != expected:
            return "wrong", text
        if verdict == "split":
            if witness is None or len(witness) != 4:
                return "wrong", text
            ops = oracle.ops_for(p)
            x = tuple(ops.coerce(c) for c in witness)
            nonzero = any(c != 0 for c in x)
            if not nonzero or oracle.quat_norm(ops, ops.coerce(a), ops.coerce(b), x) != 0:
                return "wrong", text
        elif witness is not None:
            return "wrong", text
        return "decided", text
