"""cli-readme: the command line as users run it, one subprocess per job.

One cycle holds 19 invocations of `python -m compalg.cli`, one at a time:

    readme     7  every command shown in README.md, verbatim
    heavy      7  seeded commands with more computation behind them
    malformed  5  inputs the CLI must reject with exit code 1 and a single
                  JSON error object on stderr

A malformed job that ends in a traceback counts as an error, not as a
rejection.  Inline JSON stands in for input files, so nothing is written.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import spec
from workloads import Job

README = [
    (["poincare", "hirsch", "--g", "BC:3", "--u", "U1SU:3", "--output", "text"], "1 + t^4 + t^6 + t^10\n"),
    (["clifford", "classify", "--p", "1", "--q", "1"], '{"base":"R","matrix_size":2,"direct_sum":false}\n'),
    (["span", "verify-bound", "--field", "Fp:2", "--split", "--m", "1", "--n", "1", "--d", "1", "--trials", "10", "--seed", "7"], None),
    (["span", "rank", "--fixture", "z1"], '{"rank":2}\n'),
    (["zmod", "loc-model", "--n", "2", "--smax", "5", "--signs", "++-"], None),
    (["clifford", "product", "--sig", "2,0", "--x", "e1", "--y", "e2"], '{"12":"1"}\n'),
    (["quat", "is-split", "--field", "Q", "--a", "2", "--b", "-1", "--output", "text"], "split\n"),
]
QUAT_Q = {"field": {"kind": "Q"}, "a": "-1", "b": "-1"}
TRACEBACK = "Traceback (most recent call last)"
PROBE = str(Path(__file__).resolve().parent.parent / "cli_probe.py")
MARKER = "\n@probe "
JOB_TIMEOUT_S = 60


def _qq_entry(rng):
    return [str(rng.randint(-3, 3)) for _ in range(4)]


def _blade_text(rng, n):
    blade = sorted(rng.shuffle(list(range(1, n + 1)))[: rng.randint(1, n)])
    coeff = rng.choice((-2, -1, 1, 3))
    return blade, coeff, f"{coeff}*e{''.join(map(str, blade))}"


def cli_env(root):
    env = {k: v for k, v in os.environ.items() if not k.startswith("COMPALG_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class CliReadme:
    name = "cli-readme"
    trace_cycles = 1
    tail_pct = 0.85
    peak_rss_from_children = True

    def __init__(self, root):
        self.root = root
        self.command = [sys.executable, "-m", "compalg.cli"]

    def setup(self, seed):
        """One warm-up invocation; the first one in a checkout writes bytecode caches."""
        env = cli_env(self.root)
        proc = subprocess.run(self.command + ["--help"], cwd=self.root, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"compalg.cli --help failed: {proc.stderr[-500:]}")
        return {"env": env, "command": self.command}

    def trace(self, state):
        """Run every job through the timing probe instead of `-m compalg.cli`."""
        state["command"] = [sys.executable, PROBE]
        state["probes"] = []

    def jobs(self, state, rng):
        out = [Job("readme", (argv, expected), argv) for argv, expected in README]
        flavor = rng.choice(("Sym", "Hyperoctahedral"))
        bound = rng.randint(3, 4)
        out.append(Job("generation", (flavor, 2, bound), ["weyl", "verify-generation", "--flavor", flavor, "--n", "2", "--bound", str(bound)]))
        A = [[rng.randint(-6, 6) for _ in range(4)] for _ in range(4)]
        out.append(Job("snf", A, ["zmod", "snf", "--input", json.dumps(A)]))
        p, q = rng.choice(((0, 3), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)))
        out.append(Job("classify", (p, q), ["clifford", "verify", "--p", str(p), "--q", str(q)]))
        entries = [_qq_entry(rng) for _ in range(9)]
        payload = {"algebra": QUAT_Q, "m": 3, "n": 3, "entries": entries}
        out.append(Job("rank", entries, ["span", "rank", "--input", json.dumps(payload)]))
        prime = oracle.random_prime(rng, 3, 1999)
        a, b = rng.randint(1, prime - 1), rng.randint(1, prime - 1)
        out.append(Job("fp_split", (prime, a, b), ["quat", "is-split", "--field", f"Fp:{prime}", "--a", str(a), "--b", str(b)]))
        entries = [_qq_entry(rng) for _ in range(4)]
        payload = {"algebra": QUAT_Q, "m": 2, "n": 2, "entries": entries}
        out.append(Job("study", entries, ["mat", "study-det", "--input", json.dumps(payload)]))
        p, q = rng.choice(((2, 0), (1, 1), (2, 1), (1, 2), (3, 0)))
        x, y = _blade_text(rng, p + q), _blade_text(rng, p + q)
        out.append(Job("product", (p, q, x, y), ["clifford", "product", "--sig", f"{p},{q}", f"--x={x[2]}", f"--y={y[2]}"]))
        short = _qq_entry(rng)[:3]
        composite = oracle.random_prime(rng, 3, 200) * oracle.random_prime(rng, 3, 200)
        malformed = [
            ["mat", "study-det", "--input", json.dumps({"m": 1, "n": 1})],
            ["mat", "study-det", "--input", json.dumps({"algebra": QUAT_Q, "m": 1, "n": 1, "entries": [short]})],
            ["quat", "is-split", "--field", f"Fp:{composite}", "--a", "1", "--b", "1"],
            ["poincare", "hirsch", "--g", f"BC:{rng.randint(3, 5)}", "--u", "A:2"],
            ["zmod", "loc-model", "--n", "3", "--smax", "8", "--signs", "+-"],
        ]
        out.extend(Job("malformed", argv, argv) for argv in malformed)
        return rng.shuffle(out)

    def run(self, state, job):
        proc = subprocess.run(
            state["command"] + job.call,
            cwd=self.root,
            env=state["env"],
            capture_output=True,
            text=True,
            timeout=JOB_TIMEOUT_S,
        )
        err = proc.stderr
        if "probes" in state and MARKER in err:
            err, _, line = err.rpartition(MARKER)
            state["probes"].append(json.loads(line))
        return proc.returncode, proc.stdout, err

    def _wall_ms(self, state, argv, repeats=5):
        walls = []
        for _ in range(repeats):
            started = time.perf_counter()
            subprocess.run([sys.executable] + argv, cwd=self.root, env=state["env"], capture_output=True, check=True)
            walls.append(1000 * (time.perf_counter() - started))
        return statistics.median(walls)

    def layer_metrics(self, state):
        """Interpreter start, import cost per module, and time inside main()."""
        interp = self._wall_ms(state, ["-c", "pass"])
        out = {
            "cli.interp_ms": interp,
            "cli.import_ms": self._wall_ms(state, ["-c", "import compalg.cli"]) - interp,
            "cli.compute_ms": 1000 * statistics.median(p["main_s"] for p in state["probes"]),
            "cli.tracebacks": sum(p["traceback"] for p in state["probes"]),
        }
        prefix = "cli.import_ms."
        samples = {m[len(prefix) :]: [] for m in spec.units("per_layer") if m.startswith(prefix)}
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import compalg.cli"],
                cwd=self.root, env=state["env"], capture_output=True, text=True, check=True,
            )
            for line in proc.stderr.splitlines():
                parts = [t.strip() for t in line.split("|")]
                if len(parts) == 3 and parts[2] in samples:
                    samples[parts[2]].append(int(parts[1]) / 1000)
        for module, values in samples.items():
            out[f"cli.import_ms.{module}"] = statistics.median(values) if values else 0.0
        return out

    def check(self, state, job, result):
        rc, out, err = result
        error_type = None
        lines = err.strip().splitlines()
        if len(lines) == 1:
            try:
                error_type = json.loads(lines[0])["error"]["type"]
            except (ValueError, KeyError, TypeError):
                error_type = None
        text = f"{job.kind} {job.call} -> rc={rc} out={out!r} error={error_type}"
        if TRACEBACK in err:
            return "error", f"{job.kind} {job.call} -> traceback"
        if job.kind == "malformed":
            ok = rc == 1 and out == "" and error_type is not None
        else:
            ok = rc == 0 and err == "" and self._stdout_ok(job, out)
        return ("decided" if ok else "wrong"), text

    def _stdout_ok(self, job, out):
        if job.kind == "readme":
            argv, expected = job.data
            if expected is not None:
                return out == expected
        try:
            payload = json.loads(out)
        except ValueError:
            return False
        return getattr(self, f"_check_{job.kind}")(job.data, payload)

    @staticmethod
    def _check_readme(data, payload):
        argv = data[0]
        if argv[1] == "verify-bound":
            return payload["trials"] == payload["successes"] == 10 and payload["counterexample"] is None
        return payload == {
            "delta_injective": True,
            "cokernel_torsion_free": True,
            "exact_middle": True,
            "surjective_quotient": True,
            "splits": True,
            "middle_rank": 10,
        }

    @staticmethod
    def _check_generation(data, payload):
        return oracle.generation_ok(*data, payload)

    @staticmethod
    def _check_snf(A, payload):
        factors = [abs(x) for x in payload["invariant_factors"]]
        return oracle.snf_ok(A, payload["U"], payload["D"], payload["V"]) and factors == oracle.invariant_factors(A)

    @staticmethod
    def _check_classify(data, payload):
        return oracle.classification_ok(*data, payload)

    @staticmethod
    def _check_rank(entries, payload):
        alg = oracle.Algebra(None, (-1, -1))
        rows = [[tuple(Fraction(c) for c in e) for e in entries[i * 3 : i * 3 + 3]] for i in range(3)]
        return payload == {"rank": alg.rank(rows)}

    @staticmethod
    def _check_fp_split(data, payload):
        p, a, b = data
        witness = payload["zero_divisor"]
        if payload["verdict"] != "split" or witness is None:
            return False
        x = tuple(int(c) % p for c in witness["coeffs"])
        return any(x) and oracle.quat_norm(oracle.FpOps(p), a, b, x) == 0

    @staticmethod
    def _check_study(entries, payload):
        alg = oracle.Algebra(None, (-1, -1))
        rows = [[tuple(Fraction(c) for c in e) for e in entries[i * 2 : i * 2 + 2]] for i in range(2)]
        return Fraction(payload["study_det"]) == alg.study_det(rows)

    @staticmethod
    def _check_product(data, payload):
        p, q, (bx, cx, _), (by, cy, _) = data
        metric = oracle.clifford_metric(p, q)
        prod = oracle.clifford_mul(metric, {oracle.blade_mask(bx): cx}, {oracle.blade_mask(by): cy})
        got = {oracle.blade_mask([int(ch) for ch in key] if key != "0" else []): Fraction(v) for key, v in payload.items()}
        return got == prod
