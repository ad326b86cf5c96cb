"""One pass of one workload in a fresh interpreter; prints one JSON object.

    python benchmarks/worker.py --root DIR --workload NAME --seed N --mode setup
    python benchmarks/worker.py ... --mode timed --seconds S
    python benchmarks/worker.py ... --mode fixed --cycles K [--trace]

`setup` only builds the workload's reused state and reports how long that
took, library imports included.  `timed` runs whole cycles of jobs until at
least S seconds have passed; `fixed` runs exactly K cycles, which is what the
traced and untraced passes of a traced run compare.  run.py is the entry
point; this file is its child process.

Every time is reported twice: as measured ("raw"), and normalised to a
reference host speed.  On a shared host the same code can run half as fast
in one second as in the next, in CPU time as much as in wall time.  So a
fixed loop of Fraction, int and dict work (`host_loop`, the kind of work the
library does) is timed right before and after every job and around set-up,
and every SAMPLE_EVERY_S inside them from a SIGALRM handler whose own time is
taken out again.  Each interval is scaled by REFERENCE_LOOP_S over the mean
of those loop times: a normalised time is the time the interval would have
taken on a host that runs the loop in REFERENCE_LOOP_S.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402

STATUSES = ("decided", "undecided", "error", "wrong")
REFERENCE_LOOP_S = 0.0003  # about host_loop's time on an idle 2-vCPU x86-64 VM, CPython 3.11
SAMPLE_EVERY_S = 0.025


def host_loop():
    acc, x = Fraction(0), Fraction(1, 3)
    for i in range(1, 60):
        acc += x * i / (i + 1)
    table = {}
    for i in range(400):
        table[i, i % 7] = (i * i) % 11
    return acc, len(table)


def loop_once():
    started = time.perf_counter()
    host_loop()
    return time.perf_counter() - started


def loop_time():
    """Median of three timed runs of host_loop, in seconds."""
    return statistics.median(loop_once() for _ in range(3))


def normalised(seconds, loops):
    return seconds * REFERENCE_LOOP_S / statistics.fmean(loops)


class HostSpeed:
    """Times intervals in raw and normalised seconds (see the module docstring)."""

    def __init__(self):
        self.loops = []  # every loop time taken, for the record
        self.before = None
        self.inside = []
        self.paused = 0.0
        self.busy = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame):
        if self.busy:
            return
        self.busy = True
        started = time.perf_counter()
        self.inside.append(loop_once())
        self.paused += time.perf_counter() - started
        self.busy = False

    def begin(self):
        if self.before is None:
            self.before = loop_time()
            self.loops.append(self.before)
        self.inside, self.paused = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.started = time.perf_counter()

    def end(self):
        """(raw, normalised) seconds since begin(), the sampling excluded."""
        elapsed = time.perf_counter() - self.started
        signal.setitimer(signal.ITIMER_REAL, 0)
        raw = elapsed - self.paused
        after = loop_time()
        self.loops += self.inside + [after]
        scaled = normalised(raw, [self.before, *self.inside, after])
        self.before = after
        return raw, scaled


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def check_library_location(root):
    import compalg

    expected = Path(root, "src", "compalg").resolve()
    if Path(compalg.__file__).resolve().parent != expected:
        raise SystemExit(f"compalg was imported from {compalg.__file__}, not from {expected}")


def run_cycles(wl, state, seed, mode, seconds, cycles, tracer):
    """Run whole cycles; returns per-job (raw s, normalised s, status, text,
    cycle), the cycle-0 digest, the number of cycles, the wall time of the
    loop and every host_loop time taken."""
    digest = hashlib.sha256()
    samples = []
    speed = HostSpeed()
    started = time.perf_counter()
    cycle = 0
    while True:
        rng = oracle.SplitMix64(seed).fork(2, cycle)
        jobs = wl.jobs(state, rng)
        gc.collect()
        timed = []
        speed.before = None  # input preparation and checks ran since the last loop time
        for job in jobs:
            if tracer is not None:
                tracer.active = True
                root_span = tracer.begin("job")
            speed.begin()
            try:
                result, exc = wl.run(state, job), None
            except Exception as error:  # a failing job is data, not a crash
                result, exc = None, error
            elapsed, scaled = speed.end()
            if tracer is not None:
                tracer.end(root_span)
                tracer.active = False
            timed.append((job, elapsed, scaled, result, exc))
        for job, elapsed, scaled, result, exc in timed:
            if exc is not None:
                status, text = "error", f"{job.kind} {job.data} -> raised {type(exc).__name__}"
            else:
                try:
                    status, text = wl.check(state, job, result)
                except Exception as error:  # a malformed answer fails its check
                    status, text = "wrong", f"{job.kind} {job.data} -> check raised {error!r}"
            samples.append((elapsed, scaled, status, text, cycle))
            if cycle == 0:
                digest.update(text.encode() + b"\n")
        cycle += 1
        if mode == "fixed" and cycle >= cycles:
            break
        if mode == "timed" and time.perf_counter() - started >= seconds:
            break
    return samples, digest.hexdigest(), cycle, time.perf_counter() - started, speed.loops


def timing_metrics(wl, samples, column):
    """Latency and throughput (jobs over the summed job time) from one time column."""
    times = [s[column] for s in samples]
    return {
        "job_ms.p50": 1000 * statistics.median(times),
        "job_ms.tail": 1000 * percentile(times, wl.tail_pct),
        "jobs_per_s": len(times) / sum(times),
    }


def summarize(wl, samples):
    """End-to-end metrics from normalised times, plus the raw timings."""
    counts = {k: sum(1 for s in samples if s[2] == k) for k in STATUSES}
    n = len(samples)
    who = resource.RUSAGE_CHILDREN if getattr(wl, "peak_rss_from_children", False) else resource.RUSAGE_SELF
    metrics = timing_metrics(wl, samples, 1)
    tail = metrics["job_ms.tail"] / 1000
    return {
        "jobs": n,
        "statuses": counts,
        "tail_pct": wl.tail_pct,
        "tail_samples_above": sum(1 for s in samples if s[1] > tail),
        "wrong": [s[3] for s in samples if s[2] == "wrong"][:5],
        "raw": timing_metrics(wl, samples, 0),
        "busy_s": sum(s[1] for s in samples),
        "metrics": {
            **metrics,
            "decided_share": counts["decided"] / n,
            "clean_share": 1 - (counts["error"] + counts["wrong"]) / n,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        },
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    # one CPU for this process and the CLI processes it starts, so that the
    # host loop is timed on the CPU that runs the job
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(Path(args.root, "src")))
    wl = workloads.load(args.workload, args.root)
    speed = HostSpeed()
    speed.begin()
    state = wl.setup(args.seed)
    setup_raw, setup_s = speed.end()
    check_library_location(args.root)
    out = {"workload": wl.name, "seed": args.seed, "setup_s": setup_s, "setup_raw_s": setup_raw}
    if args.mode != "setup":
        tracer = None
        if args.trace:
            import spec
            import tracer as tracing

            tracer = tracing.Tracer()
            out["unwrapped"] = tracing.install(tracer)
            tracer.active = False
            if hasattr(wl, "trace"):
                wl.trace(state)
        samples, digest, cycles, wall, loops = run_cycles(
            wl, state, args.seed, args.mode, args.seconds, args.cycles, tracer
        )
        out.update(summarize(wl, samples), digest=digest, cycles=cycles, wall_s=wall)
        out["loop_ms"] = 1000 * statistics.median(loops)
        if tracer is not None:
            layers = dict.fromkeys(spec.units("per_layer"), 0)
            layers.update(tracing.layer_metrics(tracer))
            if hasattr(wl, "layer_metrics"):
                layers.update(wl.layer_metrics(state))
            out["layers"] = layers
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
