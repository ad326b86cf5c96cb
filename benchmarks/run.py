"""Benchmark for compalg: named workloads, end-to-end and per-layer metrics.

Run from the repository root, with nothing installed:

    python3 benchmarks/run.py --workload split-decide --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload span-rank --seed 1 --trace 1 --out results.jsonl
    python3 benchmarks/run.py --compare old.jsonl new.jsonl

`--trace 0` measures the unwrapped library: set-up time (median of five
fresh processes), then whole cycles of jobs in a closed loop for at least
`--seconds`, in one more fresh process.  The reported times are normalised to
a reference host speed by a fixed loop timed next to every job (see
worker.py); the record keeps the raw times and the loop's median time too.
`--trace 1` runs the workload's fixed trace cycles twice, untraced and
traced, each in a fresh process, reports the per-layer metrics of the traced
pass and the difference in normalised busy time as trace.overhead_s, and
requires both passes to give the same output digest and every wrapper to
find its target.  Every job's answer is checked; the last stdout line is the
result object, and the line before it ("record ...") carries the metadata,
the output digest and the sample counts.  `--out FILE` appends that record as
a JSON line, and `--compare` pairs two such files by seed and judges each
metric's change against the bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
TIME_LIMIT_S = 170


def run_worker(args, deadline, *extra):
    """Run worker.py in its own process group; kill the whole group on timeout."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT)]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(extra)}")
    return json.loads(out.strip().splitlines()[-1])


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def metadata(args):
    src = ROOT / "src" / "compalg"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def measure(args, deadline):
    """End-to-end metrics with the library unwrapped."""
    setups = [run_worker(args, deadline, "--mode", "setup") for _ in range(SETUP_SAMPLES - 1)]
    timed = run_worker(args, deadline, "--mode", "timed", "--seconds", str(args.seconds))
    setups.append(timed)
    metrics = {"setup_s": statistics.median(s["setup_s"] for s in setups), **timed["metrics"]}
    keys = ("jobs", "cycles", "statuses", "tail_pct", "tail_samples_above", "digest", "wrong", "raw", "loop_ms")
    info = {k: timed[k] for k in keys}
    info["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    info["setup_samples_s"] = [s["setup_s"] for s in setups]
    return metrics, spec.units("end_to_end"), timed["statuses"], info, True


def measure_traced(args, deadline):
    """Per-layer metrics from a traced pass, compared with an untraced one."""
    cycles = str(workloads.load(args.workload, str(ROOT)).trace_cycles)
    plain = run_worker(args, deadline, "--mode", "fixed", "--cycles", cycles)
    traced = run_worker(args, deadline, "--mode", "fixed", "--cycles", cycles, "--trace")
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["busy_s"] - plain["busy_s"]
    info = {
        "jobs": traced["jobs"],
        "cycles": traced["cycles"],
        "statuses": traced["statuses"],
        "digest": traced["digest"],
        "digest_untraced": plain["digest"],
        "unwrapped": traced["unwrapped"],
        "wrong": plain["wrong"] + traced["wrong"],
    }
    same = plain["digest"] == traced["digest"] and plain["statuses"]["wrong"] == 0
    if traced["unwrapped"]:
        sys.stderr.write(f"tracer found no target for: {', '.join(traced['unwrapped'])}\n")
    return metrics, spec.units("per_layer"), traced["statuses"], info, same and not traced["unwrapped"]


def load_records(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spread(values):
    """Quartile distance over the median, as the acceptance check computes it."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else (0.0 if q1 == q3 else float("inf"))


def compare(old_path, new_path):
    """Per metric, the median over seeds of new/old, judged against the bound.

    Records are paired by seed, so input differences between seeds cancel.
    A metric whose quartile spread on either side exceeds its bound is
    'unresolved' (those runs cannot tell a change of that size from noise),
    unless every new run reads better than every old one.
    """
    bounds = {m["name"]: m for m in spec.SPEC["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec.SPEC["end_to_end"] + spec.SPEC["per_layer"]}
    old, new = load_records(old_path), load_records(new_path)
    failed = False
    keys = sorted({(r["workload"], r["trace"]) for r in old} & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in keys:
        a = {r["seed"]: r for r in old if (r["workload"], r["trace"]) == (workload, trace)}
        b = {r["seed"]: r for r in new if (r["workload"], r["trace"]) == (workload, trace)}
        seeds = sorted(set(a) & set(b))
        print(f"{workload} (trace {trace}): {len(seeds)} seeds in both")
        for seed in seeds:
            if a[seed]["digest"] != b[seed]["digest"]:
                failed = True
                print(f"  DIGEST CHANGED for seed {seed}")
        if not seeds:
            continue
        for name in a[seeds[0]]["metrics"]:
            pairs = [(a[s]["metrics"][name]["value"], b[s]["metrics"][name]["value"])
                     for s in seeds if name in b[s]["metrics"]]
            if not pairs:
                continue
            ratios = [y / x if x else (1.0 if y == x else float("inf")) for x, y in pairs]
            delta = statistics.median(ratios) - 1
            lower = better.get(name, "lower") == "lower"
            worse = delta if lower else -delta
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                olds, news = [x for x, _ in pairs], [y for _, y in pairs]
                noisy = max(spread(olds), spread(news))
                if noisy > bound and (max(news) < min(olds) if lower else min(news) > max(olds)):
                    verdict = "ok (better in every run)"
                elif noisy > bound:
                    verdict = f"unresolved (spread {noisy:.2f})"
                elif worse > bound:
                    verdict, failed = "REGRESSION", True
                else:
                    verdict = "ok"
            before = statistics.median(x for x, _ in pairs)
            after = statistics.median(y for _, y in pairs)
            print(f"  {name:40s} {before:14.6g} -> {after:14.6g}  {100 * delta:+7.2f}%  {verdict}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.names())
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "compalg" / "__init__.py").is_file():
        sys.stderr.write(f"no compalg sources under {ROOT / 'src'}; nothing to measure\n")
        return 2

    # a terminated run still kills its worker's process group on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    measure_fn = measure_traced if args.trace else measure
    metrics, units, statuses, info, consistent = measure_fn(args, deadline)
    correct = consistent and statuses["wrong"] == 0
    record = {**metadata(args), **info, "correct": correct}
    record["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    for name, entry in record["metrics"].items():
        print(f"  {name:40s} {entry['value']:16.6f} {entry['unit']}")
    print("record " + json.dumps(record, sort_keys=True))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    result = {
        "correct": correct,
        "attempted": info["jobs"],
        "failed": statuses["error"] + statuses["wrong"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
