"""Tests of the benchmark itself: seeded inputs, the oracle, the tracer, the spec.

    python -m pytest benchmarks/tests -q
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import spec  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import percentile  # noqa: E402


def _inputs(name, seed, cycle=0):
    wl = workloads.load(name, str(ROOT))
    state = {"env": {}, "command": []} if name == "cli-readme" else wl.setup(seed)
    jobs = wl.jobs(state, oracle.SplitMix64(seed).fork(2, cycle))
    return [(job.kind, repr(job.data)) for job in jobs]


@pytest.mark.parametrize("name", workloads.names())
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = _inputs(name, 7)
    assert first == _inputs(name, 7)
    assert first != _inputs(name, 8)
    assert first != _inputs(name, 7, cycle=1)


@pytest.mark.parametrize("name", workloads.names())
def test_cycle_mix_is_fixed(name):
    kinds = lambda seed: sorted(kind for kind, _ in _inputs(name, seed))
    assert kinds(3) == kinds(4)


@pytest.mark.parametrize("a,b", [(-1, -1), (2, 5), (3, -1)])
def test_oracle_nonsplit(a, b):
    assert not oracle.qq_is_split(a, b)


def test_oracle_split_and_witness():
    assert oracle.qq_is_split(2, -1)
    # 1 + u + v has norm 1 - 2 + 1 = 0 in (2,-1)
    ops = oracle.QQOps()
    assert oracle.quat_norm(ops, Fraction(2), Fraction(-1), (1, 1, 1, 0)) == 0


def test_oracle_places_of_classical_algebras():
    assert oracle.ramified_places(-1, -1) == [2, "inf"]
    assert oracle.ramified_places(2, 5) == [2, 5]
    assert oracle.ramified_places(Fraction(1, 3), Fraction(5, 2)) == oracle.ramified_places(3, 10)


def test_hilbert_reciprocity():
    rng = oracle.SplitMix64(11)
    for _ in range(200):
        a = rng.choice((-1, 1)) * rng.randint(1, 60)
        b = rng.choice((-1, 1)) * rng.randint(1, 60)
        places = sorted(oracle._prime_factors(2 * a * b)) + ["inf"]
        product = 1
        for p in places:
            product *= oracle.hilbert_symbol(a, b, p)
        assert product == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_every_quaternion_algebra_over_a_prime_field_splits(p):
    ops = oracle.FpOps(p)
    for a in range(1, p):
        for b in range(1, p):
            assert any(
                oracle.quat_norm(ops, a, b, (x0, x1, x2, 0)) == 0
                for x0 in range(p)
                for x1 in range(p)
                for x2 in range(p)
                if (x0, x1, x2) != (0, 0, 0)
            )


def test_split_decide_marks_gf_algebras_split_and_rejects_bad_witness():
    wl = workloads.load("split-decide", str(ROOT))
    job = workloads.Job("gf", (7, 3, 5))
    assert wl.check({}, job, ("split", (1, 1, 0, 0)))[0] == "wrong"  # norm 1 - 3 != 0 mod 7
    assert wl.check({}, job, ("split", (0, 0, 0, 0)))[0] == "wrong"
    assert wl.check({}, job, ("nonsplit", None))[0] == "wrong"
    assert wl.check({}, job, ("undecided", None))[0] == "undecided"
    good = next(
        (x0, x1, x2, 0)
        for x0 in range(7)
        for x1 in range(7)
        for x2 in range(7)
        if (x0, x1, x2) != (0, 0, 0) and (x0 * x0 - 3 * x1 * x1 - 5 * x2 * x2) % 7 == 0
    )
    assert wl.check({}, job, ("split", good))[0] == "decided"


def test_left_representation_determinant_is_the_study_determinant():
    from compalg import QQ, CompMatrix, QuatAlgebra, study_det

    rng = oracle.SplitMix64(5)
    for params in ((-1, -1), (1, -1), (2, 3)):
        H = QuatAlgebra(QQ, *params)
        own = oracle.Algebra(None, params)
        raw = [[tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(2)] for _ in range(2)]
        Z = CompMatrix(H, [[H.element(e) for e in row] for row in raw])
        assert study_det(Z).raw == own.study_det(raw)


def test_tracer_self_times_sum_to_parent_busy_time():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks))
    root = t.begin("job")
    a = t.begin("outer")
    b = t.begin("inner")
    t.end(b)
    c = t.begin("inner")
    d = t.begin("outer")  # recursion: counted once in busy_s
    t.end(d)
    t.end(c)
    t.end(a)
    e = t.begin("inner")
    t.end(e)
    t.end(root)
    agg = t.aggregate()
    assert sum(entry["self_s"] for entry in agg.values()) == agg["job"]["busy_s"]
    assert agg["outer"]["calls"] == 2
    assert agg["outer"]["busy_s"] == t.spans[a][2] - t.spans[a][1]
    assert agg["inner"]["calls"] == 3


def test_tracer_wrappers_record_only_while_active():
    t = tracer.Tracer()
    square = t.spanned(lambda x: x * x, "sq")
    counted = t.counted(lambda: None, "hits")
    t.active = False
    assert square(3) == 9
    counted()
    assert t.spans == [] and t.counts["hits"] == 0
    t.active = True
    assert square(4) == 16
    counted()
    assert len(t.spans) == 1 and t.counts["hits"] == 1


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4, 5], 0.5) == 3
    assert percentile([0, 10], 0.9) == 9


def test_spec_names_the_workloads_this_benchmark_runs():
    assert [w["name"] for w in spec.SPEC["workloads"]] == workloads.names()


def test_comp_rank_oracle_agrees_with_the_library_and_rejects_low_answers():
    from compalg import QQ, CompMatrix, QuatAlgebra, comp_rank

    wl = workloads.load("span-rank", str(ROOT))
    own = oracle.Algebra(None, (1, -1))
    H = QuatAlgebra(QQ, 1, -1)
    rng = oracle.SplitMix64(3)
    for n, r in ((3, 2), (3, 1), (4, 2)):
        left = [[tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(r)] for _ in range(n)]
        right = [[tuple(rng.randint(-3, 3) for _ in range(4)) for _ in range(n)] for _ in range(r)]
        raw = own.matmul(left, right)
        expected = comp_rank(CompMatrix(H, [[H.element(e) for e in row] for row in raw]))
        assert own.comp_rank(raw) == expected
        job = workloads.Job("rank", ("S", r, raw))
        assert wl.check({}, job, expected)[0] == "decided"
        assert wl.check({}, job, expected - 1)[0] == "wrong"


def test_normalised_time_scales_by_reference_over_host_loop():
    from worker import REFERENCE_LOOP_S, normalised

    assert normalised(1.0, [REFERENCE_LOOP_S, REFERENCE_LOOP_S]) == 1.0
    assert normalised(1.0, [REFERENCE_LOOP_S, 2 * REFERENCE_LOOP_S, 3 * REFERENCE_LOOP_S]) == 0.5


def test_compare_pairs_seeds_and_leaves_noisy_metrics_unresolved(tmp_path, capsys):
    import json

    import run

    def write(name, values):
        with open(tmp_path / name, "w") as fh:
            for seed, (steady, noisy) in enumerate(values):
                metrics = {"job_ms.p50": {"value": steady}, "job_ms.tail": {"value": noisy}}
                record = {"workload": "w", "trace": 0, "seed": seed, "digest": "d", "metrics": metrics}
                fh.write(json.dumps(record) + "\n")
        return str(tmp_path / name)

    old = write("old", [(100, 10), (101, 30), (102, 50), (103, 10)])
    slower = write("new", [(140, 10), (141, 30), (143, 50), (144, 10)])
    assert run.compare(old, slower) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "REGRESSION" in next(line for line in lines if "job_ms.p50" in line)
    assert "unresolved" in next(line for line in lines if "job_ms.tail" in line)
    assert run.compare(old, old) == 0
