"""Spans and counters recorded from outside the library, for the traced run only.

`install` replaces library functions and methods, at the names their callers
bind, with wrappers that record a span (name, start, end, parent) or bump a
counter.  Spans stay in memory; `layer_metrics` turns them into the
per-layer numbers that BENCHMARK.json lists.  Only the traced run calls
`install`, so the untraced run measures the library unwrapped.
"""

import importlib
import time
from collections import Counter

import spec

# (module, attribute path, metric prefix, mode); "span" times the call,
# "count" only counts it.  A function appears once per module that binds it.
TARGETS = [
    ("compalg.fields", "square_root_raw", "fields.sqrt", "span"),
    ("compalg.quaternion", "square_root_raw", "fields.sqrt", "span"),
    ("compalg.fields", "QuadExt.__init__", "fields.quadext", "count"),
    ("compalg.fields", "Scalar.__add__", "fields.scalar_ops", "count"),
    ("compalg.fields", "Scalar.__radd__", "fields.scalar_ops", "count"),
    ("compalg.fields", "Scalar.__sub__", "fields.scalar_ops", "count"),
    ("compalg.fields", "Scalar.__mul__", "fields.scalar_ops", "count"),
    ("compalg.fields", "Scalar.__rmul__", "fields.scalar_ops", "count"),
    ("compalg.fields", "Scalar.inverse", "fields.scalar_ops", "count"),
    ("compalg.quaternion", "QuatAlgebra.__init__", "quaternion.build", "span"),
    ("compalg.quaternion", "QuatAlgebra.is_split_decision", "quaternion.decide", "span"),
    ("compalg.quaternion", "QuaternionElement.__mul__", "quaternion.elem_mul", "count"),
    ("compalg.quaternion", "Mat2Element.__mul__", "quaternion.elem_mul", "count"),
    ("compalg.quaternion", "QuaternionElement.norm", "quaternion.norm", "count"),
    ("compalg.quaternion", "Mat2Element.norm", "quaternion.norm", "count"),
    ("compalg.quaternion", "QuaternionElement.inverse", "quaternion.inverse", "count"),
    ("compalg.quaternion", "Mat2Element.inverse", "quaternion.inverse", "count"),
    ("compalg.matrices", "FieldMatrix.det", "matrices.det", "span"),
    ("compalg.matrices", "study_det", "matrices.study_det", "span"),
    ("compalg.matrices", "flatten_split", "matrices.flatten", "span"),
    ("compalg.matrices", "is_invertible", "matrices.is_invertible", "span"),
    ("compalg.rank", "is_invertible", "matrices.is_invertible", "span"),
    ("compalg.matrices", "skew_column_rank", "matrices.skew", "span"),
    ("compalg.matrices", "skew_solve", "matrices.skew", "span"),
    ("compalg.rank", "comp_rank", "rank.comp_rank", "span"),
    ("compalg.rank", "low_rank_combination", "rank.low_rank_combination", "span"),
    ("compalg.rank", "verify_span_bound", "rank.verify_span_bound", "span"),
    ("compalg.weyl", "verify_generation", "weyl.verify_generation", "span"),
    ("compalg.weyl", "act", "weyl.act", "span"),
    ("compalg.weyl", "reynolds", "weyl.reynolds", "span"),
    ("compalg.weyl", "LaurentPoly.__mul__", "weyl.laurent_mul", "count"),
    ("compalg.zmodule", "smith_normal_form", "zmodule.snf", "span"),
    ("compalg.zmodule", "IntMatrix.det", "zmodule.int_det", "span"),
    ("compalg.zmodule", "IntMatrix.__mul__", "zmodule.int_mul", "count"),
    ("compalg.zmodule", "build_localization_model", "zmodule.loc_model", "span"),
    ("compalg.clifford", "CliffordSignature.__init__", "clifford.signature", "span"),
    ("compalg.clifford", "Multivector.__mul__", "clifford.mv_mul", "count"),
    ("compalg.clifford", "Multivector.inverse", "clifford.inverse", "span"),
    ("compalg.ratlin", "solve_square", "ratlin", "span"),
    ("compalg.ratlin", "det", "ratlin", "span"),
    ("compalg.ratlin", "nullity", "ratlin", "span"),
    ("compalg.poincare", "UniPoly.exact_div", "poincare.exact_div", "span"),
]

class Tracer:
    """In-memory spans [name, start, end, parent index] plus named counters.

    Wrappers record only while `active` is true, so work done outside the
    jobs (input preparation, checks) stays out of the numbers.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.active = True

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), None, parent])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def spanned(self, fn, name: str, on_result=None):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.count(f"{name}.raised.{type(exc).__name__}")
                raise
            finally:
                self.end(index)
            if on_result is not None:
                on_result(self, index, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn, name: str):
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def aggregate(self) -> dict:
        """name -> {"calls", "busy_s", "self_s"}.

        busy_s sums only the outermost span of each name, so recursion is not
        counted twice; self_s is duration minus the direct children's durations.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
            if not self.inside(index, name):
                entry["busy_s"] += end - start
        return out


def _decide_result(tracer, index, verdict):
    if verdict == "undecided":
        tracer.count("quaternion.decide.undecided")


def _rank_result(tracer, index, rank):
    if rank:
        tracer.count("rank.comp_rank.nonzero")


def _invertible_result(tracer, index, verdict):
    if tracer.inside(index, "rank.comp_rank"):
        tracer.count("rank.minors_tried")


HOOKS = {
    "quaternion.decide": _decide_result,
    "rank.comp_rank": _rank_result,
    "matrices.is_invertible": _invertible_result,
}


def install(tracer: Tracer) -> list:
    """Wrap every target that exists; returns the targets this library lacks."""
    missing = []
    for module_name, path, name, mode in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
            continue
        if mode == "span":
            wrapped = tracer.spanned(fn, name, HOOKS.get(name))
        else:
            wrapped = tracer.counted(fn, name)
        setattr(owner, attr, wrapped)
    return missing


def layer_metrics(tracer: Tracer) -> dict:
    """The in-process per-layer metrics (cli.* and trace.* come from elsewhere)."""
    agg = tracer.aggregate()
    counts = tracer.counts
    out = {}
    for metric in spec.units("per_layer"):
        prefix, _, key = metric.rpartition(".")
        if key in ("calls", "busy_s", "self_s"):
            if prefix in agg:
                out[metric] = agg[prefix][key]
            elif key == "calls":
                out[metric] = counts.get(prefix, 0)
            else:
                out[metric] = 0.0
    out["fields.scalar_ops"] = counts.get("fields.scalar_ops", 0)
    out["quaternion.decide.undecided"] = counts.get("quaternion.decide.undecided", 0)
    out["quaternion.decide.infeasible"] = counts.get(
        "quaternion.decide.raised.InfeasibleError", 0
    )
    tried = counts.get("rank.minors_tried", 0)
    out["rank.minors_tried"] = tried
    out["rank.minor_hit_ratio"] = counts.get("rank.comp_rank.nonzero", 0) / tried if tried else 0.0
    return out
