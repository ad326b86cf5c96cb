"""The benchmark's workloads.

A workload builds its reused state once (`setup`), then produces cycles of
jobs from the seed: cycle k always holds the same job mix, with inputs drawn
from the seed and k, in a seeded order.  `run` is the only timed part and
makes exactly one library call (or one CLI invocation).  `check` recomputes
the answer independently and returns (status, canonical text):

    "decided"    a definite answer that passed its check
    "undecided"  the library declined to decide (nothing to check)
    "error"      the job raised, or the CLI ended in a traceback
    "wrong"      an answer that failed its check

The canonical texts of cycle 0 feed the workload's output digest.
"""

import importlib
from dataclasses import dataclass, field

_CLASSES = {
    "split-decide": ("split_decide", "SplitDecide"),
    "span-rank": ("span_rank", "SpanRank"),
    "invariants": ("invariants", "Invariants"),
    "cli-readme": ("cli_readme", "CliReadme"),
}


@dataclass
class Job:
    kind: str
    data: object
    call: tuple = field(default=(), repr=False)


def names() -> list:
    return list(_CLASSES)


def load(name: str, root):
    module, cls = _CLASSES[name]
    return getattr(importlib.import_module(f"workloads.{module}"), cls)(root)
