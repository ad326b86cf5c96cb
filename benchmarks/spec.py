"""Metric names, units and bounds, read from BENCHMARK.json at the repository root."""

import json
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    """name -> unit for "end_to_end" or "per_layer", in the order listed."""
    return {m["name"]: m["unit"] for m in SPEC[section]}
