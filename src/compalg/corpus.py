"""Bundled test inputs: the displayed 2x2 rank examples over the split
algebra and the small-signature classification cases."""

import json
from importlib import resources


def fixture_names() -> list[str]:
    pkg = resources.files("compalg") / "fixtures"
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> dict:
    path = resources.files("compalg") / "fixtures" / f"{name}.json"
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture named {name!r}")
    return json.loads(path.read_text())

