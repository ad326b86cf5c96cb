"""Pinned outputs of the compalg CLI, and the one rule they pass by.

`cli.json` holds one record per line and per call:
- `argv`, the arguments after `compalg`;
- `env`, if any: variables set for the call;
- `exit`, the exit code;
- `stdout`, the exact output, printed with one newline and nothing on
  stderr; or `error`, the `error.type` of the one JSON line on stderr,
  with nothing on stdout.

Each record is written by hand: an intended output change edits its record.
The test suite runs every record through `compalg.cli.main` in process.
Run as a script, this file runs every record through the `compalg`
executable on PATH, an installed package, and lists every record that fails:

    python tests/golden/check.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

RECORDS = json.loads(Path(__file__).with_name("cli.json").read_text())


def label(record) -> str:
    """The record's call as a shell would read it, its variables first."""
    return " ".join([*(f"{key}={value}" for key, value in record.get("env", {}).items()), *record["argv"]])


def mismatch(record, code: int, out: str, err: str) -> str | None:
    """Why a call that exited with `code`, printing `out` and `err`, fails
    `record`, or None if it passes."""
    got = f"exit {code}, stdout {out!r}, stderr {err!r}"
    if "stdout" in record:
        return None if (code, out, err) == (record["exit"], record["stdout"] + "\n", "") else got
    lines = err.splitlines()
    try:
        error_type = json.loads(lines[0])["error"]["type"] if len(lines) == 1 and err.endswith("\n") else None
    except (ValueError, KeyError, TypeError):
        error_type = None
    return None if (code, out, error_type) == (record["exit"], "", record["error"]) else got


def main() -> int:
    failures = []
    for record in RECORDS:
        proc = subprocess.run(["compalg", *record["argv"]], env={**os.environ, **record.get("env", {})},
                              capture_output=True, text=True, timeout=120)
        why = mismatch(record, proc.returncode, proc.stdout, proc.stderr)
        if why is not None:
            failures.append(f"{label(record)}\n    expected {json.dumps(record)}\n    got {why}")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(RECORDS) - len(failures)} of {len(RECORDS)} pinned CLI outputs match", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
