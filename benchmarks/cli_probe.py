"""Run one compalg CLI command and append its timings to stderr.

Used only by the traced cli-readme pass, in place of `python -m compalg.cli`:

    python benchmarks/cli_probe.py <compalg arguments...>

Stdout, the exit code and the CLI's own stderr stay as the CLI leaves them;
an uncaught exception prints its traceback and exits 1, as the interpreter
would.  The last stderr line is "@probe {json}" with the import time, the
time spent in `compalg.cli.main`, and whether it raised.
"""

import json
import sys
import time
import traceback

MARKER = "\n@probe "


def main() -> int:
    started = time.perf_counter()
    import compalg.cli

    imported = time.perf_counter()
    code, raised = 1, False
    try:
        code = compalg.cli.main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        raised = True
    finished = time.perf_counter()
    sys.stdout.flush()
    timings = {"import_s": imported - started, "main_s": finished - imported, "traceback": raised}
    sys.stderr.write(MARKER + json.dumps(timings) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
