"""Run one ghzmetro CLI request with layer spans, for the traced benchmark run.

Usage: python traced_cli.py <ghzmetro arguments...>

Behaves like ``python -m ghzmetro.cli`` (same stdout, stderr and exit
code), but times each layer module's import and each call into a layer's
public functions.  The spans and counters go to stderr as one last line,
``PERFBENCH_TRACE <json>``, after the program has finished.
"""
from __future__ import annotations

import json
import sys
import time

MARKER = "PERFBENCH_TRACE "


def main(argv) -> int:
    from tracing import Tracer

    tracer = Tracer(time.monotonic)
    tracer.time_imports()
    import ghzmetro.cli as cli

    tracer.patch()
    main_start = time.monotonic()
    rc = 1
    try:
        rc = cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["main_start"] = main_start
        sys.stderr.write(MARKER + json.dumps(summary) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
