"""Run one mwbpf CLI command with the tracer installed.

    python3 perfbench/cli_child.py STATS_JSON CLI_ARG...

Behaves like ``python -m mwbpf.cli CLI_ARG...`` (same exit code) and writes
the trace summary of the command to STATS_JSON.
"""

import json
import sys
from pathlib import Path

import mwbpf.cli
import tracer


def main() -> int:
    stats, argv = Path(sys.argv[1]), sys.argv[2:]
    t = tracer.Tracer(mwbpf)
    t.install()
    try:
        code = t.call("bench.op", 0, mwbpf.cli.main, argv)
    finally:
        t.uninstall()
        stats.write_text(json.dumps(t.summary()), encoding="ascii")
    return code


if __name__ == "__main__":
    sys.exit(main())
