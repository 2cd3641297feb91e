"""Run `qlab` with every traced layer wrapped, then write the trace.

Usage: python3 traced_cli.py OUT.json SUBCOMMAND [ARGS...]

The command line after OUT.json goes to qlab.cli.main unchanged, so the
work done is that of `python -m qlab.cli SUBCOMMAND ARGS...`.  OUT.json
receives the self times, counts and spans of this process.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import qlab.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    origin = time.perf_counter()
    status = qlab.cli.main(argv)
    trace = {
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "process": {"label": " ".join(argv), **tracer.span_table(origin)},
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
