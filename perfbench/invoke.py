"""Run one snchar command line in this fresh interpreter, as a user would.

Usage: python3 invoke.py <snchar arguments...>

Writes "perfbench-imported <clock>" to stderr, where <clock> is the
system-wide monotonic clock read as soon as `snchar` and `snchar.cli` were
imported, so the parent can measure set-up time from the moment it spawned
this process.  When
PERFBENCH_TRACE_DIR is set, installs the tracer after the import and writes
the spans to <dir>/main.json on the way out.
"""

import os
import sys
import time

import snchar  # noqa: F401
import snchar.cli

IMPORTED = time.monotonic()


def main() -> int:
    print(f"perfbench-imported {IMPORTED:.9f}", file=sys.stderr, flush=True)
    trace_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if trace_dir is None:
        return snchar.cli.main(sys.argv[1:])
    import tracer

    tracer.install()
    try:
        return snchar.cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.TRACER.dump(os.path.join(trace_dir, "main.json"))


if __name__ == "__main__":
    sys.exit(main())
