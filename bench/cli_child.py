"""Run one bracekit CLI command with every layer traced.

    python3 bench/cli_child.py SPAWN_NS TRACE_JSON ARG...

Traced runs of cli-workspace start this in place of ``python -m bracekit``.
SPAWN_NS is the parent's ``time.time_ns()`` just before it started this
process; the time to the first line here is the interpreter start-up.  The
spans, counters and start-up samples go to TRACE_JSON, and the exit code is
the CLI's.
"""

import time

START_NS = time.time_ns()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawn_ns, trace_path, *argv = sys.argv[1:]
    start = time.perf_counter()
    import bracekit.cli

    import_ms = (time.perf_counter() - start) * 1e3
    from spans import Tracer

    tracer = Tracer(sys.modules["bracekit"])
    tracer.samples["cli.interp_ms"].append((START_NS - int(spawn_ns)) / 1e6)
    tracer.samples["cli.import_ms"].append(import_ms)
    tracer.install()
    try:
        return bracekit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
