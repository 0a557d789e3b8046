"""Run one traced ``tripsim`` command, as the console script would.

Usage: python3 launch.py TRACE_FILE -- ARG...

Imports ``tripsim.cli``, wraps the package's public functions with the span
recorder, calls ``tripsim.cli.main(ARGS)`` under it and writes the folded
spans to TRACE_FILE as JSON.  The exit status and any uncaught exception
are those of ``main``, so the caller checks the command exactly as it checks
an untraced run.
"""

import json
import sys

from tracer import Tracer


def launch(trace_file: str, argv: list[str]) -> int:
    import tripsim.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tripsim.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.fold()
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: launch.py TRACE_FILE -- ARG...")
    sys.exit(launch(sys.argv[1], sys.argv[3:]))
