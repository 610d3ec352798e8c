"""Traced launcher: ``python perfbench/launch.py SPANS_FILE -- REPRO_ARGS``.

Runs ``repro.cli.main(REPRO_ARGS)`` exactly as ``python -m repro``
would, after wrapping the program's public functions with span
recorders (:mod:`tracing`).  The fresh-interpreter ``import
repro.cli`` is itself a span.  Spans and counts are written to
SPANS_FILE when ``main`` returns (``serve`` returns after a SIGTERM
drain, ``worker`` after SIGINT).
"""

import sys

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launch.py SPANS_FILE -- REPRO_ARGS...",
              file=sys.stderr)
        return 2
    spans_file, args = argv[0], argv[2:]
    recorder = tracing.Recorder()
    try:
        with recorder.span("cli.import"):
            import repro.cli
        with recorder.span("trace.install"):
            tracing.install(recorder,
                            service=bool({"serve", "worker"} & set(args)))
        with recorder.span("cli.main"):
            return repro.cli.main(args)
    finally:
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
