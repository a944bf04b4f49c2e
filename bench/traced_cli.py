"""Run one thyrec CLI command with layer tracing.

Usage: python bench/traced_cli.py TRACE_OUT REQUEST_ID PARENT_SPAN_ID CLI_ARGS...

Times the fresh `import thyrec.cli`, installs the layer wrappers from
tracing.py, runs the command through `thyrec.cli.main` and writes the spans
to TRACE_OUT as JSON lines. Exits with the command's exit code.
"""

import sys
import time


def main() -> int:
    out, request, parent = sys.argv[1:4]
    start = time.perf_counter()
    import thyrec.cli
    end = time.perf_counter()
    import tracing

    tracer = tracing.Tracer(request, parent)
    tracer.record("cli.import", start, end)
    tracing.install(tracer)
    try:
        return thyrec.cli.main(sys.argv[4:])
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
