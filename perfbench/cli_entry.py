"""Traced stand-in for ``python -m homsim.cli`` (cli_mix with --trace 1).

    python cli_entry.py TRACE_OUT CLI_ARGS...

``homsim.cli`` binds its library functions by name at import, so the
wrappers go on the ``homsim.cli`` namespace.  Spans are written to TRACE_OUT
as JSON when the command returns.
"""

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    idx = tracer.begin("import.homsim")
    import homsim  # noqa: F401
    tracer.end(idx)
    import homsim.cli as cli

    spans.install(tracer, cli)
    idx = tracer.begin("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.end(idx)
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
