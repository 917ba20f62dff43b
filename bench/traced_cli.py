"""One traced holebox CLI invocation.

    python bench/traced_cli.py SPANS_JSON CLI_ARGS...

Times ``import holebox.cli``, wraps the layer functions listed in
``tracer.TARGETS`` and runs ``holebox.cli.main(CLI_ARGS)``.  The spans are
written to SPANS_JSON after main returns; the exit code is main's.
Needs holebox on PYTHONPATH.
"""
import sys

from tracer import Tracer  # bench/ is sys.path[0]


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    before = len(sys.modules)
    with tracer.span("cli.import") as attrs:
        import holebox.cli
    attrs["modules_loaded"] = len(sys.modules) - before
    tracer.install()
    with tracer.span("cli.main"):
        code = holebox.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
