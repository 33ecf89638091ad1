"""Run one roamlab CLI command with span tracing installed.

    python3 perfbench/tracecli.py SPAN_DIR <roamlab arguments...>

Same process layout as `python3 -m roamlab.cli <arguments>`, so the wall time
difference to an untraced call is the tracing overhead. Span files of this
process and of its pool workers are written to SPAN_DIR.
"""

import sys

import spans


def main(argv):
    tracer = spans.install(argv[0])
    from roamlab import cli

    try:
        return cli.main(argv[1:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
