"""Run one netquant CLI command with every layer traced.

Usage: ``python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]`` with
the package importable. The spans and counters go to SPANS_JSON; the exit
code is the command's.
"""

import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from netquant import cli

    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
