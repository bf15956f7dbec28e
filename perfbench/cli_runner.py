"""Run the tenderiv CLI with the span tracer installed, then write the spans.

Usage: python3 perfbench/cli_runner.py SPANS_PATH CLI_ARGS...

The traced identities-cli workload starts this in place of
``python -m tenderiv`` so the child process records its own spans.
"""

import sys

import tenderiv.cli

from tracer import Tracer


def main(argv):
    tracer = Tracer()
    tracer.install()
    try:
        return tenderiv.cli.main(argv[1:])
    finally:
        tracer.write(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
