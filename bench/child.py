"""Traced stand-in for ``python -m fdtc`` in the cli_cold traced run.

Usage: child.py <out prefix> <op id> -- <fdtc arguments...>

Installs the tracer around the package's public functions, runs the CLI
with the given arguments, writes ``<prefix>.spans`` and the span totals
to ``<prefix>.json``, and exits with the CLI's exit code.
"""

import json
import sys

from tracer import Tracer


def main(argv):
    prefix, op = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: child.py <out prefix> <op id> -- <args...>")
    import fdtc.cli

    tracer = Tracer()
    tracer.op = op
    with tracer:
        code = fdtc.cli.main(argv[3:])
    tracer.write_spans(prefix + ".spans")
    with open(prefix + ".json", "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
