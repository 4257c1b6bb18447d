"""Run the walkergeo command line with every layer traced.

    python3 bench/traced_cli.py TRACE.json <walkergeo arguments>

Behaves as `walkergeo <arguments>` (same output, same exit status) and
writes the per-layer totals and the spans of the run to TRACE.json.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from walkergeo.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"totals": tracer.recorder.totals(),
                       "spans": tracer.recorder.spans()}, handle)


if __name__ == "__main__":
    sys.exit(main())
