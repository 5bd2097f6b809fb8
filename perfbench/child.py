"""Run `designforge <args>` with the benchmark's tracer installed.

Usage: python3 perfbench/child.py TRACE_OUT.json <designforge arguments...>

The layer modules are imported first (that time is recorded as
``cli.import_ns``), the tracer is installed, ``designforge.cli.main`` runs
with the remaining arguments, and the aggregated trace is written to
TRACE_OUT.json.  The exit code is the CLI's.
"""

import json
import sys
import time
from pathlib import Path

from spans import Tracer, load_layers


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    layers = load_layers()
    import_ns = time.perf_counter_ns() - t0
    tracer = Tracer(layers)
    with tracer.installed():
        code = layers["cli"].main(argv)
    doc = tracer.export()
    doc["import_ns"] = import_ns
    Path(out_path).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
