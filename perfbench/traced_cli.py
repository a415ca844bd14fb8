"""Run one ``multiscale`` command with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_JSON ARG...

behaves like ``python3 -m multiscale.cli ARG...`` and also writes the
process's import time, module count and spans to SPANS_JSON.
"""

import json
import sys
import time

from tracing import Tracer, install


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    before = len(sys.modules)
    start = time.perf_counter()
    import multiscale.cli
    end = time.perf_counter()
    tracer.spans.append(["import.multiscale_cli", start, end, -1, 0, True])
    modules = len(sys.modules) - before
    install(tracer)
    try:
        return multiscale.cli.main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": end - start, "modules": modules,
                       **tracer.dump()}, fh)


if __name__ == "__main__":
    sys.exit(main())
