"""Traced stand-in for ``python -m freeprob.cli``.

    python3 perfbench/cli_traced.py SPANS.json <freeprob arguments...>

Times ``import freeprob.cli``, installs the benchmark's wrappers, calls
``freeprob.cli.main(argv)`` and writes its spans, counters and the import
time to SPANS.json.  The exit status is that of ``main``.
"""

import json
import sys
import time


def main():
    start = time.perf_counter()
    out_path, argv = sys.argv[1], sys.argv[2:]
    import freeprob.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = freeprob.cli.main(argv)
    finally:
        data = tracer.export()
        data["import_s"] = import_s
        data["child_s"] = time.perf_counter() - start
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
