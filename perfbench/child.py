"""One workload execution in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds the CLI argument lists to run, whether to trace, and where to
write the result. The child imports wcalc (set-up, not timed), optionally
installs the tracer, then times wcalc.cli.main over every invocation back to
back: from the first CLI entry to the last report written.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import resource
import sys
import time


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import wcalc.cli
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    codes = []
    with open(spec["log"], "w") as log, contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        for argv in spec["invocations"]:
            codes.append(wcalc.cli.main(list(argv)))
        wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {"wall_s": wall, "exit_codes": codes,
              "cpu_s": usage.ru_utime + usage.ru_stime,
              "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
              "blas_threads": blas_threads()}
    if tracer is not None:
        result["spans"] = tracer.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
