"""A fresh interpreter's first compile: ``import repro`` -> build one
program -> ``Function.compile``.  Spawned by the compile_cold scenario;
prints one JSON line with the three durations in ms."""

import json
import sys
import time


def main(name: str) -> None:
    t0 = time.perf_counter()
    import repro  # noqa: F401 - the import is what is timed
    t1 = time.perf_counter()
    from bench.programs import COMPILE_OPTS, by_name
    t2 = time.perf_counter()   # the table's own imports are not repro's
    bundle = by_name(name).build()
    t3 = time.perf_counter()
    kernel = bundle.function.compile("cpu", cache=False, **COMPILE_OPTS)
    t4 = time.perf_counter()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3,
                      "build_ms": (t3 - t2) * 1e3,
                      "compile_ms": (t4 - t3) * 1e3,
                      "code_bytes": len(kernel.source)}))


if __name__ == "__main__":
    main(sys.argv[1])
