"""One repetition of one workload, in a fresh interpreter.

bggx is a batch CLI whose module-level caches start cold on every
invocation, so every timed repetition is a new process.  The parent
passes the monotonic time at which it started this process; set-up time
runs from there until the inputs are ready.  A fixed reference
computation is timed right before and right after the timed call, and
both times are also reported scaled to a quiet machine (see README.md).
The last line of standard output is one JSON object with the timings,
the outputs to check and the machine description.

Usage: python3 perfbench/worker.py WORKLOAD SEED [SPANS_FILE]
With SPANS_FILE the timed call runs traced and the spans are written there.
"""

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback

from workloads import WORKLOADS


def _blas_threads():
    """Thread count of the OpenBLAS that numpy links, or None if unknown."""
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


# reference_s() on the 2-vCPU machine the benchmark was written on, in a
# quiet moment.  Times scaled by REF_QUIET_S / reference_s() measured next
# to them read as if the machine had been that quiet.
REF_QUIET_S = 0.12


def reference_s() -> float:
    """Time a fixed piece of interpreter work: integer arithmetic and a dict.

    It stays pure Python because a fresh process's first BLAS calls pay
    for starting the thread pool, which says nothing about the machine.
    """
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(800_000):
        acc = (acc + i * 7919) % 104729
        table[i & 1023] = acc
    return time.perf_counter() - t0


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "jobs": 1,
    }


def main(argv) -> int:
    name, seed = argv[1], int(argv[2])
    spans_file = argv[3] if len(argv) > 3 else None
    spawned = float(os.environ["PERFBENCH_SPAWNED"])
    workload = WORKLOADS[name]
    record = {"workload": name, "seed": seed, "traced": spans_file is not None}
    try:
        state = workload.setup(seed)
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        tracer = None
        if spans_file is not None:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ref_before = reference_s()
        t0 = time.perf_counter()
        result = workload.run(state)
        wall = time.perf_counter() - t0
        ref_after = reference_s()
        if tracer is not None:
            tracer.uninstall()
            tracer.write(spans_file)
        items, outputs = workload.outputs(state, result)
    except Exception:
        record["error"] = traceback.format_exc()
        print(json.dumps(record))
        return 1
    import bggx

    record.update(
        setup_s=ready - spawned,
        wall_s=wall,
        ref_before_s=ref_before,
        ref_after_s=ref_after,
        setup_scaled_s=(ready - spawned) * REF_QUIET_S / ref_before,
        wall_scaled_s=wall * REF_QUIET_S / ((ref_before + ref_after) / 2),
        items=items,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        outputs=outputs,
        bggx_file=bggx.__file__,
        machine=machine(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
