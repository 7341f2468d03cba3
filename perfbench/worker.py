"""Run one benchmark workload in this (fresh) process.

Started by run.py.  Set-up is the import of seqpa, numpy and scipy, input
generation from the seed and an untimed warm-up; then timed passes over
every task of the workload repeat until the next pass would end after
--seconds (at least two passes), and each pass's outputs are checked
untimed.  With --trace 1, passes alternate traced and untraced, traced
first.  Prints one JSON line with the raw measurements and writes
result.json (and, traced, spans.jsonl and layers_by_task.csv) to --out.
"""

import argparse
import ctypes
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

# set-up time counts from here: the stdlib imports above take milliseconds
_START = time.perf_counter()

# BLAS threads are pinned before numpy is imported; 1 keeps the load of a
# workload on one core and its timings free of thread scheduling.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2


def _openblas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, or None."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_runtime": _openblas_threads(np),
        "machine": platform.machine(),
    }


def run_pass(workload, index, tracer):
    """Run every task once; returns (wall seconds, results, warnings raised)."""
    tasks = workload.tasks(index)
    results = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.pass_index = index
            tracer.install()
        try:
            start = time.perf_counter()
            for task, fn in tasks:
                if tracer is not None:
                    tracer.task = task
                results[task] = fn()
            wall = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
    return wall, results, [f"{w.category.__name__}: {w.message}" for w in caught]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import seqpa

    if Path(seqpa.__file__).resolve().parent != ROOT / "src" / "seqpa":
        raise SystemExit(f"imported seqpa from {seqpa.__file__}, not from {ROOT / 'src'}")
    import tracing
    import workloads

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", out)
    workload.warm_up()
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, checks = [], [], []
    start = time.perf_counter()
    for index in itertools.count():
        traced = tracer is not None and index % 2 == 0
        wall, results, caught = run_pass(workload, index, tracer if traced else None)
        (traced_walls if traced else walls).append(wall)
        pass_checks = workload.check(results)
        pass_checks.append(("no warnings during the pass", not caught, "; ".join(caught)))
        checks += [{"pass": index, "check": name, "ok": bool(ok), "detail": detail}
                   for name, ok, detail in pass_checks]
        del results  # so the next pass's peak RSS does not include this one's outputs
        elapsed = time.perf_counter() - start
        if index + 1 >= MIN_PASSES and elapsed + statistics.median(walls + traced_walls) > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "setup_s": setup_s, "walls": walls, "traced_walls": traced_walls,
              "peak_rss_mib": peak_rss_mib, "checks": checks, "env": environment()}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = layers
        tracer.write(out / "spans.jsonl", out / "layers_by_task.csv")
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
