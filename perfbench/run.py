#!/usr/bin/env python3
"""seqpa benchmark runner.

    python3 perfbench/run.py [--workload regret_matrix|label_tree|certificates|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; paths are taken from this file's location.  Each
workload runs in a fresh worker process (worker.py); workloads and set-up
repeats run one after another, never in parallel.  With --trace 0 the
worker is untraced and the end-to-end metrics of BENCHMARK.json are
reported; set-up is repeated in SETUP_RUNS processes and its median is
reported.  With --trace 1 the per-layer metrics are reported from a traced
run, together with the tracing overhead.  Every metric is printed by name
with its unit; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  Outputs land in
perfbench/out/<workload>-seed<N>-trace<0|1>/.

--size tiny shrinks every workload so the smoke test can check that all
metrics are emitted; it is not a benchmark setting.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
# a whole workload, set-up repeats included, must end within this
TIME_LIMIT_S = 170.0


def _worker(args, name, out, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, args, spec):
    """Run one workload; prints its report and returns the result object."""
    out = HERE / "out" / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        setups = [_worker(args, name, out / f"setup{k}", deadline, setup_only=True)["setup_s"]
                  for k in range(SETUP_RUNS - 1)]
    res = _worker(args, name, out, deadline)
    setups.append(res["setup_s"])
    checks = res["checks"]
    failed = sum(not c["ok"] for c in checks)
    if args.trace:
        values, wanted = res["layers"], spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(res["walls"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mib": res["peak_rss_mib"],
                  "checks_passed_frac": 1.0 - failed / len(checks)}
        wanted = spec["end_to_end"]

    print(f"== {name}  seed={args.seed}  trace={args.trace}  size={args.size}")
    print("   env: " + ", ".join(f"{k}={v}" for k, v in res["env"].items()))
    print("   untimed set-up runs (s): " + ", ".join(f"{s:.4f}" for s in setups))
    print("   pass walls (s): " + ", ".join(f"{w:.4f}" for w in res["walls"])
          + ("  traced: " + ", ".join(f"{w:.4f}" for w in res["traced_walls"])
             if args.trace else ""))
    for c in checks:
        if not c["ok"]:
            print(f"   FAILED check (pass {c['pass']}): {c['check']}: {c['detail']}")
    for m in wanted:
        print(f"   {m['name']:<34} {values[m['name']]:>18.6g} {m['unit']}")
    print(f"   {'checks_failed_frac':<34} {failed / len(checks):>18.6g} ratio"
          f"  ({failed} failed of {len(checks)} checks)")
    print(f"   outputs: {out.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": len(checks), "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=workloads + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "seqpa" / "__init__.py").is_file():
        print(f"error: no seqpa sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = []
    for name in workloads if args.workload == "all" else [args.workload]:
        try:
            results.append(run_workload(name, args, spec))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
