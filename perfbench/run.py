#!/usr/bin/env python3
"""The autojacobin benchmark.

    python3 perfbench/run.py --workload ajb_train --seed 1 --seconds 20 --trace 0

Run from the repository root. `--workload` is ajb_train, baseline_train,
retrieval, or all (each workload in its own process, one after another).
With `--trace 0` the run reports the end-to-end metrics, timed untraced;
with `--trace 1` it reports the per-layer metrics of a traced cycle.
`--smoke` shrinks every workload so a run takes seconds. The last line of
standard output is one JSON object; perfbench/results/ gets the full
record (samples, checks, environment, and the spans of a traced run).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("ajb_train", "baseline_train", "retrieval")

# One BLAS thread, fixed before numpy loads: the program's own AJB_THREADS
# knob is applied only after numpy has started its thread pool.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "AJB_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure cycles until this much time has passed "
                         "(at least two cycles)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for a quick end-to-end check")
    return ap.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process, so no peak RSS is inherited."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "autojacobin" / "__init__.py").is_file():
        print(f"no autojacobin sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for var in THREAD_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import bench  # loads numpy, after the thread variables are set

    return bench.run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.smoke, HERE)


if __name__ == "__main__":
    sys.exit(main())
