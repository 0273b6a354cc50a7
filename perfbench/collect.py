#!/usr/bin/env python3
"""Run perfbench/run.py over several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 1-10 --trace 0 --out baseline.json

For every workload and metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median (the spread), next to the metric's bound from BENCHMARK.json.
Runs are made one at a time, so they do not compete for the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` -> seeds 1 to 10."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default="1-10", help="a range: 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    import numpy
    import scipy

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"measured_on": {"cpus": os.cpu_count(), "platform": platform.platform(),
                              "python": platform.python_version(), "numpy": numpy.__version__,
                              "scipy": scipy.__version__},
              "seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, elapsed = [], []
        for seed in args.seeds:
            t0 = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed.append(time.perf_counter() - t0)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                print(done.stdout, file=sys.stderr)
            runs.append(result)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        totals = report["workloads"][workload] = {
            "metrics": metrics, "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "run_elapsed_s": summarise(elapsed),
        }
        print(f"{workload}: {len(runs)} runs, failed {totals['failed']}/{totals['attempted']} "
              f"checks, median run {statistics.median(elapsed):.1f} s")
        for name, s in metrics.items():
            bound = bounds.get(name)
            print(f"  {name:<36} median {s['median']:<12.6g} spread {s['spread']:.4f}"
                  + (f"  bound {bound}" if bound is not None else ""))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
