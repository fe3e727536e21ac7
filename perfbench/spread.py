"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py [--write-baseline]

Runs the untraced benchmark ten times per workload, at seeds 101 to 110,
and prints each metric's median and its quartile spread
(Q3 - Q1 of ``statistics.quantiles(values, n=4)``, as a share of the
median) next to a third of the metric's bound from BENCHMARK.json.
``--write-baseline`` stores the medians and spreads in baseline.json,
keeping its prediction mapping.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 101


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from run import passing_metrics
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    for w in bench["workloads"]:
        workload = w["name"]
        runs = [{k: m["value"] for k, m in passing_metrics(
                    workload, FIRST_SEED + k, bench["run_seconds"], 0).items()}
                for k in range(RUNS)]
        summary[workload] = {}
        print(f"{workload}: {RUNS} runs", flush=True)
        for metric in bounds:
            values = [r[metric] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][metric] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": spread}
            flag = "" if spread < bounds[metric] / 3 else "  <-- wide"
            print(f"  {metric:16s} median {med:.6g}  spread {spread:.4f}  "
                  f"(a third of bound {bounds[metric] / 3:.4f}){flag}")
            print("    " + " ".join(f"{v:.5g}" for v in values))
    if args.write_baseline:
        import numpy
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        doc["baseline"] = {
            "commit": proc.stdout.strip() or "unknown",
            "env": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": numpy.__version__},
            "runs": RUNS, "first_seed": FIRST_SEED,
            "run_seconds": bench["run_seconds"], "workloads": summary}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
