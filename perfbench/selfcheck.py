"""Self-check of the traced run's work counters.

    python3 perfbench/selfcheck.py [--write-baseline]

Runs the traced benchmark twice per workload with seed 1 and checks
that every count and count-derived ratio repeats exactly, and that the
layers predicted to do no work on a workload read zero:

* ``optimizer.*`` on study-sweep, which never calls the optimizer;
* ``coordination.build_pairs`` and ``coordination.check_pair`` on
  dispatch-curtail, whose studies never enumerate or check pairs.
  (``coordination.current_grid`` is excluded: the optimizer's settings
  ladder samples its constraints on the same grid.)

Exits 1 when a check fails.  ``--write-baseline`` stores the first
run's per-layer metrics in baseline.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1

PREDICTED_ZERO = {
    "study-sweep": ("optimizer.",),
    "dispatch-curtail": ("coordination.build_pairs.",
                         "coordination.check_pair."),
}


def is_count(name: str, m: dict) -> bool:
    """Counts and ratios of counts; times and the overhead ratio vary."""
    return m["unit"] != "s" and name != "trace.overhead_ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true",
                        help="store the first run's metrics in baseline.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from run import passing_metrics
    from workloads import WORKLOADS

    problems = []
    traced = {}
    for workload in WORKLOADS:
        first = passing_metrics(workload, SEED, 1, 1)
        traced[workload] = {k: m["value"] for k, m in first.items()}
        second = passing_metrics(workload, SEED, 1, 1)
        counts = {k: m["value"] for k, m in first.items() if is_count(k, m)}
        for key, value in counts.items():
            if second[key]["value"] != value:
                problems.append(f"{workload}: {key} = {value} then "
                                f"{second[key]['value']}")
        for prefix in PREDICTED_ZERO.get(workload, ()):
            for key, m in first.items():
                if key.startswith(prefix) and m["value"] != 0:
                    problems.append(f"{workload}: {key} = {m['value']}, "
                                    f"predicted zero")
        print(f"{workload}: {len(counts)} counts compared, "
              f"overhead ratio {first['trace.overhead_ratio']['value']:.3f}"
              f" / {second['trace.overhead_ratio']['value']:.3f}")
        for key in sorted(counts):
            print(f"  {key} = {counts[key]:.10g}")
    for problem in problems:
        print(f"FAIL {problem}")
    if args.write_baseline and not problems:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text()) if path.exists() else {}
        doc["traced"] = {"seed": SEED, "workloads": traced}
        path.write_text(json.dumps(doc, indent=1) + "\n")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
