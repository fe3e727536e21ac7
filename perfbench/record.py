"""Record the reference answers the benchmark checks studies against.

    python3 perfbench/record.py

Generates every pool member twice (the JSON must be byte-identical),
runs each member once, checks the generator's promises for it
(``Workload.check_member``: chains validate and converge, case-A variants
need curtailment and stay feasible, day windows curtail on exactly
``feeders.DAY_CURTAILING`` steps) and writes
``reference/<workload>.json``.  Run it only at a commit whose answers are
the reference; the result is checked in.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def record(workload, work: Path) -> dict:
    from workloads import input_digest

    members = {}
    for member, m in workload.load_pool(work / "in").items():
        digest = input_digest(m.net, m.scn)
        if input_digest(*workload.pool[member]()) != digest:
            raise SystemExit(f"{member}: generator is not deterministic")
        latencies, answer = workload.run_member(member, m.scenario,
                                                work / "out" / member)
        workload.check_member(m.path, m.net, answer)
        members[member] = {"digest": digest, "answer": answer}
        print(f"{workload.name} {member}: {sum(latencies):.2f} s over "
              f"{len(latencies)} studies", flush=True)
    return members


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from run import THREAD_VARS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import numpy
    from workloads import TOLERANCES, WORKLOADS, reference_path

    for name, workload in WORKLOADS.items():
        work = ROOT / ".perfbench_work" / f"record-{name}-{os.getpid()}"
        try:
            members = record(workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        doc = {"workload": name, "commit": _commit(),
               "python": platform.python_version(),
               "numpy": numpy.__version__, "tolerances": TOLERANCES,
               "members": members}
        path = reference_path(name)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, sort_keys=True,
                                   separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
