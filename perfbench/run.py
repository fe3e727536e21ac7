"""feederprot benchmark: one workload per process, metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the run times studies untraced for about
``--seconds`` seconds and prints the end-to-end metrics.  With
``--trace 1`` it runs the seed's first unit of work untraced, then again
under the outside-in tracer, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
answer matches the recorded reference, 1 when one does not, and 2 when
the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

# The load is one process with one thread: pin every BLAS/OpenMP pool.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import feederprot.cli; "
                "print(time.perf_counter() - t)")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float,
                 trace: int) -> tuple[int, list[str]]:
    """Run one workload in a fresh process; its exit code and stdout lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def passing_metrics(name: str, seed: int, seconds: float,
                    trace: int) -> dict:
    """The metrics of a run whose answers all pass; exits otherwise."""
    code, lines = run_workload(name, seed, seconds, trace)
    if code != 0 or not lines or not json.loads(lines[-1])["correct"]:
        raise SystemExit(f"{name} seed {seed} trace {trace}: run failed "
                         f"(exit {code})")
    return json.loads(lines[-1])["metrics"]


def run_all(args) -> int:
    """Run every workload in a fresh process; non-zero if any fails."""
    from workloads import WORKLOADS
    worst = 0
    for name in WORKLOADS:
        code, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"== {name} (exit {code})")
        for line in lines[:-1]:
            print(f"   {line}")
        if lines:
            print(lines[-1])
        worst = max(worst, code)
    return worst


def time_import() -> float:
    """Seconds to import the package in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def setup(workload, work: Path):
    """Generate and load every pool member, SETUP_REPEATS times.

    Returns the median set-up time (fresh-interpreter import plus input
    generation and parsing), the loaded scenarios of the last repeat, the
    reference answers and a note per member whose generated input differs
    from the one its reference was recorded on; such members have no
    reference, so their studies fail.
    """
    from workloads import input_digest, reference_path

    reference = json.loads(reference_path(workload.name).read_text())
    times = []
    for rep in range(SETUP_REPEATS):
        t_import = time_import()
        t0 = time.perf_counter()
        pool = workload.load_pool(work / f"in{rep}")
        times.append(t_import + time.perf_counter() - t0)
    scenarios = {member: m.scenario for member, m in pool.items()}
    notes = []
    for member, m in pool.items():
        digest = input_digest(m.net, m.scn)
        if reference["members"].get(member, {}).get("digest") != digest:
            reference["members"].pop(member, None)
            notes.append(f"{member}: generated input differs from the one "
                         f"the reference was recorded on")
    return statistics.median(times), scenarios, reference, notes


def execute(workload, seed: int, seconds: float, scenarios, reference,
            out: Path):
    """Run whole units of the seed's plan for about ``seconds``.

    After ``min_units`` units, another unit starts only if ending after it
    lands nearer to ``seconds`` than stopping now, so runs last about
    ``seconds`` however long a unit takes.  Quality answers come from the
    first ``min_units`` units only, so they do not depend on speed.
    """
    plan = workload.plan(seed)
    latencies, answers, errors = [], [], []
    failed = done = 0
    start = time.perf_counter()
    while True:
        res = workload.run_unit(plan[done % len(plan)], scenarios, out,
                                reference)
        latencies.extend(res.latencies)
        failed += res.failed
        errors.extend(res.errors)
        if done < workload.min_units:
            answers.extend(res.answers.values())
        done += 1
        elapsed = time.perf_counter() - start
        if done >= workload.min_units and \
                elapsed + 0.5 * elapsed / done >= seconds:
            return latencies, failed, answers, errors


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, args, setup_s, scenarios, reference,
               out: Path) -> tuple[dict, int, int, list[str]]:
    lats, failed, answers, errors = execute(
        workload, args.seed, args.seconds, scenarios, reference, out)
    ok = [x for x in lats if not math.isnan(x)]
    attempted = len(lats)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "studies_per_s": metric(len(ok) / sum(ok) if ok else 0.0, "1/s"),
        "study_p50_s": metric(statistics.median(ok) if ok else 0.0, "s"),
        "pass_ratio": metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "dg_output_pu": metric(sum(a["dg_output"] for a in answers), "pu"),
        "clearing_time_s": metric(sum(a["clearing"] for a in answers), "s"),
    }
    print(f"studies: {attempted} attempted, {failed} failed "
          f"(fail_ratio {failed / attempted:.4g}); study_p50_s over "
          f"{len(ok)} samples")
    return metrics, attempted, failed, errors


def traced(workload, args, scenarios, reference,
           out: Path) -> tuple[dict, int, int, list[str]]:
    from feederprot import netfile
    from tracer import Tracer

    unit = workload.plan(args.seed)[0]
    plain = workload.run_unit(unit, scenarios, out, reference)
    tracer = Tracer()
    tracer.install()
    try:
        # looked up after install, so the load is traced
        loaded = {m: netfile.load_scenario(scenarios[m].network_path.parent
                                           / "scenario.json") for m in unit}
        res = workload.run_unit(unit, loaded, out, reference,
                                on_study=tracer.set_study)
    finally:
        tracer.uninstall()
    tracer.write(TRACE_OUT / f"spans-{workload.name}.npz")
    metrics = tracer.metrics()
    busy_plain, busy_traced = sum(plain.latencies), sum(res.latencies)
    metrics["trace.overhead_ratio"] = (busy_plain / busy_traced
                                       if busy_traced > 0 else 0.0)
    units = {"self_s": "s", "ratio": "ratio"}
    out_metrics = {}
    for key, value in metrics.items():
        unit_name = next((u for suffix, u in units.items()
                          if key.endswith(suffix)), "count")
        out_metrics[key] = metric(value, unit_name)
    attempted = len(plain.latencies) + len(res.latencies)
    return (out_metrics, attempted, plain.failed + res.failed,
            plain.errors + res.errors)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "feederprot" / "__init__.py").is_file():
        fail(f"no feederprot package under {SRC}; run from a checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    from workloads import WORKLOADS, HarnessError
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    import numpy
    import feederprot
    if Path(feederprot.__file__).resolve().parent != SRC / "feederprot":
        fail(f"imported feederprot from {feederprot.__file__}, not {SRC}")

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        setup_s, scenarios, reference, notes = setup(workload, work)
        if args.trace:
            metrics, attempted, failed, errors = traced(
                workload, args, scenarios, reference, work / "out")
        else:
            metrics, attempted, failed, errors = end_to_end(
                workload, args, setup_s, scenarios, reference, work / "out")
    except HarnessError as exc:
        fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("env: " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for err in notes + errors:
        print(f"check failed: {err}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
