"""Workload definitions: input pools, study runners, answers and checks.

A workload draws its inputs from a fixed pool of generated members whose
reference answers were recorded with ``record.py``; the run's seed picks
the order in which members are visited.  Each member is run through the
CLI command functions (``feederprot.cli.cmd_*``), which write the same
CSV and JSON artifacts as the command line.  Answers are read back from
those artifacts and compared with the reference under ``TOLERANCES``.

A study is one ``optimize`` (dispatch-curtail), one time-series step
(day-profile), or one feeder's set of ``powerflow``, ``fault`` at every
node and fused lateral, and ``coordinate`` (study-sweep).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import feeders

# Absolute (abs) and relative (rel) tolerances of the answer check.  A
# value passes when |got - ref| <= abs + rel * |ref|.  They are wider
# than the solver tolerances they sit on (load flow 1e-8, dispatch
# bisection 1e-9) so that a change of floating-point evaluation order
# passes, while any change of a verdict, exit code, stop reason or
# feasibility flag fails.
TOLERANCES = {
    "dispatch_pu": (1e-6, 0.0),
    "pickup_pu": (0.0, 1e-6),
    "time_dial": (1e-6, 0.0),
    "clearing_s": (0.0, 1e-6),
    "voltage_pu": (1e-7, 0.0),
    "current_pu": (1e-9, 1e-7),
    "margin_s": (1e-7, 1e-7),
}

STOP_REASON = re.compile(r"alternating optimization: (\w+)")


class HarnessError(Exception):
    """The benchmark itself cannot measure; not a failed study."""


def close(kind: str, got: float, ref: float) -> bool:
    abs_tol, rel_tol = TOLERANCES[kind]
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= abs_tol + rel_tol * abs(ref)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class StepClock:
    """Marks when a time-series step first reads its profile value.

    ``cmd_timeseries`` reads ``profile[unit][step]`` at the start of each
    step, so the first read of index k >= 1 is where step k begins; step 0
    begins when the command is called.  The optional ``on_step`` callback
    lets the tracer tag spans with the step.
    """

    def __init__(self, on_step: Callable[[int], None] | None = None):
        self.first: dict[int, float] = {}
        self.on_step = on_step

    def mark(self, step: int) -> None:
        if step not in self.first:
            self.first[step] = time.perf_counter()
            if self.on_step is not None and step > 0:
                self.on_step(step)


class StampedSeries(tuple):
    """A profile series that reports index reads to a StepClock."""

    def __new__(cls, values, clock: StepClock):
        obj = super().__new__(cls, values)
        obj.clock = clock
        return obj

    def __getitem__(self, key):
        if isinstance(key, int):
            self.clock.mark(key)
        return super().__getitem__(key)


@dataclass
class Member:
    """A generated pool member: its input documents, file and loaded scenario."""
    net: dict
    scn: dict
    path: Path
    scenario: object


@dataclass
class UnitResult:
    latencies: list[float]  # one per study
    failed: int
    answers: dict[str, dict]  # member -> answer
    errors: list[str]


class Workload:
    name = ""
    pool: dict[str, Callable[[], tuple[dict, dict]]]  # member -> generator
    min_units = 1  # units every run completes; quality metrics cover these

    def plan(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def run_member(self, member: str, scn, out_dir: Path,
                   on_step: Callable[[int], None] | None = None,
                   ) -> tuple[list[float], dict]:
        """Run one member; returns (study latencies, answer)."""
        raise NotImplementedError

    def compare(self, answer: dict, ref: dict) -> list[int]:
        """Indices of the member's studies whose answer fails the check."""
        raise NotImplementedError

    def n_studies(self, member: str) -> int:
        return 1

    def check_member(self, scenario_path: Path, net: dict,
                     answer: dict) -> None:
        """Raise unless a generated member keeps the generator's promises."""
        raise NotImplementedError

    def load_pool(self, directory: Path) -> dict[str, Member]:
        """Generate every pool member, write it under ``directory``, load it."""
        from feederprot.netfile import load_scenario
        members = {}
        for member, generate in self.pool.items():
            net, scn = generate()
            path = feeders.write_input(directory / member, net, scn)
            members[member] = Member(net, scn, path, load_scenario(path))
        return members

    def run_unit(self, unit: list[str], scenarios: dict, out_root: Path,
                 reference: dict | None,
                 on_study: Callable[[int], None] | None = None,
                 ) -> UnitResult:
        res = UnitResult([], 0, {}, [])
        for member in unit:
            base = len(res.latencies)
            step_hook = None
            if on_study is not None:
                on_study(base)
                step_hook = (lambda k, b=base: on_study(b + k))
            try:
                lats, answer = self.run_member(member, scenarios[member],
                                               out_root / member, step_hook)
            except HarnessError:
                raise
            except Exception as exc:  # a raising study is a failed study
                n = self.n_studies(member)
                res.latencies.extend([math.nan] * n)
                res.failed += n
                res.errors.append(f"{member}: {type(exc).__name__}: {exc}")
                continue
            res.latencies.extend(lats)
            res.answers[member] = answer
            if reference is None:
                continue
            ref = reference["members"].get(member)
            if ref is None:
                bad = list(range(len(lats)))
                res.errors.append(f"{member}: no reference answer")
            else:
                bad = self.compare(answer, ref["answer"])
                if bad:
                    res.errors.append(f"{member}: studies {bad} differ "
                                      f"from the reference")
            res.failed += len(bad)
        return res


def _rotated(rng: random.Random, keys: list[str]) -> list[str]:
    return rng.sample(keys, len(keys))


class DispatchCurtail(Workload):
    """``optimize`` on seed-scaled variants of ieee37 case A."""

    name = "dispatch-curtail"
    size = 12
    min_units = 2

    def __init__(self):
        self.pool = {f"dc{k}": (lambda k=k: feeders.case_a_variant(k))
                     for k in range(self.size)}

    def plan(self, seed):
        return [[m] for m in _rotated(random.Random(seed), list(self.pool))]

    def run_member(self, member, scn, out_dir, on_step=None):
        from feederprot import cli
        t0 = time.perf_counter()
        report, code = cli.cmd_optimize(scn, out_dir)
        latency = time.perf_counter() - t0
        m = STOP_REASON.search("\n".join(report.lines))
        dispatch = {r["dg_id"]: float(r["p_out_pu"])
                    for r in _read_csv(out_dir / "dispatch_final.csv")}
        settings = json.loads((out_dir / "settings_final.json").read_text())
        trace = _read_csv(out_dir / "trace.csv")
        answer = {
            "exit": code,
            "stop": m.group(1) if m else None,
            "dispatch": dispatch,
            "settings": {rid: [st["pickup"], st["time_dial"]]
                         for rid, st in settings.items()},
            "clearing": float(trace[-1]["total_clearing_time_s"]),
            "dg_output": sum(dispatch.values()),
        }
        return [latency], answer

    def compare(self, answer, ref):
        ok = (answer["exit"] == ref["exit"] and answer["stop"] == ref["stop"]
              and answer["dispatch"].keys() == ref["dispatch"].keys()
              and answer["settings"].keys() == ref["settings"].keys()
              and close("clearing_s", answer["clearing"], ref["clearing"]))
        ok = ok and all(close("dispatch_pu", answer["dispatch"][k], v)
                        for k, v in ref["dispatch"].items())
        ok = ok and all(close("pickup_pu", answer["settings"][k][0], v[0])
                        and close("time_dial", answer["settings"][k][1], v[1])
                        for k, v in ref["settings"].items())
        return [] if ok else [0]

    def check_member(self, scenario_path, net, answer):
        feeders.check_case_a_band(scenario_path)


class DayProfile(Workload):
    """``timeseries`` with the case-B cadence on a jittered evening window."""

    name = "day-profile"
    size = 6
    min_units = 2

    def __init__(self):
        self.pool = {f"day{k}": (lambda k=k: feeders.day_window(k))
                     for k in range(self.size)}

    def n_studies(self, member):
        return feeders.DAY_STEPS

    def plan(self, seed):
        return [[m] for m in _rotated(random.Random(seed), list(self.pool))]

    def run_member(self, member, scn, out_dir, on_step=None):
        from feederprot import cli
        clock = StepClock(on_step)
        stamped = replace(scn, profile={k: StampedSeries(v, clock)
                                        for k, v in scn.profile.items()})
        t0 = time.perf_counter()
        report, code = cli.cmd_timeseries(stamped, out_dir)
        t_end = time.perf_counter()
        steps = len(next(iter(scn.profile.values())))
        marks = [clock.first.get(k) for k in range(steps)]
        if None in marks or marks != sorted(marks):
            raise HarnessError("time-series steps did not read the profile "
                              "in step order; step latencies unavailable")
        bounds = [t0] + marks[1:] + [t_end]
        latencies = [b - a for a, b in zip(bounds, bounds[1:])]
        rows = _read_csv(out_dir / "timeseries.csv")
        steps_out = []
        for row in rows:
            steps_out.append({
                "feasible": int(row["feasible"]),
                "dispatch": {k: float(v) for k, v in row.items()
                             if k.startswith("dg_")},
                "dials": {k: float(v) for k, v in row.items()
                          if k.startswith("tds_")},
                "clearing": float(row["total_clearing_time_s"]),
            })
        answer = {
            "exit": code,
            "steps": steps_out,
            "dg_output": sum(sum(s["dispatch"].values()) for s in steps_out),
            "clearing": sum(s["clearing"] for s in steps_out),
        }
        return latencies, answer

    def compare(self, answer, ref):
        n = len(ref["steps"])
        if answer["exit"] != ref["exit"] or len(answer["steps"]) != n:
            return list(range(n))
        bad = []
        for k, (got, want) in enumerate(zip(answer["steps"], ref["steps"])):
            ok = (got["feasible"] == want["feasible"]
                  and got["dispatch"].keys() == want["dispatch"].keys()
                  and got["dials"].keys() == want["dials"].keys()
                  and close("clearing_s", got["clearing"], want["clearing"]))
            ok = ok and all(close("dispatch_pu", got["dispatch"][c], v)
                            for c, v in want["dispatch"].items())
            ok = ok and all(close("time_dial", got["dials"][c], v)
                            for c, v in want["dials"].items())
            if not ok:
                bad.append(k)
        return bad

    def check_member(self, scenario_path, net, answer):
        available = {f"dg_{u['id']}_p_pu": u["p"] for u in net["dg"]
                     if u.get("curtailable")}
        curtailing = sum(any(step["dispatch"][k] < p - 1e-9
                             for k, p in available.items())
                         for step in answer["steps"])
        if curtailing != feeders.DAY_CURTAILING:
            raise ValueError(f"{scenario_path}: {curtailing} curtailing "
                             f"steps, expected {feeders.DAY_CURTAILING}")


class StudySweep(Workload):
    """powerflow, fault everywhere and coordinate on synthetic chains."""

    name = "study-sweep"
    sizes = (12, 50, 200)
    size = 4

    def __init__(self):
        self.pool = {f"n{n}s{k}": (lambda n=n, k=k: feeders.chain_feeder(n, k))
                     for n in self.sizes for k in range(self.size)}

    def plan(self, seed):
        rng = random.Random(seed)
        orders = [_rotated(rng, [f"n{n}s{k}" for k in range(self.size)])
                  for n in self.sizes]
        return [list(unit) for unit in zip(*orders)]

    def run_member(self, member, scn, out_dir, on_step=None):
        from feederprot import cli, fault
        net = scn.network
        locations = ([fault.at_node(k) for k in range(net.n_nodes)]
                     + [fault.at_lateral(l.id) for l in net.laterals
                        if l.fuse is not None])
        busy = 0.0
        t0 = time.perf_counter()
        _, pf_code = cli.cmd_powerflow(scn, out_dir)
        busy += time.perf_counter() - t0
        volts = [float(r["v_pu"])
                 for r in _read_csv(out_dir / "powerflow_nodes.csv")]
        faults = {}
        for loc in locations:
            t0 = time.perf_counter()
            _, code = cli.cmd_fault(scn, loc, out_dir)
            busy += time.perf_counter() - t0
            rows = _read_csv(out_dir / "fault.csv")
            faults[f"{loc.kind}:{loc.ref}"] = [code] + [
                float(r["current_pu"]) for r in rows]
        t0 = time.perf_counter()
        _, co_code = cli.cmd_coordinate(scn, out_dir)
        busy += time.perf_counter() - t0
        pairs = {}
        clearing = 0.0
        for r in _read_csv(out_dir / "coordination.csv"):
            pairs[r["pair_id"]] = [r["range_ok"], r["margin_ok"],
                                   r["failure_mode"],
                                   float(r["worst_margin_s"])]
            curve = _read_csv(out_dir / f"pair_{r['pair_id']}_curves.csv")
            clearing += float(curve[-1]["t_primary_s"])
        answer = {
            "powerflow": [pf_code, volts],
            "faults": faults,
            "coordinate": [co_code, pairs],
            "dg_output": sum(u.p_out for u in net.dg_units),
            "clearing": clearing,
        }
        return [busy], answer

    def compare(self, answer, ref):
        pf_code, volts = answer["powerflow"]
        ok = (pf_code == ref["powerflow"][0]
              and len(volts) == len(ref["powerflow"][1])
              and all(close("voltage_pu", a, b)
                      for a, b in zip(volts, ref["powerflow"][1])))
        ok = ok and answer["faults"].keys() == ref["faults"].keys()
        for loc, want in ref["faults"].items() if ok else ():
            got = answer["faults"][loc]
            ok = (ok and got[0] == want[0] and len(got) == len(want)
                  and all(close("current_pu", a, b)
                          for a, b in zip(got[1:], want[1:])))
        co_code, pairs = answer["coordinate"]
        ok = (ok and co_code == ref["coordinate"][0]
              and pairs.keys() == ref["coordinate"][1].keys())
        for pid, want in ref["coordinate"][1].items() if ok else ():
            got = pairs[pid]
            ok = (ok and got[:3] == want[:3]
                  and close("margin_s", got[3], want[3]))
        ok = ok and close("clearing_s", answer["clearing"], ref["clearing"])
        return [] if ok else [0]

    def check_member(self, scenario_path, net, answer):
        feeders.check_chain(scenario_path)


WORKLOADS = {w.name: w for w in (DispatchCurtail(), DayProfile(),
                                 StudySweep())}


def input_digest(net: dict, scn: dict) -> str:
    text = feeders.dumps(net) + feeders.dumps(scn)
    return hashlib.sha256(text.encode()).hexdigest()


def reference_path(workload: str) -> Path:
    return Path(__file__).resolve().parent / "reference" / f"{workload}.json"
