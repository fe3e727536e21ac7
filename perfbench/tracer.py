"""Outside-in tracer for the traced benchmark run.

Each named function is wrapped at every feederprot module that binds it
(``fuse_time`` in curves, optimizer and coordination, ``solve_distflow``
in power_flow, optimizer and cli, ...), so calls are seen wherever they
come from without touching the package.  A span is (name, start, end,
parent, study); spans live in flat arrays in memory and are written out
once at the end.  Self time is a span's duration minus its direct
children's.  Work counters and waste ratios are derived only from the
wrapped calls' arguments and return values.
"""

from __future__ import annotations

import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (module, function) pairs; a function missing from the package is
# skipped and its metrics read zero.
TARGETS = (
    ("netfile", "load_scenario"),
    ("power_flow", "solve_distflow"),
    ("fault", "solve_fault"),
    ("fault", "build_all_fault_models"),
    ("fault", "max_min_fault_currents"),
    ("curves", "fuse_time"),
    ("curves", "tci_time"),
    ("coordination", "build_pairs"),
    ("coordination", "check_pair"),
    ("coordination", "current_grid"),
    ("optimizer", "alternate"),
    ("optimizer", "dispatch_to_fixed_point"),
    ("optimizer", "solve_dispatch"),
    ("optimizer", "settings_feasible_at"),
    ("optimizer", "build_settings_subproblem"),
    ("optimizer", "build_dispatch_subproblem"),
    ("optimizer", "_solve_settings_at_pickups"),
    ("cli", "cmd_powerflow"),
    ("cli", "cmd_fault"),
    ("cli", "cmd_coordinate"),
    ("cli", "cmd_optimize"),
    ("cli", "cmd_timeseries"),
)

# metric prefix -> span name, where the two differ
ALIASES = {"optimizer.ladder": "optimizer._solve_settings_at_pickups"}

# Per-layer metrics with a trailing .calls/.self_s pair.
TIMED = (
    "netfile.load_scenario", "power_flow.solve_distflow", "fault.solve_fault",
    "fault.build_all_fault_models", "fault.max_min_fault_currents",
    "curves.fuse_time", "curves.tci_time", "coordination.build_pairs",
    "coordination.check_pair", "optimizer.alternate",
    "optimizer.solve_dispatch", "optimizer.settings_feasible_at",
    "optimizer.build_settings_subproblem",
    "optimizer.build_dispatch_subproblem", "optimizer.ladder",
)


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.study = array("i")
        self.stack = [-1]
        self.current_study = -1
        self.patched: list[tuple[object, str, object]] = []
        # state keys: id(network) -> (network, key number); the network is
        # kept so its id is not reused while the tracer lives
        self._net_keys: dict[int, tuple[object, int]] = {}
        self._key_numbers: dict[tuple, int] = {}
        self._seen: dict[str, set] = {}
        self.set_study(-1)
        self._last_pass: dict[int, object] = {}
        self.counts = {
            "power_flow.sweep_iterations": 0,
            "power_flow.repeats": 0,
            "fault.states": 0,
            "coordination.current_grid.points": 0,
            "optimizer.alternate.iterations": 0,
            "optimizer.fixed_point.noop_passes": 0,
            "optimizer.fixed_point.later_passes": 0,
            "optimizer.probe.feasible": 0,
            "optimizer.probe.repeats": 0,
        }

    # -- study boundaries -------------------------------------------------
    def set_study(self, study: int) -> None:
        """Tag later spans with ``study``; repeat detection restarts."""
        self.current_study = study
        self._seen = {"flow": set(), "fault": set(), "probe": set()}

    # -- state keys --------------------------------------------------------
    def _state(self, network) -> int:
        """Number of the network's electrical state (settings excluded)."""
        hit = self._net_keys.get(id(network))
        if hit is None:
            key = (network.sections, network.laterals, network.dg_units,
                   network.source)
            number = self._key_numbers.setdefault(key, len(self._key_numbers))
            hit = self._net_keys[id(network)] = (network, number)
        return hit[1]

    # -- observers ---------------------------------------------------------
    def _on_flow(self, args, kwargs, result, parent):
        net = _arg(args, kwargs, 0, "network")
        key = (self._state(net), _arg(args, kwargs, 1, "tol"),
               _arg(args, kwargs, 2, "max_iter"))
        self.counts["power_flow.sweep_iterations"] += result.iterations
        seen = self._seen["flow"]
        if key in seen:
            self.counts["power_flow.repeats"] += 1
        seen.add(key)

    def _on_fault(self, args, kwargs, result, parent):
        key = self._state(_arg(args, kwargs, 0, "network"))
        seen = self._seen["fault"]
        if key not in seen:
            seen.add(key)
            self.counts["fault.states"] += 1

    def _on_grid(self, args, kwargs, result, parent):
        self.counts["coordination.current_grid.points"] += len(result)

    def _on_alternate(self, args, kwargs, result, parent):
        self.counts["optimizer.alternate.iterations"] += len(
            result[0].iterations)

    def _on_probe(self, args, kwargs, result, parent):
        net = _arg(args, kwargs, 0, "network")
        key = tuple((u.id, u.p_out) for u in net.dg_units)
        if result:
            self.counts["optimizer.probe.feasible"] += 1
        seen = self._seen["probe"]
        if key in seen:
            self.counts["optimizer.probe.repeats"] += 1
        seen.add(key)

    def _on_dispatch(self, args, kwargs, result, parent):
        if parent < 0 or self.names[self.name[parent]] != \
                "optimizer.dispatch_to_fixed_point":
            return
        if parent in self._last_pass:
            self.counts["optimizer.fixed_point.later_passes"] += 1
            if self._last_pass[parent] == result:
                self.counts["optimizer.fixed_point.noop_passes"] += 1
        self._last_pass[parent] = dict(result)

    OBSERVERS = {
        "power_flow.solve_distflow": _on_flow,
        "fault.solve_fault": _on_fault,
        "coordination.current_grid": _on_grid,
        "optimizer.alternate": _on_alternate,
        "optimizer.settings_feasible_at": _on_probe,
        "optimizer.solve_dispatch": _on_dispatch,
    }

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, span_name: str, fn):
        index = len(self.names)
        self.names.append(span_name)
        observer = self.OBSERVERS.get(span_name)
        names, starts, ends = self.name, self.start, self.end
        parents, studies, stack = self.parent, self.study, self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span = len(starts)
            parent = stack[-1]
            names.append(index)
            parents.append(parent)
            studies.append(tracer.current_study)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observer is not None:
                observer(tracer, args, kwargs, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "feederprot" or n.startswith("feederprot."))
                   and m is not None]
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"feederprot.{mod_name}")
            fn = getattr(home, fn_name, None)
            if not callable(fn):
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self.patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self.patched):
            setattr(mod, attr, value)
        self.patched.clear()

    # -- results -----------------------------------------------------------
    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        return name, start, end, parent

    def metrics(self) -> dict[str, float]:
        name, start, end, parent = self._arrays()
        n_names = max(len(self.names), 1)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        index = {n: i for i, n in enumerate(self.names)}

        def calls_of(span: str) -> int:
            return int(calls[index[span]]) if span in index else 0

        def self_of(span: str) -> float:
            return float(self_s[index[span]]) if span in index else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for metric in TIMED:
            span = ALIASES.get(metric, metric)
            out[f"{metric}.calls"] = calls_of(span)
            out[f"{metric}.self_s"] = self_of(span)

        c = self.counts
        flows = calls_of("power_flow.solve_distflow")
        out["power_flow.sweep_iterations"] = c["power_flow.sweep_iterations"]
        out["power_flow.repeat_ratio"] = ratio(c["power_flow.repeats"], flows)
        out["fault.solves_per_state"] = ratio(calls_of("fault.solve_fault"),
                                              c["fault.states"])
        out["coordination.current_grid.points"] = \
            c["coordination.current_grid.points"]
        out["optimizer.alternate.iterations"] = \
            c["optimizer.alternate.iterations"]
        fp = "optimizer.dispatch_to_fixed_point"
        out[f"{fp}.calls"] = calls_of(fp)
        passes = 0
        if fp in index and "optimizer.solve_dispatch" in index:
            under = (name == index["optimizer.solve_dispatch"]) & has_parent
            passes = int(np.count_nonzero(
                name[parent[under]] == index[fp]))
        out[f"{fp}.passes"] = passes
        out["optimizer.fixed_point.noop_ratio"] = ratio(
            c["optimizer.fixed_point.noop_passes"],
            c["optimizer.fixed_point.later_passes"])
        probes = calls_of("optimizer.settings_feasible_at")
        out["optimizer.probe.feasible_ratio"] = ratio(
            c["optimizer.probe.feasible"], probes)
        out["optimizer.probe.repeat_ratio"] = ratio(
            c["optimizer.probe.repeats"], probes)
        cmd = [s for s in self.names if s.startswith("cli.cmd_")]
        out["cli.cmd.calls"] = sum(calls_of(s) for s in cmd)
        out["cli.cmd.self_s"] = sum(self_of(s) for s in cmd)
        return out

    def write(self, path: Path) -> None:
        name, start, end, parent = self._arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name=name, start=start,
                     end=end, parent=parent,
                     study=np.frombuffer(self.study, dtype=np.int32))
