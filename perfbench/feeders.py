"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives
byte-identical JSON.  Shipped inputs are read through
``feederprot.netfile.fixtures_dir()`` so the generators work from any
directory.

* ``case_a_variant``  -- ieee37 case A with jittered lateral loads and a
  scaled curtailable-DG block (dispatch-curtail).
* ``day_window``      -- the case-B network with a seed-jittered evening
  window of the shipped profile (day-profile).
* ``chain_feeder``    -- a synthetic radial chain of N nodes with fused
  laterals, DG of all three kinds and four reclosers (study-sweep).
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

FUSE_NAMES = ("f37a", "f37b", "f37c", "fa", "fb")

# Curtailable-DG scale band for case A.  At 0.97 the block still
# curtails by about 15 % and at 1.03 the fully curtailed point is still
# feasible, so every variant sits at the paper's constrained operating
# point; ``check_case_a_band`` re-checks both ends per variant.
CASE_A_DG_SCALE = (0.97, 1.03)
LOAD_JITTER = 0.02

# Evening-to-morning window of the case-B day, read cyclically from step
# 17: step 17 curtails, the other thirteen do not.  Step 16 (which also
# curtails) and steps 7 and 8 (whose slack sits near zero at the shipped
# profile) are left out, so the jitter cannot flip a step between modes.
# One curtailing step in fourteen keeps the median step among the ten
# plain dispatch steps.
DAY_START = 17
DAY_STEPS = 14
DAY_CURTAILING = 1
PROFILE_JITTER = 0.02


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _fixture(name: str) -> dict:
    from feederprot.netfile import fixtures_dir
    return json.loads((fixtures_dir() / name).read_text())


def _jitter(rng: random.Random, value: float, spread: float) -> float:
    return round(value * (1.0 + rng.uniform(-spread, spread)), 9)


def case_a_variant(seed: int) -> tuple[dict, dict]:
    """(network, scenario) documents of one dispatch-curtail input."""
    rng = random.Random(f"case-a-{seed}")
    net = _fixture("ieee37.json")
    scn = _fixture("ieee37_case_a.json")
    for lat in net["laterals"]:
        lat["p"] = _jitter(rng, lat["p"], LOAD_JITTER)
        lat["q"] = _jitter(rng, lat["q"], LOAD_JITTER)
    scale = rng.uniform(*CASE_A_DG_SCALE)
    for unit in net["dg"]:
        if unit.get("curtailable"):
            unit["p"] = round(unit["p"] * scale, 9)
            unit["q"] = round(unit["q"] * scale, 9)
            # rounded up, so the scaled output stays within the rating
            unit["rating"] = max(unit["rating"], math.ceil(
                math.hypot(unit["p"], unit["q"]) * 1e9) / 1e9)
    net["notes"] = f"ieee37 case A variant, seed {seed}"
    scn["notes"] = f"dispatch-curtail input, seed {seed}"
    scn["network"] = "network.json"
    return net, scn


def day_window(seed: int) -> tuple[dict, dict]:
    """(network, scenario) documents of one day-profile input."""
    rng = random.Random(f"day-{seed}")
    net = _fixture("ieee37.json")
    scn = _fixture("ieee37_case_b.json")
    profile = {}
    for unit_id, series in sorted(scn["profile"].items()):
        window = [series[(DAY_START + k) % len(series)]
                  for k in range(DAY_STEPS)]
        profile[unit_id] = [_jitter(rng, v, PROFILE_JITTER) for v in window]
    scn["profile"] = profile
    net["notes"] = "ieee37 as shipped"
    scn["notes"] = f"day-profile input, seed {seed}"
    scn["network"] = "network.json"
    return net, scn


def chain_feeder(n: int, seed: int) -> tuple[dict, dict]:
    """(network, scenario) documents of an n-node synthetic radial chain.

    The topology is fixed by n (laterals every ``stride`` nodes, DG and
    reclosers at fixed fractions of the length) so that feeders of one
    size do the same amount of work; the seed jitters impedances, loads
    and DG outputs.
    """
    if n < 12:
        raise ValueError("chain feeders need at least 12 nodes")
    rng = random.Random(f"chain-{n}-{seed}")
    r_total, x_total = 0.03, 0.12
    sections = []
    for k in range(n - 1):
        r = r_total / (n - 1) * rng.uniform(0.8, 1.2)
        x = x_total / (n - 1) * rng.uniform(0.8, 1.2)
        sections.append({"from": k, "to": k + 1, "r": round(r, 9),
                         "x": round(x, 9)})

    stride = max(2, n // 50)
    taps = list(range(1, n, stride))
    load_each = 1.0 / len(taps)
    laterals = []
    for j, tap in enumerate(taps):
        p = round(load_each * rng.uniform(0.8, 1.2), 9)
        lat = {"id": j + 1, "tap": tap, "p": p,
               "q": round(p * rng.uniform(0.4, 0.55), 9)}
        if j > 0:  # the first lateral is unfused, as on ieee37
            lat["fuse"] = FUSE_NAMES[j % len(FUSE_NAMES)]
        laterals.append(lat)

    n_dg = max(3, n // 20)
    dg = []
    for j in range(n_dg):
        tap = round((j + 1) * (n - 1) / (n_dg + 1))
        kind = ("synchronous", "asynchronous", "inverter")[j % 3]
        if kind == "synchronous":
            p = round(0.1 * rng.uniform(0.9, 1.1), 9)
            unit = {"kind": kind, "rating": 0.15, "p": p, "q": round(p / 2, 9),
                    "curtailable": True, "params": {"xd2": 2.0}}
        elif kind == "asynchronous":
            p = round(0.08 * rng.uniform(0.9, 1.1), 9)
            unit = {"kind": kind, "rating": 0.15, "p": p,
                    "q": round(p * 0.3, 9), "params": {"x_lr": 2.2}}
        else:
            unit = {"kind": kind, "rating": 0.06,
                    "p": round(0.05 * rng.uniform(0.9, 1.1), 9), "q": 0.0,
                    "params": {"k_off": 3.0, "k_clamp": 1.5,
                               "coupling_x": 0.45}}
        dg.append({"id": j + 1, "tap": tap, **unit})

    def downstream_load(node: int) -> float:
        p = sum(l["p"] for l in laterals if l["tap"] >= node)
        q = sum(l["q"] for l in laterals if l["tap"] >= node)
        return (p * p + q * q) ** 0.5

    reclosers = [{"id": "RLY", "node": 0, "pattern": "S", "curves": [
        {"tag": "slow", "family": "extremely_inverse", "pickup": 2.3,
         "time_dial": 0.8}]}]
    for k, frac in enumerate((0.2, 0.45, 0.75), start=1):
        node = round(frac * (n - 1))
        pickup = round(max(0.2, 2.0 * downstream_load(node)), 4)
        fast = {"tag": "fast", "family": "extremely_inverse",
                "pickup": pickup, "time_dial": 0.2}
        reclosers.append({"id": f"R{k}", "node": node, "pattern": "F-F-S",
                          "curves": [fast, dict(fast),
                                     {**fast, "tag": "slow",
                                      "time_dial": 0.6}]})

    net = {"notes": f"synthetic {n}-node radial chain, seed {seed}",
           "bases": {"mva": 2.5, "kv": 4.8},
           "source": {"voltage": 1.0, "r": 0.004, "x": 0.03},
           "sections": sections, "laterals": laterals, "dg": dg,
           "reclosers": reclosers}
    scn = {"notes": f"study-sweep input, {n} nodes, seed {seed}",
           "network": "network.json",
           "margins": {"fuse_recloser": 0.1, "recloser_recloser": 0.3},
           "fault_impedance_floor": 0.12}
    return net, scn


def write_input(directory: Path, net: dict, scn: dict) -> Path:
    """Write a generated pair; returns the scenario path."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "network.json").write_text(dumps(net))
    path = directory / "scenario.json"
    path.write_text(dumps(scn))
    return path


def check_chain(scenario_path: Path) -> None:
    """Raise unless the generated chain validates and its load flow converges."""
    from feederprot.model import validate
    from feederprot.netfile import load_scenario
    from feederprot.power_flow import solve_distflow

    scn = load_scenario(scenario_path)
    problems = validate(scn.network)
    if problems:
        raise ValueError(f"{scenario_path}: {problems}")
    if not solve_distflow(scn.network, tol=scn.powerflow_tol).converged:
        raise ValueError(f"{scenario_path}: load flow does not converge")


def check_case_a_band(scenario_path: Path) -> None:
    """Raise unless the variant needs curtailment and full curtailment is
    feasible, probed through the optimizer's feasibility test."""
    from feederprot import optimizer as opt
    from feederprot.netfile import load_scenario

    scn = load_scenario(scenario_path)
    config = opt.OptimizerConfig(
        fr_margin=scn.fr_margin, rr_margin=scn.rr_margin,
        fault_impedance_floor=scn.fault_impedance_floor,
        obj_tol=scn.objective_tol, dispatch_tol=scn.dispatch_tol,
        max_iters=scn.max_iters)
    ids = [u.id for u in scn.network.dg_units if u.curtailable]
    full = scn.network
    off = full.with_dg_outputs({i: 0.0 for i in ids})
    if opt.settings_feasible_at(full, scn.fuse_curves, config):
        raise ValueError(f"{scenario_path}: no curtailment needed")
    if not opt.settings_feasible_at(off, scn.fuse_curves, config):
        raise ValueError(f"{scenario_path}: infeasible even fully curtailed")
