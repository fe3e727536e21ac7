"""End-to-end acceptance checks.

Each test covers one stated criterion, exercises the shipped fixtures
or constructed cases at the stated tolerance, and prints a single
verdict line.
"""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from feederprot import coordination as coord
from feederprot import fault as flt
from feederprot import optimizer as opt
from feederprot.curves import (NO_OPERATION, RecloserSettings, TCIConstants,
                               tci_time)
from feederprot.model import (AsynchronousParams, DGKind, DGUnit,
                              InverterParams, SynchronousParams)
from feederprot.netfile import FUSES, fixtures_dir
from feederprot.power_flow import solve_distflow

from conftest import pair_checks, tci_inverse
from test_optimizer import grid_search_settings, two_recloser_toy


def report(name, detail):
    print(f"PASS {name}: {detail}")


def test_01_recloser_fault_current_table(case_a_scenario):
    """Calibrated 37-bus feeder reproduces the published recloser
    maximum fault currents within 15 percent, without DG."""
    start = time.monotonic()
    net = replace(case_a_scenario.network, dg_units=())
    kernel = flt.fault_kernel(net, solve_distflow(net))
    _, zones = coord.study_pairs(kernel,
                                 case_a_scenario.fault_impedance_floor)
    targets = {"R1": 2975.0, "R2": 2445.0, "R3": 1823.0}
    got = {}
    for rid, target in targets.items():
        i_max, _ = zones[rid]
        amps = i_max * net.base_amps
        got[rid] = amps
        assert abs(amps - target) / target < 0.15, (rid, amps, target)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report("fault current table",
           " ".join(f"{r}={got[r]:.0f}A" for r in targets)
           + f" within 15% in {elapsed:.2f}s")


def test_02_disparity_identities_random_placements(five_node_scenario):
    """Fuse-recloser and recloser-recloser disparities equal the
    explicit per-DG contribution sums for 50 random placements."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    base = replace(five_node_scenario.network, dg_units=())

    def random_unit(uid):
        tap = int(rng.integers(1, 5))
        kind = rng.choice(["synchronous", "asynchronous", "inverter"])
        p = float(rng.uniform(0.02, 0.25))
        if kind == "synchronous":
            return DGUnit(uid, tap, DGKind.SYNCHRONOUS, 0.35, p, 0.3 * p,
                          SynchronousParams(xd2=float(rng.uniform(0.3, 2.5))))
        if kind == "asynchronous":
            return DGUnit(uid, tap, DGKind.ASYNCHRONOUS, 0.35, p, 0.3 * p,
                          AsynchronousParams(
                              x_lr=float(rng.uniform(1.0, 3.0))))
        return DGUnit(uid, tap, DGKind.INVERTER, 0.35, p, 0.0,
                      InverterParams(k_off=3.0, k_clamp=1.5, coupling_x=0.5))

    for trial in range(50):
        units = tuple(random_unit(k + 1)
                      for k in range(int(rng.integers(1, 4))))
        net = replace(base, dg_units=units)
        sol = solve_distflow(net)
        if rng.random() < 0.5:
            loc = flt.at_node(int(rng.integers(1, 5)))
        else:
            loc = flt.at_lateral(int(rng.integers(1, 5)))
        study = flt.fault_kernel(net, sol).study(loc)
        prev = 0
        for rec in net.reclosers:
            fr = sum(study.i_dg[u.id] for u in units
                     if u.tap_node >= rec.node)
            rr = sum(study.i_dg[u.id] for u in units
                     if prev <= u.tap_node < rec.node)
            assert abs(study.delta_fr[rec.id] - fr) < 1e-9, trial
            assert abs(study.delta_rr[rec.id] - rr) < 1e-9, trial
            prev = rec.node
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report("disparity identities",
           f"50 random placements matched to 1e-9 in {elapsed:.2f}s")


def test_03_power_flow_oracle():
    """Two-bus flows match a hand-iterated recursion to 1e-8; a network
    with no net injection returns exactly flat voltage."""
    from test_power_flow import hand_iterate_two_bus, two_bus

    r, x = 0.03, 0.08
    sol = solve_distflow(two_bus(0.4, 0.2, r, x))
    p_ref, q_ref, v_ref = hand_iterate_two_bus(0.4, 0.2, r, x)
    assert abs(sol.p_flow[0] - p_ref) < 1e-8
    assert abs(sol.q_flow[0] - q_ref) < 1e-8
    assert abs(sol.v_mag[1] - v_ref) < 1e-8

    flat = solve_distflow(two_bus(0.0, 0.0))
    assert flat.v_mag == (1.0, 1.0)
    assert flat.p_flow == (0.0,) and flat.q_flow == (0.0,)
    report("power flow oracle",
           "two-bus hand iteration within 1e-8, zero-injection flat")


def test_04_curve_math_properties():
    """Inverse-curve monotonicity, affinity in the dial, and inversion
    round trips at the stated tolerances."""
    consts = TCIConstants(a=19.61, b=0.491, c=1.0, m=2.0, K=0.0)
    rng = np.random.default_rng(99)
    for _ in range(100):
        i = float(rng.uniform(1.3, 60.0))
        d = float(rng.uniform(0.1, 0.95))
        st = RecloserSettings(pickup=1.0, time_dial=d)
        h = 1e-6 * i
        di = (tci_time(consts, st, i + h) - tci_time(consts, st, i - h)) / (2 * h)
        assert di < 0.0
        hd = 1e-6
        dd = (tci_time(consts, RecloserSettings(1.0, d + hd), i)
              - tci_time(consts, RecloserSettings(1.0, d - hd), i)) / (2 * hd)
        assert dd > 0.0

    for i in (1.6, 4.0, 25.0):
        times = [tci_time(consts, RecloserSettings(1.0, d), i)
                 for d in (0.2, 0.5, 0.8)]
        assert abs(times[1] - 0.5 * (times[0] + times[2])) < 1e-12

    st = RecloserSettings(pickup=1.5, time_dial=0.4)
    for t_target in (0.25, 0.8, 3.0):
        i = tci_inverse(consts, st, t_target)
        assert abs(tci_time(consts, st, i) - t_target) < 1e-9 * t_target
    report("curve math", "monotone signs at 100 points, affinity residual "
           "< 1e-12, inversion round trip 1e-9")


def exhaustive_verdict(pair, primary, backup, required, n=10_000):
    """Dense linear evaluation of the range and margin conditions."""
    grid = np.linspace(pair.i_primary_min, pair.i_primary_max, n)
    sign = 1.0 if pair.kind is coord.PairKind.FUSE_RECLOSER else -1.0
    worst = math.inf
    for i in grid:
        tp = primary.time_at(float(i))
        ib = float(i) + sign * pair.delta
        tb = backup.time_at(ib) if ib > 0 else NO_OPERATION
        if not (math.isinf(tp) or math.isinf(tb)):
            worst = min(worst, tb - tp)

    def order_ok(i):
        tp = primary.time_at(float(i))
        tb = backup.time_at(float(i) + sign * pair.delta)
        return tp <= tb

    if not (order_ok(grid[0]) and order_ok(grid[-1])):
        return coord.FailureMode.RANGE_EXCEEDED
    if worst < required - coord.MARGIN_TOL:
        return coord.FailureMode.MARGIN_VIOLATED
    return coord.FailureMode.NONE


def test_05_check_pair_matches_exhaustive(five_node_scenario,
                                          case_a_scenario):
    """check_pair verdicts equal a 10^4-point exhaustive evaluation on
    every shipped pair fixture."""
    checked = 0
    for scn in (five_node_scenario, case_a_scenario):
        for case in pair_checks(scn.network, scn.fuse_curves, scn.fr_margin,
                                scn.rr_margin, scn.fault_impedance_floor):
            want = exhaustive_verdict(*case)
            got = coord.check_pair(*case).failure_mode
            assert got == want, (case[0].id, got, want)
            checked += 1
    report("coordination equivalence",
           f"{checked} shipped pairs, zero verdict mismatches")


def test_06_failure_modes_and_backup_delay():
    """Constructed pairs hit exactly the two failure modes; positive
    recloser-recloser disparity never violates the margin but always
    increases the backup delay."""
    from test_coordination import fr_pair, rr_pair

    overrun = coord.check_pair(*fr_pair(
        i_primary_max=6.0, i_primary_min=3.0, delta=20.0, margin=0.1))
    assert overrun.failure_mode is coord.FailureMode.RANGE_EXCEEDED

    squeezed = coord.check_pair(*fr_pair(
        i_primary_max=8.0, i_primary_min=4.0, delta=0.0, margin=0.5))
    assert squeezed.failure_mode is coord.FailureMode.MARGIN_VIOLATED
    assert squeezed.range_ok

    rng = np.random.default_rng(5)
    cases = 0
    for _ in range(25):
        dial_down = float(rng.uniform(0.1, 0.3))
        dial_up = float(rng.uniform(dial_down + 0.3, 1.0))
        base = coord.check_pair(*rr_pair(
            9.0, 3.0, 0.0, margin=0.3, dial_down=dial_down, dial_up=dial_up))
        if base.failure_mode is not coord.FailureMode.NONE:
            continue
        delta = float(rng.uniform(0.1, 1.5))
        shifted = coord.check_pair(*rr_pair(
            9.0, 3.0, delta, margin=0.3, dial_down=dial_down,
            dial_up=dial_up))
        assert shifted.margin_ok
        assert shifted.failure_mode is coord.FailureMode.NONE
        assert shifted.backup_delay > 0.0
        cases += 1
    assert cases >= 10
    report("failure modes", "range/margin fixtures exact, "
           f"{cases} disparity cases kept margins with positive delay")


def test_07_settings_match_grid_search(five_node_scenario):
    """The settings ladder equals exhaustive 1e-3 dial-grid search on the
    two- and three-recloser cases; terminal dial sits at the floor."""
    fuse_curves = FUSES
    config = opt.OptimizerConfig(fault_impedance_floor=0.15)
    results = []
    for name, net in (("2-recloser", two_recloser_toy()),
                      ("3-recloser",
                       replace(five_node_scenario.network, dg_units=()))):
        study = opt.study_state(net, fuse_curves, config)
        settings = study.settings()
        objective = opt.total_clearing_time(study, settings)
        best, dials = grid_search_settings(net, fuse_curves, config)
        assert dials is not None
        assert abs(objective - best) < 1e-3, (name, objective, best)
        assert settings[net.reclosers[-1].id].time_dial == opt.TIME_DIAL_MIN
        results.append(f"{name} |{objective - best:.1e}|")
    report("settings optimality", ", ".join(results) + " vs grid search")


def test_08_constrained_case_dispatch(case_a_scenario, case_a_result):
    """On the constrained 37-bus case the settings-only problem is
    infeasible, while one dispatch and settings pass reaches clean
    verdicts and a component-wise maximal dispatch."""
    scn = case_a_scenario
    config = case_a_result["config"]

    with pytest.raises(opt.InfeasibleError):
        opt.study_state(scn.network, scn.fuse_curves, config).settings()

    assert case_a_result["study"].error is None
    assert case_a_result["elapsed"] < 30.0

    final = case_a_result["network"]
    for case in pair_checks(final, scn.fuse_curves, scn.fr_margin,
                            scn.rr_margin, scn.fault_impedance_floor):
        verdict = coord.check_pair(*case).failure_mode
        assert verdict is coord.FailureMode.NONE, case[0].id

    available = case_a_result["available"]
    outputs = {u.id: u.p_out for u in final.dg_units if u.id in available}
    probed = 0
    for uid, ceiling in available.items():
        if outputs[uid] >= ceiling - 1e-12:
            continue
        trial = dict(outputs)
        trial[uid] += 1e-4
        assert not opt.settings_feasible_at(
            final.with_dg_outputs(trial), scn.fuse_curves, config), uid
        probed += 1
    assert probed >= 1
    report("constrained dispatch",
           f"settings-only infeasible, dispatch and settings solved in "
           f"{case_a_result['elapsed']:.1f}s, verdicts clean, "
           f"{probed} units maximal at eps=1e-4")


def test_09_cadence_and_renewable_peak(case_b_scenario, case_b_run):
    """The 24-step run re-solves settings only at five-step multiples,
    dispatches every step, and strictly curtails at the renewable peak
    while every step stays feasible."""
    assert case_b_run["exit_code"] == 0
    with open(case_b_run["out_dir"] / "timeseries.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 24

    tds_cols = [c for c in rows[0] if c.startswith("tds_")]
    change_steps = []
    for prev, cur in zip(rows, rows[1:]):
        if any(prev[c] != cur[c] for c in tds_cols):
            change_steps.append(int(cur["step"]))
    assert change_steps, "settings never moved"
    assert all(s % 5 == 0 for s in change_steps), change_steps

    assert all(r["feasible"] == "1" for r in rows)

    scn = case_b_scenario
    curtailable = [u.id for u in scn.network.dg_units if u.curtailable]
    fixed_profiles = {uid: series for uid, series in scn.profile.items()
                      if not scn.network.dg(uid).curtailable}
    peak = max(range(24), key=lambda s: sum(series[s] for series
                                            in fixed_profiles.values()))
    totals = [sum(float(r[f"dg_{u}_p_pu"]) for u in curtailable)
              for r in rows]
    assert totals[peak] < totals[peak - 1]
    assert totals[peak] < totals[peak + 1]
    report("cadence run",
           f"settings changed at {change_steps}, all 24 steps feasible, "
           f"curtailable output dips at peak step {peak} "
           f"({totals[peak - 1]:.4f} > {totals[peak]:.4f} < "
           f"{totals[peak + 1]:.4f})")


def test_10_byte_identical_reruns(case_b_run, tmp_path):
    """Every command on every applicable shipped scenario produces
    byte-identical CSV artifacts across repeated runs."""
    from feederprot.cli import main

    fx = fixtures_dir()
    scenarios = {
        "five_node": str(fx / "five_node_scenario.json"),
        "case_a": str(fx / "ieee37_case_a.json"),
        "case_b": str(fx / "ieee37_case_b.json"),
    }
    commands = {
        "powerflow": [],
        "fault": ["--at", "node:2"],
        "coordinate": [],
        "optimize": [],
        "timeseries": [],
    }
    compared = 0
    for sname, spath in scenarios.items():
        for cname, extra in commands.items():
            if cname == "timeseries" and sname != "case_b":
                continue  # no profile to step through
            if cname == "timeseries":
                first = case_b_run["out_dir"]
                second = tmp_path / "ts_rerun"
                main(["timeseries", "--scenario", spath,
                      "--out-dir", str(second)])
            else:
                first = tmp_path / f"{sname}_{cname}_1"
                second = tmp_path / f"{sname}_{cname}_2"
                for out in (first, second):
                    main([cname, "--scenario", spath, *extra,
                          "--out-dir", str(out)])
            for path in sorted(first.glob("*.csv")):
                twin = second / path.name
                assert twin.exists(), (sname, cname, path.name)
                assert path.read_bytes() == twin.read_bytes(), (
                    sname, cname, path.name)
                compared += 1
    report("determinism", f"{compared} CSV artifacts byte-identical on rerun")
