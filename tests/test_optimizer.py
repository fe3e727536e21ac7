"""Settings and dispatch optimization against exhaustive grid search."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from feederprot import coordination as coord
from feederprot import fault as flt
from feederprot import optimizer as opt
from feederprot.curves import (FuseCurve, RecloserCurve, RecloserSettings,
                               ReclosingSequence, TCIConstants, fuse_time,
                               load_fuse_curves, tci_time)
from feederprot.model import (FeederSection, Lateral, Network,
                              RecloserPlacement, SubstationSource)
from feederprot.power_flow import solve_distflow

from conftest import scenario_config

VI = TCIConstants(a=19.61, b=0.491, c=1.0, m=2.0, K=0.0)
D_GRID = np.round(np.arange(0.1, 1.0 + 1e-9, 1e-3), 6)


def curve(tag, dial=0.5):
    return RecloserCurve(tag=tag, constants=VI,
                         settings=RecloserSettings(pickup=1.0,
                                                   time_dial=dial))


def relay(rid, node):
    return RecloserPlacement(
        id=rid, node=node,
        sequence=ReclosingSequence(curves=(curve("slow"),), pattern="S"))


def recloser(rid, node):
    seq = ReclosingSequence(curves=(curve("fast", 0.1), curve("slow", 0.8)),
                            pattern="F-S")
    return RecloserPlacement(id=rid, node=node, sequence=seq)


def two_recloser_toy():
    return Network(
        sections=(FeederSection(0, 1, 0.02, 0.06),
                  FeederSection(1, 2, 0.02, 0.06)),
        laterals=(Lateral(1, 1, 0.2, 0.1, "fa"),
                  Lateral(2, 2, 0.1, 0.05, "fb")),
        dg_units=(),
        source=SubstationSource(1.0, 0.0, 0.05),
        reclosers=(relay("RLY", 0), recloser("R1", 1)),
        base_mva=1.0, base_kv=12.47,
    )


def load_rule_pickups(network, sol):
    """Pickup selection recomputed from its statement: twice the apparent
    load current carried past the device, DG netting excluded."""
    out = {}
    for rec in network.reclosers:
        p = sum(l.load_p for l in network.laterals if l.tap_node >= rec.node)
        q = sum(l.load_q for l in network.laterals if l.tap_node >= rec.node)
        out[rec.id] = 2.0 * math.hypot(p, q) / sol.v_mag[rec.node]
    return out


def grid_search_settings(network, fuse_curves, config):
    """Exhaustive D-grid search (step 1e-3) over the margin constraints.

    Constraints are evaluated from the curves directly.  With K = 0 the
    trip time is D times a per-current slope, so each fuse pair yields a
    cap on its recloser's dial and each recloser pair a lower bound on
    the backup dial that is affine in the primary dial; exhaustive
    enumeration then runs over the full grid of dial combinations.
    """
    sol = solve_distflow(network)
    pickups = load_rule_pickups(network, sol)
    models = flt.build_all_fault_models(network, sol)

    def slope(rec_id, currents):
        st = RecloserSettings(pickup=pickups[rec_id], time_dial=1.0)
        cv = network.recloser(rec_id).sequence.coordinating_curve
        return np.array([tci_time(cv.constants, st, float(i))
                         for i in currents])

    # dial cap per recloser from its fuse pairs
    cap = {rec.id: config.d_max for rec in network.reclosers}
    for rec in network.reclosers:
        zone = flt._recloser_zone(network, rec.id)
        for lat in network.laterals:
            if lat.fuse is None or lat.tap_node not in zone:
                continue
            loc = flt.at_lateral(lat.id)
            hi = flt.solve_fault(network, sol, loc, 0.0,
                                 models).i_recloser[rec.id]
            lo = flt.solve_fault(network, sol, loc,
                                 config.fault_impedance_floor,
                                 models).i_recloser[rec.id]
            grid = np.geomspace(lo, hi, 400)
            s = slope(rec.id, grid)
            t_fuse = np.array([fuse_time(fuse_curves[lat.fuse], "mm",
                                         float(i)) for i in grid])
            finite = np.isfinite(t_fuse)
            limits = (t_fuse[finite] - config.fr_margin) / s[finite]
            if limits.size:
                cap[rec.id] = min(cap[rec.id], float(limits.min()))

    # backup lower bound: D_up >= alpha + beta * D_down over the grid
    chain = []
    for up, down in zip(network.reclosers, network.reclosers[1:]):
        hi, lo = flt.max_min_fault_currents(network, sol, down.id,
                                            config.fault_impedance_floor,
                                            models)
        grid = np.geomspace(lo, hi, 400)
        s_down = slope(down.id, grid)
        s_up = slope(up.id, grid)
        # per-current required backup dial: D_up >= base + beta * D_down
        chain.append((up.id, down.id, s_down / s_up,
                      config.rr_margin / s_up))

    i_max = {rec.id: flt.max_min_fault_currents(
        network, sol, rec.id, config.fault_impedance_floor, models)[0]
        for rec in network.reclosers}
    t_at_max = {rec.id: slope(rec.id, [i_max[rec.id]])[0]
                for rec in network.reclosers}

    order = [rec.id for rec in network.reclosers]
    if len(order) == 2:
        up_id, down_id, beta, base = chain[0]
        best = math.inf
        best_dials = None
        for d_down in D_GRID:
            if d_down > cap[down_id]:
                continue
            need = float((base + beta * d_down).max())
            feas = D_GRID[(D_GRID >= need - 1e-12)
                          & (D_GRID <= cap[up_id])]
            if not feas.size:
                continue
            d_up = float(feas[0])  # objective increases with the dial
            obj = d_down * t_at_max[down_id] + d_up * t_at_max[up_id]
            if obj < best:
                best = obj
                best_dials = {down_id: float(d_down), up_id: d_up}
        return best, best_dials

    assert len(order) == 3
    (m_id, d1_id, beta1, base1), (u_id, m2_id, beta2, base2) = (
        (chain[1][0], chain[1][1], chain[1][2], chain[1][3]),
        (chain[0][0], chain[0][1], chain[0][2], chain[0][3]))
    # chain[1]: middle -> terminal, chain[0]: head -> middle
    best = math.inf
    best_dials = None
    for d_term in D_GRID:
        if d_term > cap[d1_id]:
            continue
        need_mid = float((base1 + beta1 * d_term).max())
        for d_mid in D_GRID[(D_GRID >= need_mid - 1e-12)
                            & (D_GRID <= cap[m_id])]:
            need_head = float((base2 + beta2 * d_mid).max())
            feas = D_GRID[(D_GRID >= need_head - 1e-12)
                          & (D_GRID <= cap[u_id])]
            if not feas.size:
                continue
            d_head = float(feas[0])
            obj = (d_term * t_at_max[d1_id] + d_mid * t_at_max[m_id]
                   + d_head * t_at_max[u_id])
            if obj < best:
                best = obj
                best_dials = {d1_id: float(d_term), m_id: float(d_mid),
                              u_id: d_head}
    return best, best_dials


@pytest.fixture(scope="module")
def fuse_curves():
    return load_fuse_curves()


class TestSettingsOptimality:
    def solve(self, network, fuse_curves, config):
        sol = solve_distflow(network)
        sub = opt.build_settings_subproblem(network, sol, config)
        settings = opt.solve_settings(network, sub, fuse_curves, config)
        return settings, opt.total_clearing_time(network, sub, settings)

    def test_two_recloser_toy_matches_grid_search(self, fuse_curves):
        config = opt.OptimizerConfig(fault_impedance_floor=0.15)
        net = two_recloser_toy()
        settings, objective = self.solve(net, fuse_curves, config)
        best, dials = grid_search_settings(net, fuse_curves, config)
        assert dials is not None
        assert abs(objective - best) < 1e-3

    def test_three_recloser_toy_matches_grid_search(self, five_node_scenario,
                                                    fuse_curves):
        config = opt.OptimizerConfig(fault_impedance_floor=0.15)
        net = replace(five_node_scenario.network, dg_units=())
        settings, objective = self.solve(net, fuse_curves, config)
        best, dials = grid_search_settings(net, fuse_curves, config)
        assert dials is not None
        assert abs(objective - best) < 1e-3

    def test_terminal_recloser_gets_floor_dial(self, five_node_scenario,
                                               fuse_curves):
        config = opt.OptimizerConfig(fault_impedance_floor=0.15)
        for net in (two_recloser_toy(),
                    replace(five_node_scenario.network, dg_units=())):
            settings, _ = self.solve(net, fuse_curves, config)
            terminal = net.reclosers[-1].id
            assert settings[terminal].time_dial == config.d_min

    def test_pickups_follow_load_rule(self, five_node_scenario, fuse_curves):
        config = opt.OptimizerConfig(fault_impedance_floor=0.15)
        net = five_node_scenario.network
        sol = solve_distflow(net)
        settings, _ = self.solve(net, fuse_curves, config)
        rule = load_rule_pickups(net, sol)
        for rid, st in settings.items():
            assert st.pickup == pytest.approx(rule[rid], rel=1e-12)

    def test_empty_pickup_window_is_infeasible(self, five_node_scenario,
                                               fuse_curves):
        # a huge impedance floor drives the minimum fault current below
        # twice the load current
        config = opt.OptimizerConfig(fault_impedance_floor=3.0)
        net = five_node_scenario.network
        sol = solve_distflow(net)
        sub = opt.build_settings_subproblem(net, sol, config)
        with pytest.raises(opt.InfeasibleError, match="pickup rule empty"):
            opt.solve_settings(net, sub, fuse_curves, config)

    def test_infeasibility_names_the_binding_pair(self, case_a_scenario):
        scn = case_a_scenario
        config = opt.OptimizerConfig(
            fr_margin=scn.fr_margin, rr_margin=scn.rr_margin,
            fault_impedance_floor=scn.fault_impedance_floor)
        sol = solve_distflow(scn.network)
        sub = opt.build_settings_subproblem(scn.network, sol, config)
        with pytest.raises(opt.InfeasibleError) as exc:
            opt.solve_settings(scn.network, sub, scn.fuse_curves, config)
        assert exc.value.pair
        assert "infeasible at pair" in str(exc.value)


class TestApplySettings:
    def test_coordinating_curve_takes_dial(self, five_node_scenario):
        net = five_node_scenario.network
        st = {"R1": RecloserSettings(pickup=0.9, time_dial=0.33)}
        out = opt.apply_settings(net, st)
        rec = out.recloser("R1")
        assert rec.sequence.coordinating_curve.settings.time_dial == 0.33
        for cv in rec.sequence.curves:
            assert cv.settings.pickup == 0.9
            if cv is not rec.sequence.coordinating_curve:
                assert cv.settings.time_dial != 0.33 or cv.tag == "fast"
        # unlisted reclosers untouched
        assert out.recloser("R2") is net.recloser("R2")


class TestDispatch:
    def config(self, scn):
        return opt.OptimizerConfig(
            fr_margin=scn.fr_margin, rr_margin=scn.rr_margin,
            fault_impedance_floor=scn.fault_impedance_floor)

    def test_unconstrained_case_gets_full_output(self, five_node_scenario):
        scn = five_node_scenario
        config = self.config(scn)
        available = {u.id: u.p_out for u in scn.network.dg_units}
        outputs = opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                                     config)
        assert outputs == available

    def test_empty_available_is_a_no_op(self, five_node_scenario):
        scn = five_node_scenario
        config = self.config(scn)
        assert opt.solve_dispatch(scn.network, {}, scn.fuse_curves,
                                  config) == {}

    def test_settings_feasible_at_matches_solver(self, five_node_scenario):
        scn = five_node_scenario
        config = self.config(scn)
        assert opt.settings_feasible_at(scn.network, scn.fuse_curves, config)
        # an absurd margin cannot be coordinated
        tight = replace(config, fr_margin=5.0)
        assert not opt.settings_feasible_at(scn.network, scn.fuse_curves,
                                            tight)

    def test_dispatch_deterministic(self, five_node_scenario):
        scn = five_node_scenario
        config = self.config(scn)
        available = {u.id: u.p_out for u in scn.network.dg_units}
        first = opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                                   config)
        second = opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                                    config)
        assert first == second

    def test_redispatch_from_own_output_is_a_no_op(self, case_a_scenario):
        scn = case_a_scenario
        config = self.config(scn)
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        first = opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                                   config)
        assert any(first[i] < available[i] for i in available)
        again = opt.solve_dispatch(scn.network.with_dg_outputs(first),
                                   available, scn.fuse_curves, config)
        assert again == first

    def test_infeasibility_names_a_scenario_pair(self, five_node_scenario,
                                                 five_node_solution):
        scn = five_node_scenario
        config = replace(self.config(scn), fr_margin=5.0)
        pair_ids = {pair.id for pair, _ in coord.build_pairs(
            scn.network, five_node_solution, scn.fuse_curves,
            fr_margin=config.fr_margin, rr_margin=config.rr_margin,
            fault_impedance_floor=config.fault_impedance_floor)}
        available = {u.id: u.p_out for u in scn.network.dg_units}
        with pytest.raises(opt.InfeasibleError) as exc:
            opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                               config)
        assert exc.value.pair in pair_ids
        # pickups no fault current exceeds: the curve slope itself fails
        sub = opt.build_settings_subproblem(scn.network, five_node_solution,
                                            config)
        high = replace(sub, pickup_lo={r: 1e3 for r in sub.pickup_lo})
        with pytest.raises(opt.InfeasibleError) as exc:
            opt.pair_slacks(scn.network, high, scn.fuse_curves, config)
        assert exc.value.pair in pair_ids


def bisected_pair_slacks(network, fuse_curves, config):
    """Reference slacks: each fuse-recloser pair's disparity bound found
    by doubling then 60 bisection steps on the dial cap, minus the pair
    disparity from a fresh bolted-fault solve at the lateral."""
    sol = solve_distflow(network)
    sub = opt.build_settings_subproblem(network, sol, config)
    pickups = dict(sub.pickup_lo)
    dials = opt._solve_settings_at_pickups(network, sub, fuse_curves, pickups,
                                           config, enforce_ub=False)
    slacks = {}
    for pd in sub.fr:
        curve = network.recloser(pd.rec_id).sequence.coordinating_curve
        need = dials[pd.rec_id].time_dial
        grid = coord.current_grid(pd.i_recloser_min, pd.i_recloser)
        slopes = [opt._affine_slope(curve, pickups[pd.rec_id], float(i),
                                    pd.id) for i in grid]

        def dial_cap(delta):
            best = math.inf
            for i, slope in zip(grid, slopes):
                t_fuse = fuse_time(fuse_curves[pd.fuse], "mm",
                                   float(i) + delta)
                if math.isinf(t_fuse):
                    continue
                best = min(best, (t_fuse - config.fr_margin
                                  - curve.constants.K) / slope)
            return best

        if dial_cap(0.0) < need:
            bound = 0.0
        else:
            lo, hi = 0.0, 1.0
            while dial_cap(hi) >= need and hi < 1024.0:
                lo, hi = hi, hi * 2.0
            if hi >= 1024.0:
                bound = hi
            else:
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if dial_cap(mid) >= need:
                        lo = mid
                    else:
                        hi = mid
                bound = lo
        study = flt.solve_fault(network, sol, flt.at_lateral(pd.lateral_id),
                                0.0)
        slacks[pd.id] = bound - study.delta_fr[pd.rec_id]
    return slacks


class TestPairSlacks:
    def check(self, network, fuse_curves, config):
        sub = opt.build_settings_subproblem(network, solve_distflow(network),
                                            config)
        closed = opt.pair_slacks(network, sub, fuse_curves, config)
        reference = bisected_pair_slacks(network, fuse_curves, config)
        assert closed.keys() == reference.keys()
        assert closed
        for pid, slack in reference.items():
            assert abs(closed[pid] - slack) <= 1e-12, pid
        return closed

    def test_five_node(self, five_node_scenario):
        scn = five_node_scenario
        self.check(scn.network, scn.fuse_curves, scenario_config(scn))

    def test_case_a_final_state(self, case_a_scenario, case_a_result):
        slacks = self.check(case_a_result["network"],
                            case_a_scenario.fuse_curves,
                            case_a_result["config"])
        # the final dispatch sits on the binding pair's bound
        assert min(slacks.values()) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("i_scale, t_scale, fr_margin", [
        (1.0, 1000.0, 0.1),  # every needed time at or below the table tail
        (1.0, 10.0, 0.1),  # needed times on the table's last segment
        (1.0, 0.01, 0.1),  # needed times above the table: bounds clamp to 0
        (10.0, 0.01, 0.1),  # the same, but study currents below the table
        (1.0, 1.0, 0.5),  # interior bounds next to zero-clamped ones
    ])
    def test_fuse_table_edges(self, five_node_scenario, i_scale, t_scale,
                              fr_margin):
        scn = five_node_scenario

        def rescaled(points):
            return tuple((i * i_scale, t * t_scale) for i, t in points)

        fuses = {name: FuseCurve(name, rescaled(f.mm_points),
                                 rescaled(f.tc_points))
                 for name, f in scn.fuse_curves.items()}
        config = replace(scenario_config(scn), fr_margin=fr_margin)
        self.check(scn.network, fuses, config)

    def test_curtailing_case_b_state(self, case_b_scenario, case_b_run):
        scn = case_b_scenario
        with open(case_b_run["out_dir"] / "timeseries.csv") as fh:
            rows = list(csv.DictReader(fh))
        curtailable = [u.id for u in scn.network.dg_units if u.curtailable]
        row = min(rows, key=lambda r: sum(float(r[f"dg_{u}_p_pu"])
                                          for u in curtailable))
        outputs = {u.id: float(row[f"dg_{u.id}_p_pu"])
                   for u in scn.network.dg_units}
        assert any(outputs[u] < scn.network.dg(u).p_out for u in curtailable)
        self.check(scn.network.with_dg_outputs(outputs), scn.fuse_curves,
                   scenario_config(scn))


class TestAlternate:
    def test_five_node_converges_to_full_output(self, five_node_scenario):
        scn = five_node_scenario
        config = opt.OptimizerConfig(
            fr_margin=scn.fr_margin, rr_margin=scn.rr_margin,
            fault_impedance_floor=scn.fault_impedance_floor,
            obj_tol=scn.objective_tol, max_iters=scn.max_iters)
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        trace, net, settings = opt.alternate(scn.network, scn.fuse_curves,
                                             available, config)
        assert trace.converged
        assert trace.stop_reason is opt.StopReason.SLACK_FIXED_POINT
        for uid, ceiling in available.items():
            assert net.dg(uid).p_out == pytest.approx(ceiling)
        assert all(s >= -1e-9 for it in trace.iterations
                   for s in it.slacks.values())

    def test_no_curtailable_units_converges_immediately(self,
                                                        five_node_scenario):
        scn = five_node_scenario
        config = opt.OptimizerConfig(fault_impedance_floor=0.15)
        trace, net, settings = opt.alternate(scn.network, scn.fuse_curves,
                                             {}, config)
        assert trace.converged
        assert len(trace.iterations) <= 2

    def test_baseline_settings_ignore_dg(self, five_node_scenario):
        scn = five_node_scenario
        config = opt.OptimizerConfig(fault_impedance_floor=0.15)
        with_dg = opt.baseline_settings(scn.network, scn.fuse_curves, config)
        without = opt.baseline_settings(
            replace(scn.network, dg_units=()), scn.fuse_curves, config)
        assert with_dg == without
