"""Settings and dispatch optimization against exhaustive grid search."""

import csv
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feederprot import cli
from feederprot import coordination as coord
from feederprot import fault as flt
from feederprot import optimizer as opt
from feederprot.curves import (FuseCurve, RecloserCurve, RecloserSettings,
                               ReclosingSequence, TCIConstants, fuse_time,
                               load_fuse_curves, tci_time)
from feederprot.model import (FeederSection, Lateral, Network,
                              RecloserPlacement, SubstationSource)
from feederprot.power_flow import solve_distflow

from conftest import (dispatched, pair_checks, radial_chains,
                      recloser_zone, scenario_config)

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
    kernel = flt.fault_kernel(network, sol)
    _, zones = coord.study_pairs(kernel, config.fault_impedance_floor)

    def slope(rec_id, currents):
        st = RecloserSettings(pickup=pickups[rec_id], time_dial=1.0)
        cv = network.recloser(rec_id).sequence.coordinating_curve
        return np.array([tci_time(cv.constants, st, float(i))
                         for i in currents])

    # dial cap per recloser from its fuse pairs
    cap = {rec.id: opt.TIME_DIAL_MAX for rec in network.reclosers}
    for rec in network.reclosers:
        zone = recloser_zone(network, rec.id)
        for lat in network.laterals:
            if lat.fuse is None or lat.tap_node not in zone:
                continue
            loc = flt.at_lateral(lat.id)
            hi = kernel.study(loc, 0.0).i_recloser[rec.id]
            lo = kernel.study(loc, config.fault_impedance_floor
                              ).i_recloser[rec.id]
            grid = np.geomspace(lo, hi, 400)
            s = slope(rec.id, grid)
            t_fuse = np.array([fuse_time(fuse_curves[lat.fuse], float(i))
                               for i in grid])
            finite = np.isfinite(t_fuse)
            limits = (t_fuse[finite] - config.fr_margin) / s[finite]
            if limits.size:
                cap[rec.id] = min(cap[rec.id], float(limits.min()))

    # backup lower bound: D_up >= alpha + beta * D_down over the grid
    chain = []
    for up, down in zip(network.reclosers, network.reclosers[1:]):
        hi, lo = zones[down.id]
        grid = np.geomspace(lo, hi, 400)
        s_down = slope(down.id, grid)
        s_up = slope(up.id, grid)
        # per-current required backup dial: D_up >= base + beta * D_down
        chain.append((up.id, down.id, s_down / s_up,
                      config.rr_margin / s_up))

    i_max = {rid: mx for rid, (mx, _) in zones.items()}
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
    # the least head dial each middle dial needs, for every grid middle
    # dial at once: the first grid dial at or above the need, if capped
    need_head = (base2[None, :] + beta2[None, :] * D_GRID[:, None]).max(axis=1)
    first = np.searchsorted(D_GRID, need_head - 1e-12, side="left")
    head_ok = first < D_GRID.size
    d_head = D_GRID[np.minimum(first, D_GRID.size - 1)]
    head_ok &= d_head <= cap[u_id]
    best = math.inf
    best_dials = None
    for d_term in D_GRID:
        if d_term > cap[d1_id]:
            continue
        need_mid = float((base1 + beta1 * d_term).max())
        mids = np.flatnonzero((D_GRID >= need_mid - 1e-12)
                              & (D_GRID <= cap[m_id]) & head_ok)
        if not mids.size:
            continue
        obj = (d_term * t_at_max[d1_id] + D_GRID[mids] * t_at_max[m_id]
               + d_head[mids] * t_at_max[u_id])
        k = int(np.argmin(obj))  # the first of equal minima, as a scan
        if obj[k] < best:
            best = float(obj[k])
            best_dials = {d1_id: float(d_term), m_id: float(D_GRID[mids[k]]),
                          u_id: float(d_head[mids[k]])}
    return best, best_dials


def _reference_affine_slope(curve: RecloserCurve, pickup: float,
                            current: float, pair: str) -> float:
    """dT/dD at the given current with pickup frozen; T = slope*D + K."""
    c = curve.constants
    mult = current / pickup
    denom = mult ** c.m - c.c
    if mult <= 1.0 or denom <= 0.0:
        raise opt.InfeasibleError(
            pair, f"current {current:.4g} pu below operating region of pickup "
                 f"{pickup:.4g} pu")
    return c.a / denom + c.b


def reference_ladder(network, pairs, pickups, fuse_curves, config):
    """Reference: the dial ladder as the package ran it before each
    pair's slope constants were read once, one slope call per sample.

    It raises where the ladder stops, the first violation if one came
    before; ladder_result maps that raise to the returned verdict."""
    order = list(network.reclosers)
    curve = {rec.id: rec.sequence.coordinating_curve for rec in order}
    kconst = {rid: cv.constants.K for rid, cv in curve.items()}

    ub = {rec.id: opt.TIME_DIAL_MAX for rec in order}
    ub_pair = {}
    for pd in opt._fuse_pairs(pairs):
        fuse = fuse_curves[network.lateral(pd.backup).fuse]
        for i in pd.axis:
            t_fuse = fuse_time(fuse, float(i) + pd.delta)
            if math.isinf(t_fuse):
                continue  # fuse never melts here; no constraint at i
            slope = _reference_affine_slope(curve[pd.primary],
                                            pickups[pd.primary], float(i),
                                            pd.id)
            limit = (t_fuse - config.fr_margin - kconst[pd.primary]) / slope
            if limit < ub[pd.primary]:
                ub[pd.primary] = limit
                ub_pair[pd.primary] = pd.id

    rr_up = {pd.primary: pd for pd in pairs
             if pd.kind is coord.PairKind.RECLOSER_RECLOSER}
    lb = {rec.id: opt.TIME_DIAL_MIN for rec in order}
    dial = {}
    headroom = math.inf
    first = None
    try:
        for rec in reversed(order):
            d = lb[rec.id]
            room = ub[rec.id] + opt.DIAL_TOL - d
            headroom = min(headroom, room)
            if room < 0 and first is None:
                first = opt.InfeasibleError(
                    ub_pair.get(rec.id, rec.id),
                    f"needs D >= {d:.4f} but fuse pair caps it at "
                    f"{ub[rec.id]:.4f}")
            dial[rec.id] = d
            pd = rr_up.get(rec.id)
            if pd is None:
                continue
            for i in pd.axis:
                slope_down = _reference_affine_slope(
                    curve[rec.id], pickups[rec.id], float(i), pd.id)
                i_up = float(i) - pd.delta
                if i_up <= 0:
                    raise opt.InfeasibleError(
                        pd.id,
                        f"disparity {pd.delta:.4g} pu swamps the backup "
                        f"current at {i:.4g} pu")
                slope_up = _reference_affine_slope(
                    curve[pd.backup], pickups[pd.backup], i_up, pd.id)
                need = (config.rr_margin + slope_down * d + kconst[rec.id]
                        - kconst[pd.backup]) / slope_up
                if need > lb[pd.backup]:
                    lb[pd.backup] = need
                    room = opt.TIME_DIAL_MAX + opt.DIAL_TOL - need
                    headroom = min(headroom, room)
                    if room < 0 and first is None:
                        first = opt.InfeasibleError(
                            pd.id,
                            f"backup needs D = {need:.4f} > "
                            f"{opt.TIME_DIAL_MAX}")
    except opt.InfeasibleError as exc:
        if first is None:
            raise
        raise first from exc
    return {rid: RecloserSettings(pickup=pickups[rid],
                                  time_dial=min(d, opt.TIME_DIAL_MAX))
            for rid, d in dial.items()}, headroom, first


def ladder_result(ladder, network, pairs, pickups, fuse_curves, config):
    """What a ladder gives over the pairs at the pickups: its dials,
    headroom and verdict (exception type, pair and message), or what
    else it raised.  The reference's InfeasibleError maps to the verdict
    the package ladder returns, no dials and no headroom; the package
    ladder must not raise one."""
    try:
        dials, headroom, first = ladder(network, pairs, pickups,
                                        fuse_curves, config)
    except opt.InfeasibleError as exc:
        if ladder is not reference_ladder:
            raise
        dials, headroom, first = None, None, exc
    except Exception as exc:  # noqa: BLE001 -- compared as data
        return "raised", type(exc), str(exc)
    return (dials, headroom,
            None if first is None else (type(first), first.pair, str(first)))


def ladder_outcome(ladder, network, fuse_curves, config):
    """What a ladder gives at the pairs and rule pickups of the network's
    study as dispatched."""
    study = opt.study_state(network, fuse_curves, config)
    return ladder_result(ladder, network, study.pairs, study.pickup_lo,
                         fuse_curves, config)


@pytest.fixture(scope="module")
def fuse_curves():
    return load_fuse_curves()


class TestSettingsOptimality:
    def solve(self, network, fuse_curves, config):
        study = opt.study_state(network, fuse_curves, config)
        settings = study.settings()
        return settings, opt.total_clearing_time(study, settings)

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
            assert settings[terminal].time_dial == opt.TIME_DIAL_MIN

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
        study = opt.study_state(net, fuse_curves, config)
        assert study.headroom is None
        with pytest.raises(opt.InfeasibleError, match="pickup rule empty"):
            study.settings()

    def test_dial_overrun_up_to_dial_tol_is_forgiven(self, fuse_curves,
                                                     monkeypatch):
        # one recloser and no fuses: the ladder's only check is its
        # floor dial against the cap TIME_DIAL_MAX
        toy = two_recloser_toy()
        net = replace(toy, reclosers=(relay("RLY", 0),),
                      laterals=tuple(replace(lat, fuse=None)
                                     for lat in toy.laterals))
        for overrun, feasible in ((0.5, True), (2.0, False)):
            monkeypatch.setattr(opt, "TIME_DIAL_MIN",
                                1.0 + overrun * opt.DIAL_TOL)
            study = opt.study_state(net, fuse_curves, opt.OptimizerConfig())
            assert (study.error is None) is feasible
            assert study.headroom == pytest.approx(
                (1.0 - overrun) * opt.DIAL_TOL, abs=1e-15)

    def test_infeasibility_names_the_binding_pair(self, case_a_scenario):
        scn = case_a_scenario
        config = opt.OptimizerConfig(
            fr_margin=scn.fr_margin, rr_margin=scn.rr_margin,
            fault_impedance_floor=scn.fault_impedance_floor)
        with pytest.raises(opt.InfeasibleError) as exc:
            opt.study_state(scn.network, scn.fuse_curves, config).settings()
        assert exc.value.pair
        assert "infeasible at pair" in str(exc.value)


    @settings(max_examples=40)  # 21 reach the grid search, 15 solvable
    @given(radial_chains(), st.sampled_from((0.0, 0.05, 0.1)),
           st.sampled_from((0.02, 0.1, 0.3)))
    def test_random_chains_match_grid_search(self, fuse_curves, chain,
                                             fr_margin, rr_margin):
        # the grid search assumes K = 0, as every chain's curves have, and
        # no DG disparity, and enumerates two or three reclosers
        net, floor = chain
        net = replace(net, dg_units=(), reclosers=net.reclosers[:3])
        config = opt.OptimizerConfig(fr_margin=fr_margin, rr_margin=rr_margin,
                                     fault_impedance_floor=floor)
        study = opt.study_state(net, fuse_curves, config)
        if study.headroom is None:
            return  # an empty pickup rule: the grid search has no pickups
        best, dials = grid_search_settings(net, fuse_curves, config)
        if study.error is not None:
            assert dials is None
            return
        assert dials is not None
        objective = opt.total_clearing_time(study, study.dials)
        # no grid point beats the ladder, and the grid's best lies within
        # one grid step of every dial's clearing time
        per_dial = opt.total_clearing_time(
            study, {rid: replace(st_, time_dial=1.0)
                    for rid, st_ in study.dials.items()})
        assert objective <= best + 1e-12
        assert best - objective <= 1e-3 * per_dial


EI = TCIConstants(a=28.2, b=0.1217, c=1.0, m=2.0, K=0.0)
MI = TCIConstants(a=0.0515, b=0.114, c=1.0, m=0.02, K=0.0)
# melts steeply up to 4 pu and slowly above: a VI or EI recloser's fuse
# cap then falls, bottoms out inside the sweep and rises again
KINKED = ((2.0, 12.0), (4.0, 0.75), (40.0, 0.237))
# a flat last segment, 6 ulps from end to end: near 1.6 pu its
# interpolated melt times dip 2 ulps below the clamped tail value
FLAT_TAIL = ((1.0, 7.86), (2.0, 7.859999999999995))


def fuse_pair(lateral, i_max, i_min, delta=0.0):
    return coord.PairStudy(f"R1-L{lateral}", coord.PairKind.FUSE_RECLOSER,
                           "R1", lateral, i_max, i_min, delta)


def recloser_pair(i_max, i_min, delta=0.0):
    return coord.PairStudy("RLY-R1", coord.PairKind.RECLOSER_RECLOSER, "R1",
                           "RLY", i_max, i_min, delta)


# name: (RLY curve, R1 curve, {id: pickup}, pairs, {fuse: MM table},
#        (fr_margin, rr_margin)); laterals 1 and 2 carry fuses fa and fb
PRUNED_SWEEPS = {
    "fuse cap dips inside the sweep": (
        EI, EI, {"RLY": 1.0, "R1": 1.0}, (fuse_pair(1, 30.0, 2.5),),
        {"fa": KINKED}, (0.1, 0.3)),
    "fuse cap dips inside, with disparity": (
        EI, VI, {"RLY": 1.0, "R1": 0.8}, (fuse_pair(1, 30.0, 2.5, 0.4),),
        {"fa": KINKED}, (0.05, 0.3)),
    "fuse cap numerator changes sign": (
        EI, replace(EI, K=0.2), {"RLY": 1.0, "R1": 1.0},
        (fuse_pair(1, 30.0, 2.5),), {"fa": KINKED}, (0.1, 0.3)),
    "fuse melts inside the sweep": (
        EI, EI, {"RLY": 1.0, "R1": 1.0}, (fuse_pair(1, 30.0, 1.2),),
        {"fa": KINKED}, (0.1, 0.3)),
    "first melting current below the pickup": (
        EI, EI, {"RLY": 1.0, "R1": 2.1}, (fuse_pair(1, 30.0, 1.2),),
        {"fa": KINKED}, (0.1, 0.3)),
    "need peaks inside the sweep": (
        EI, MI, {"RLY": 1.0, "R1": 0.05}, (recloser_pair(200.0, 2.0),),
        {}, (0.1, 0.02)),
    "need peaks inside the sweep past the dial range": (
        EI, MI, {"RLY": 1.0, "R1": 0.05}, (recloser_pair(200.0, 2.0),),
        {}, (0.1, 0.75)),
    "need numerator changes sign": (
        replace(EI, K=0.35), EI, {"RLY": 1.0, "R1": 1.5},
        (recloser_pair(40.0, 2.0),), {}, (0.1, 0.3)),
    "disparity swamps the backup current": (
        EI, EI, {"RLY": 1.0, "R1": 1.0}, (recloser_pair(40.0, 2.0, 2.5),),
        {}, (0.1, 0.3)),
    # fb's clamped tail, one ulp above fa's dip, sets R1's cap; the fa
    # sweep's bounds then sit an ulp or more above that cap, inside the
    # guard (the dip's ulps come from the C library's exp and log)
    "caps within the guard of a block bound": (
        EI, replace(EI, a=1e-30, b=8.0), {"RLY": 1.0, "R1": 0.5},
        (fuse_pair(2, 4.0, 3.0), fuse_pair(1, 2.5, 1.5)),
        {"fa": FLAT_TAIL, "fb": ((1.0, 9.5), (2.0, 7.859999999999994))},
        (0.0, 0.3)),
}


class TestLadderMatchesReference:
    """The ladder returns the reference ladder's dials, headroom and
    verdict bit for bit, and raises what it raises."""

    @staticmethod
    def with_offsets(network):
        """Every recloser's curves with its own K > 0, so the offsets
        enter each bound (the shipped families all have K = 0)."""
        return replace(network, reclosers=tuple(
            replace(rec, sequence=replace(rec.sequence, curves=tuple(
                replace(cv, constants=replace(cv.constants,
                                              K=0.0137 * (k + 1)))
                for cv in rec.sequence.curves)))
            for k, rec in enumerate(network.reclosers)))

    @pytest.mark.parametrize("offsets", (False, True))
    @pytest.mark.parametrize("fixture", ("five_node_scenario",
                                         "case_a_scenario",
                                         "case_b_scenario"))
    def test_fixtures(self, fixture, offsets, fuse_curves, request):
        scn = request.getfixturevalue(fixture)
        base = self.with_offsets(scn.network) if offsets else scn.network
        outcomes = set()
        for margins in ((scn.fr_margin, scn.rr_margin), (0.2, 0.3),
                        (0.05, 0.45)):
            config = replace(scenario_config(scn), fr_margin=margins[0],
                             rr_margin=margins[1])
            for scale in (0.0, 0.5, 1.0):
                net = base.with_dg_outputs(
                    {u.id: scale * u.p_out for u in base.dg_units})
                expect = ladder_outcome(reference_ladder, net, fuse_curves,
                                        config)
                got = ladder_outcome(opt._solve_settings_at_pickups, net,
                                     fuse_curves, config)
                assert got == expect, (margins, scale)
                outcomes.add(expect[-1] is None)
        assert True in outcomes  # some state is solvable

    @settings(max_examples=30)
    @given(radial_chains(), st.sampled_from((0.0, 0.05, 0.1)),
           st.sampled_from((0.02, 0.1, 0.3)))
    def test_random_chains(self, fuse_curves, chain, fr_margin, rr_margin):
        net, floor = chain
        net = self.with_offsets(net)
        config = opt.OptimizerConfig(fr_margin=fr_margin, rr_margin=rr_margin,
                                     fault_impedance_floor=floor)
        assert ladder_outcome(opt._solve_settings_at_pickups, net,
                              fuse_curves, config) == \
            ladder_outcome(reference_ladder, net, fuse_curves, config)

    @pytest.mark.parametrize("name", sorted(PRUNED_SWEEPS))
    def test_pruned_sweeps(self, name):
        # extremes inside a sweep, or within PRUNE_GUARD of a block
        # bound; the shipped scenarios' extremes all sit at a sweep's end
        up, down, pickups, pairs, tables, margins = PRUNED_SWEEPS[name]
        curves = {"RLY": up, "R1": down}
        toy = two_recloser_toy()
        network = replace(toy, reclosers=tuple(
            replace(rec, sequence=replace(rec.sequence, curves=tuple(
                replace(cv, constants=curves[rec.id])
                for cv in rec.sequence.curves)))
            for rec in toy.reclosers))
        fuse_curves = {fid: FuseCurve(fid, mm, tuple((i, 2.0 * t)
                                                     for i, t in mm))
                       for fid, mm in tables.items()}
        config = opt.OptimizerConfig(fr_margin=margins[0],
                                     rr_margin=margins[1])
        assert ladder_result(opt._solve_settings_at_pickups, network, pairs,
                             pickups, fuse_curves, config) == \
            ladder_result(reference_ladder, network, pairs, pickups,
                          fuse_curves, config)


@st.composite
def falling_terms(draw):
    """Terms (n, s) of samples 0..size-1 with n never rising, across
    zero, and s positive and falling.  The coarse form has plateaus and
    steps, so extremes sit inside blocks; in the near form every
    quotient lies within 4e-10 of 1, so within PRUNE_GUARD of every
    other and of the floor's cap TIME_DIAL_MAX + DIAL_TOL."""
    size = draw(st.integers(1, 40))

    def values(elements):
        return draw(st.lists(elements, min_size=size, max_size=size))
    if draw(st.booleans()):
        nums = values(st.integers(-6, 12).map(float))
        slopes = values(st.integers(1, 8).map(float))
    else:
        nums = [2.0 * (1.0 + u) for u in values(st.floats(-1e-10, 1e-10))]
        slopes = [2.0 * (1.0 + abs(u))
                  for u in values(st.floats(-1e-10, 1e-10))]
    return sorted(nums, reverse=True), sorted(slopes, reverse=True)


class TestExtreme:
    """The pruned extreme against the brute-force one."""

    @settings(max_examples=300)
    @given(falling_terms(), st.data(), st.booleans())
    def test_matches_brute_force(self, terms, data, greatest):
        nums, slopes = terms
        first = data.draw(st.integers(0, len(nums) - 1))
        last = data.draw(st.integers(first, len(nums) - 1))
        quotients = [nums[j] / slopes[j] for j in range(first, last + 1)]
        start = data.draw(st.sampled_from([-7.0, 1.0, 13.0] + quotients))
        cap = opt.TIME_DIAL_MAX + opt.DIAL_TOL
        calls = []

        def term(j):
            calls.append(j)
            return nums[j], slopes[j]

        level, taken = opt._extreme(term, first, last, start, greatest, cap)
        assert level == (max if greatest else min)([start] + quotients)
        assert calls[0] == first
        assert len(calls) == len(set(calls))
        assert taken == {j: (nums[j], slopes[j]) for j in calls}
        if greatest:
            # the floor names its first need past the cap from these
            past = [first + k for k, q in enumerate(quotients) if q > cap]
            assert not past or past[0] in taken


@st.composite
def rising_gaps(draw):
    """Samples 0..size-1 of pair_slacks' gaps reach - i: reach never
    falling, with plateaus and a +inf tail, and the current i rising."""
    size = draw(st.integers(1, 40))
    reach = sorted(draw(st.lists(st.integers(0, 12).map(float),
                                 min_size=size, max_size=size)))
    tail = draw(st.integers(0, size))
    reach[size - tail:] = [math.inf] * tail
    steps = draw(st.lists(st.integers(1, 4).map(float), min_size=size,
                          max_size=size))
    return reach, list(itertools.accumulate(steps))


class TestExtremeOfGaps:
    """The pruned least of pair_slacks' gaps, with their block bound,
    against the brute-force one."""

    @settings(max_examples=300)
    @given(rising_gaps(), st.data())
    def test_matches_brute_force(self, samples, data):
        reach, currents = samples
        first = data.draw(st.integers(0, len(reach) - 1))
        last = data.draw(st.integers(first, len(reach) - 1))
        gaps = [reach[j] - currents[j] for j in range(first, last + 1)]
        start = data.draw(st.sampled_from(
            [opt.MAX_DISPARITY_BOUND, -5.0, 3.0] + gaps))
        calls = []

        def term(j):
            calls.append(j)
            return reach[j] - currents[j], 1.0

        def block(a, b):
            # pair_slacks reads both ends off the samples it took
            assert a in calls and b in calls
            return reach[a] - currents[b]

        level, taken = opt._extreme(term, first, last, start, False,
                                    block=block)
        assert level == min([start] + gaps)
        assert calls[0] == first
        assert len(calls) == len(set(calls))
        assert taken == {j: (reach[j] - currents[j], 1.0) for j in calls}


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


    def test_dial_above_the_slow_curve_is_infeasible(self, five_node_scenario):
        net = five_node_scenario.network
        st = {"R2": RecloserSettings(pickup=0.22, time_dial=0.5)}
        with pytest.raises(opt.InfeasibleError, match="slow curve") as exc:
            opt.apply_settings(net, st)
        assert exc.value.pair == "R2"


class TestDispatch:
    def config(self, scn):
        return opt.OptimizerConfig(
            fr_margin=scn.fr_margin, rr_margin=scn.rr_margin,
            fault_impedance_floor=scn.fault_impedance_floor)

    def test_unconstrained_case_gets_full_output(self, five_node_scenario):
        scn = five_node_scenario
        config = self.config(scn)
        available = {u.id: u.p_out for u in scn.network.dg_units}
        study = opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                                   config)
        assert study.network == scn.network.with_dg_outputs(available)

    def test_empty_available_is_a_no_op(self, five_node_scenario):
        scn = five_node_scenario
        config = self.config(scn)
        assert opt.solve_dispatch(scn.network, {}, scn.fuse_curves,
                                  config).network == scn.network

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
        assert first.network == second.network

    @pytest.mark.parametrize("fixture, curtails", [
        ("five_node_scenario", False), ("case_a_scenario", True)])
    def test_redispatch_from_own_output_is_a_no_op(self, fixture, curtails,
                                                   request):
        scn = request.getfixturevalue(fixture)
        config = self.config(scn)
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        first = dispatched(opt.solve_dispatch(
            scn.network, available, scn.fuse_curves, config), available)
        assert any(first[i] < available[i] for i in available) == curtails
        again = dispatched(opt.solve_dispatch(
            scn.network.with_dg_outputs(first), available, scn.fuse_curves,
            config), available)
        assert again == first
        # so one dispatch and settings pass is its own fixed point: a
        # second pass from the re-dialed network it reached changes nothing
        passes = []
        net = scn.network
        for _ in range(2):
            study = opt.solve_dispatch(net, available, scn.fuse_curves,
                                       config)
            settings = study.settings()
            net = opt.apply_settings(study.network, settings)
            passes.append((net, settings,
                           opt.total_clearing_time(study, settings),
                           opt.pair_slacks(study, scn.fuse_curves, config)))
        assert passes[0][0].dg_units == \
            scn.network.with_dg_outputs(first).dg_units
        assert passes[1] == passes[0]

    def test_case_a_never_probes_zero_output(self, case_a_scenario,
                                             monkeypatch):
        # a feasible factor 0.5 already implies feasible zero output
        scn = case_a_scenario
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        probed = []
        study_state = opt.study_state

        def recorded(network, *args):
            probed.append([network.dg(i).p_out for i in available])
            return study_state(network, *args)

        monkeypatch.setattr(opt, "study_state", recorded)
        opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                           self.config(scn))
        assert probed and all(any(p) for p in probed)

    def test_zero_output_failure_is_its_own_error(self, five_node_scenario):
        scn = five_node_scenario
        config = replace(self.config(scn), fr_margin=5.0)
        available = {u.id: u.p_out for u in scn.network.dg_units}
        zero = opt.study_state(
            scn.network.with_dg_outputs(dict.fromkeys(available, 0.0)),
            scn.fuse_curves, config).error
        assert zero is not None
        with pytest.raises(opt.InfeasibleError) as exc:
            opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                               config)
        assert (exc.value.pair, str(exc.value)) == (zero.pair, str(zero))

    def test_factor_search_ending_at_zero_probes_once(self,
                                                      five_node_scenario,
                                                      monkeypatch):
        # factor 0.5 fails and zero output passes; the walk's first point
        # above zero fails, so the search ends there and never probes the
        # other 29 midpoints of the plain bisection
        scn = five_node_scenario
        config = replace(scenario_config(scn), fr_margin=0.18)
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        expect = bisected_dispatch(scn.network, available, scn.fuse_curves,
                                   config)
        assert expect == dict.fromkeys(available, 0.0)
        flows = []
        solve_distflow = opt.solve_distflow

        def counted(*args, **kwargs):
            flows.append(args)
            return solve_distflow(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_distflow", counted)
        got = dispatched(opt.solve_dispatch(
            scn.network, available, scn.fuse_curves, config), available)
        assert got == expect
        # full, 0.5, zero and 2**-30, then one probe per curtailed unit
        assert len(flows) <= 4 + len(available)

    def test_infeasibility_names_a_scenario_pair(self, five_node_scenario,
                                                 five_node_solution):
        scn = five_node_scenario
        config = replace(self.config(scn), fr_margin=5.0)
        pair_ids = {pd.id for pd in coord.study_pairs(
            flt.fault_kernel(scn.network, five_node_solution),
            config.fault_impedance_floor)[0]}
        available = {u.id: u.p_out for u in scn.network.dg_units}
        with pytest.raises(opt.InfeasibleError) as exc:
            opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                               config)
        assert exc.value.pair in pair_ids
        # pickups no fault current exceeds: the curve slope itself fails
        study = opt.study_state(scn.network, scn.fuse_curves, config)
        high = replace(study,
                       pickup_lo={r: 1e3 for r in study.pickup_lo})
        with pytest.raises(opt.InfeasibleError) as exc:
            opt.pair_slacks(high, scn.fuse_curves, config)
        assert exc.value.pair in pair_ids


def bisected_pair_slacks(network, fuse_curves, config):
    """Reference slacks: each fuse-recloser pair's disparity bound found
    by doubling then 60 bisection steps on the dial cap against the floor
    dial less DIAL_TOL, minus the pair disparity from a fresh
    bolted-fault solve at the lateral."""
    study = opt.study_state(network, fuse_curves, config)
    sol, dials, pickups = study.flow, study.dials, study.pickup_lo
    slacks = {}
    for pd in study.pairs:
        if pd.kind is not coord.PairKind.FUSE_RECLOSER:
            continue
        fuse = network.lateral(pd.backup).fuse
        curve = network.recloser(pd.primary).sequence.coordinating_curve
        need = dials[pd.primary].time_dial - opt.DIAL_TOL
        grid = list(pd.axis)
        slope_at = opt._dial_slope(curve, pickups[pd.primary], pd.id)
        slopes = [slope_at(float(i)) for i in grid]

        def dial_cap(delta):
            best = math.inf
            for i, slope in zip(grid, slopes):
                t_fuse = fuse_time(fuse_curves[fuse], float(i) + delta)
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
        study = flt.solve_fault(network, sol, flt.at_lateral(pd.backup),
                                0.0)
        slacks[pd.id] = bound - study.delta_fr[pd.primary]
    return slacks


def full_sweep_slacks(study, fuse_curves, config):
    """The unpruned sweep pair_slacks replaced, kept as its bit-for-bit
    reference: every axis sample of every fuse-recloser pair."""
    if study.dials is None:
        return None
    slacks = {}
    for pd in study.pairs:
        if pd.kind is not coord.PairKind.FUSE_RECLOSER:
            continue
        curve, fuse = coord.pair_curves(study.network, pd, fuse_curves)
        base = config.fr_margin + curve.constants.K
        dial = study.dials[pd.primary].time_dial - opt.DIAL_TOL
        slope_at = opt._dial_slope(curve, study.pickup_lo[pd.primary], pd.id)
        t_tail, (i_head, t_head) = fuse.mm_points[-1][1], fuse.mm_points[0]
        bound = opt.MAX_DISPARITY_BOUND
        for i in pd.axis:
            t_need = dial * slope_at(i) + base
            if t_need <= t_tail:
                continue
            if t_need > t_head:
                reach = i_head
            else:
                reach = opt.fuse_inverse_current(fuse, t_need)
            bound = min(bound, reach - i)
        slacks[pd.id] = max(bound, 0.0) - pd.delta
    return slacks


def outcome(solve, *args):
    """A solve's floats by key as their bits, None, or the pair and
    message of the InfeasibleError it raises."""
    try:
        got = solve(*args)
    except opt.InfeasibleError as exc:
        return exc.pair, str(exc)
    return None if got is None else {k: v.hex() for k, v in got.items()}


def bisected_dispatch(network, available, fuse_curves, config):
    """Reference dispatch: plain bisection on the curtailment factor, then
    on each unit's output, tail first, probing the ladder at every
    midpoint."""
    ids = sorted(available)

    def feasible(outputs):
        return opt.settings_feasible_at(network.with_dg_outputs(outputs),
                                        fuse_curves, config)

    def at_factor(t):
        return {i: t * available[i] for i in ids}

    if ids and feasible(at_factor(1.0)):
        return at_factor(1.0)
    opt.study_state(network.with_dg_outputs(at_factor(0.0)), fuse_curves,
                    config).settings()
    if not ids:
        return {}
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if feasible(at_factor(mid)):
            lo = mid
        else:
            hi = mid
    outputs = at_factor(lo)
    for uid in sorted(ids, key=lambda i: (-network.dg(i).tap_node, i)):
        p_lo, p_hi = outputs[uid], available[uid]
        if p_hi - p_lo <= 1e-12:
            continue
        trial = dict(outputs)
        trial[uid] = p_hi
        if feasible(trial):
            outputs[uid] = p_hi
            continue
        while p_hi - p_lo > 1e-9 * max(available[uid], 1.0):
            mid = 0.5 * (p_lo + p_hi)
            trial[uid] = mid
            if feasible(trial):
                p_lo = mid
            else:
                p_hi = mid
        outputs[uid] = p_lo
    return outputs


def plain_bisection(feasible, lo, hi, tol):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def bisection_midpoints(target, tol=1e-9):
    """Every midpoint plain bisection of [0, 1] visits on its way to
    target."""
    mids, lo, hi = [], 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        lo, hi = (mid, hi) if mid <= target else (lo, mid)
    return mids


class TestReplayedBisection:
    """On a synthetic monotone probe, the search returns the plain
    bisection's point, probes only points of its walk, never one whose
    verdict it knows, and returns a probed point unless it is lo.
    Boundaries sit on, and a fraction of the search bracket beside, the
    midpoints the bisection visits, where a misread walk changes a
    verdict."""

    HEADROOMS = {
        "linear": lambda x, edge: edge - x,
        "curved": lambda x, edge: (edge - x) * (1.0 + 3.0 * x * x),
        "kinked": lambda x, edge: min(edge - x, 4.0 * (edge - x)),
        "unusable below 0.6": lambda x, edge: None if x < 0.6 else edge - x,
    }

    @pytest.mark.parametrize("shape", sorted(HEADROOMS))
    @pytest.mark.parametrize("offset", [-8e-13, -5e-13, -2e-13, 0.0, 2e-13,
                                        5e-13, 8e-13])
    def test_matches_plain_bisection(self, shape, offset):
        headroom = self.HEADROOMS[shape]
        mids = bisection_midpoints(0.8159539336990658)
        for edge in (mids[8] + offset, mids[20] + offset, mids[-1] + offset):
            probed = []

            def probe(x):
                probed.append(x)
                return x <= edge, headroom(x, edge)

            got = opt._replayed_bisection(probe, 0.0, 1.0, 1e-9, None,
                                          headroom(1.0, edge))
            assert got == plain_bisection(lambda x: x <= edge, 0.0, 1.0,
                                          1e-9)
            assert len(set(probed)) == len(probed)
            assert not {0.0, 1.0} & set(probed)
            assert all(x in bisection_midpoints(x) for x in probed)
            assert got in probed or got == 0.0
            assert len(probed) <= 8  # plain bisection: 30

    def test_case_a_restoration_probes_once_per_unit(self, case_a_scenario,
                                                     monkeypatch):
        # every curtailed unit fails at the first walk point above its
        # output, and that one probe settles it
        scn = case_a_scenario
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        probed, searched = [], []
        study_state, search = opt.study_state, opt._replayed_bisection

        def recorded(network, *args):
            probed.append({i: network.dg(i).p_out for i in available})
            return study_state(network, *args)

        def factor_search(*args):
            t = search(*args)
            searched.append(len(probed))
            return t

        monkeypatch.setattr(opt, "study_state", recorded)
        monkeypatch.setattr(opt, "_replayed_bisection", factor_search)
        got = dispatched(opt.solve_dispatch(
            scn.network, available, scn.fuse_curves, scenario_config(scn)),
            available)
        curtailed = sorted(i for i in available if got[i] < available[i])
        # only the factor search searches; each later probe raises one unit
        assert curtailed and len(searched) == 1
        assert sorted(i for p in probed[searched[0]:] for i in curtailed
                      if p[i] > got[i]) == curtailed
        assert len(probed) - searched[0] == len(curtailed)


class TestDispatchSearch:
    """The headroom-guided search returns the plain bisection's answer."""

    def test_five_node(self, five_node_scenario):
        scn = five_node_scenario
        config = scenario_config(scn)
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        assert dispatched(opt.solve_dispatch(
            scn.network, available, scn.fuse_curves, config), available) \
            == bisected_dispatch(scn.network, available, scn.fuse_curves,
                                 config)

    @pytest.mark.parametrize("scale", [1.0, 0.9, 0.93, 0.96, 0.99])
    def test_case_a_curtailable_block_scaled(self, case_a_scenario, scale):
        scn = case_a_scenario
        config = scenario_config(scn)
        available = {u.id: scale * u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        got = dispatched(opt.solve_dispatch(
            scn.network, available, scn.fuse_curves, config), available)
        assert any(got[i] < available[i] for i in available)
        assert got == bisected_dispatch(scn.network, available,
                                        scn.fuse_curves, config)

    def test_every_curtailing_case_b_step(self, case_b_run):
        curtailing = [(args, answer)
                      for args, answer in case_b_run["dispatches"]
                      if answer != args[1]]
        assert curtailing
        for args, answer in curtailing:
            assert answer == bisected_dispatch(*args)

    def test_case_a_probe_count(self, case_a_scenario, monkeypatch):
        scn = case_a_scenario
        flows = []
        solve_distflow = opt.solve_distflow

        def counted(*args, **kwargs):
            flows.append(args)
            return solve_distflow(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_distflow", counted)
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        opt.solve_dispatch(scn.network, available, scn.fuse_curves,
                           scenario_config(scn))
        assert len(flows) <= 8  # plain bisection: 84

    def test_headroom_sign_is_the_ladder_verdict(self, case_a_scenario):
        scn = case_a_scenario
        config = scenario_config(scn)
        seen = set()
        for t in np.linspace(0.05, 1.0, 20):
            net = scn.network.with_dg_outputs(
                {u.id: t * u.p_out for u in scn.network.dg_units
                 if u.curtailable})
            study = opt.study_state(net, scn.fuse_curves, config)
            ok = study.error is None
            assert study.headroom is not None and (study.headroom >= 0) == ok
            seen.add(ok)
        assert seen == {True, False}


class TestRandomChains:
    """The dispatch search, the reported slack, and the coordination
    verdicts and maximality of the dispatch and settings pass, on random
    radial chains with every DG unit curtailable."""

    @settings(max_examples=25)  # six of them curtail; tier-1 stays short
    @given(radial_chains(), st.sampled_from((0.0, 0.01, 0.03)))
    def test_dispatch_is_the_bisection_and_its_slack_is_not_negative(
            self, fuse_curves, chain, fr_margin):
        net, floor = chain
        config = opt.OptimizerConfig(fr_margin=fr_margin, rr_margin=0.02,
                                     fault_impedance_floor=floor)
        available = {u.id: u.p_out for u in net.dg_units}
        try:
            expect = bisected_dispatch(net, available, fuse_curves, config)
        except opt.InfeasibleError as exc:
            with pytest.raises(opt.InfeasibleError) as got:
                opt.solve_dispatch(net, available, fuse_curves, config)
            assert got.value.pair == exc.pair
            return
        study = opt.solve_dispatch(net, available, fuse_curves, config)
        assert study.network == net.with_dg_outputs(expect)
        # the answer is the feasible state nearest the boundary
        slacks = opt.pair_slacks(study, fuse_curves, config)
        assert min(slacks.values(), default=0.0) >= 0.0

    @pytest.mark.deep
    @settings(max_examples=300)
    @given(radial_chains(), st.sampled_from((0.0, 0.01, 0.03)))
    def test_dispatch_is_the_bisection_on_300_chains(self, fuse_curves,
                                                     chain, fr_margin):
        net, floor = chain
        config = opt.OptimizerConfig(fr_margin=fr_margin, rr_margin=0.02,
                                     fault_impedance_floor=floor)
        available = {u.id: u.p_out for u in net.dg_units}

        def dispatch(*args):
            return dispatched(opt.solve_dispatch(*args), available)
        assert outcome(dispatch, net, available, fuse_curves, config) == \
            outcome(bisected_dispatch, net, available, fuse_curves, config)

    @settings(max_examples=30)  # 18 feasible, 6 curtail; tier-1 stays short
    @given(radial_chains(), st.sampled_from((0.01, 0.03, 0.1)))
    def test_verdicts_are_clean_after_alternation(self, fuse_curves, chain,
                                                  fr_margin):
        net, floor = chain
        config = opt.OptimizerConfig(fr_margin=fr_margin, rr_margin=0.02,
                                     fault_impedance_floor=floor)
        available = {u.id: u.p_out for u in net.dg_units}
        try:
            study = opt.solve_dispatch(net, available, fuse_curves, config)
            final = opt.apply_settings(study.network, study.settings())
        except opt.InfeasibleError:
            return
        for case in pair_checks(final, fuse_curves, fr_margin, 0.02, floor):
            verdict = coord.check_pair(*case).failure_mode
            assert verdict is coord.FailureMode.NONE, case[0].id
        # and the dispatch is maximal: no curtailed unit can go any higher
        for uid, ceiling in available.items():
            output = final.dg(uid).p_out
            if output < ceiling:
                raised = final.with_dg_outputs(
                    {uid: min(output + 1e-4, ceiling)})
                assert not opt.settings_feasible_at(raised, fuse_curves,
                                                    config), uid


class TestPairSlacks:
    def check(self, network, fuse_curves, config):
        closed = opt.pair_slacks(opt.study_state(network, fuse_curves, config),
                                 fuse_curves, config)
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
        (0.35, 10.0, 0.1),  # least gaps inside the sweep, where the needed
        (0.7, 10.0, 0.1),  # times cross the table's first point
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

    def test_no_floor_dials_no_slacks(self, five_node_scenario):
        # no load past R2 empties its pickup rule: the ladder does not
        # run, and only settings() raises the stored verdict
        scn = five_node_scenario
        network = replace(scn.network, laterals=tuple(
            replace(lat, load_p=0.0, load_q=0.0) if lat.tap_node >= 3
            else lat for lat in scn.network.laterals))
        config = scenario_config(scn)
        study = opt.study_state(network, scn.fuse_curves, config)
        assert study.dials is None and study.headroom is None
        assert opt.pair_slacks(study, scn.fuse_curves, config) is None
        with pytest.raises(opt.InfeasibleError) as exc:
            study.settings()
        assert exc.value is study.error
        assert str(exc.value) == ("infeasible at pair R2: pickup rule "
                                  "empty: no load past the recloser")

    def test_feasible_case_b_steps_report_no_negative_slack(self,
                                                            case_b_run):
        with open(case_b_run["out_dir"] / "timeseries.csv") as fh:
            rows = list(csv.DictReader(fh))
        feasible = [r for r in rows if r["feasible"] == "1"]
        assert len(feasible) == len(rows) == 24
        assert all(float(r["worst_slack_pu"]) >= 0.0 for r in feasible)

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

    def test_pruned_sweep_is_the_full_sweep_on_case_b(self, case_b_run,
                                                      monkeypatch):
        read, size = [], []
        extreme = opt._extreme

        def counted(term, first, last, *args, **kwargs):
            level, taken = extreme(term, first, last, *args, **kwargs)
            read.append(len(taken))
            size.append(last - first + 1)
            return level, taken

        for (network, _, fuse_curves, config), answer in \
                case_b_run["dispatches"]:
            study = opt.study_state(network.with_dg_outputs(answer),
                                    fuse_curves, config)
            with monkeypatch.context() as patched:
                patched.setattr(opt, "_extreme", counted)
                got = outcome(opt.pair_slacks, study, fuse_curves, config)
            assert got == outcome(full_sweep_slacks, study, fuse_curves,
                                  config)
        assert len(case_b_run["dispatches"]) == 24
        assert 2 * sum(read) < sum(size)

    @settings(max_examples=40)
    @given(radial_chains(), st.sampled_from((0.0, 0.01, 0.03, 0.1)))
    def test_pruned_sweep_is_the_full_sweep_on_random_chains(
            self, fuse_curves, chain, fr_margin):
        net, floor = chain
        config = opt.OptimizerConfig(fr_margin=fr_margin, rr_margin=0.02,
                                     fault_impedance_floor=floor)
        study = opt.study_state(net, fuse_curves, config)
        assert outcome(opt.pair_slacks, study, fuse_curves, config) == \
            outcome(full_sweep_slacks, study, fuse_curves, config)


class TestAlternate:
    """The two sub-problems in turn: one dispatch, then the settings of
    the state it set."""

    def test_five_node_converges_to_full_output(self, five_node_scenario):
        scn = five_node_scenario
        config = scenario_config(scn)
        available = {u.id: u.p_out for u in scn.network.dg_units
                     if u.curtailable}
        study = opt.solve_dispatch(scn.network, available,
                                   scn.fuse_curves, config)
        study.settings()
        for uid, ceiling in available.items():
            assert study.network.dg(uid).p_out == pytest.approx(ceiling)
        slacks = opt.pair_slacks(study, scn.fuse_curves, config)
        assert all(s >= -1e-9 for s in slacks.values())

    def test_no_curtailable_units_converges_immediately(self,
                                                        five_node_scenario):
        scn = five_node_scenario
        config = opt.OptimizerConfig(fault_impedance_floor=0.15)
        study = opt.solve_dispatch(scn.network, {}, scn.fuse_curves, config)
        assert study.network == scn.network
        study.settings()

    def test_dispatches_once(self, case_a_scenario, monkeypatch, tmp_path):
        scn = case_a_scenario
        calls = []
        solve_dispatch = opt.solve_dispatch

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_dispatch(*args, **kwargs)

        monkeypatch.setattr(opt, "solve_dispatch", counted)
        report, code = cli.cmd_optimize(scn, tmp_path)
        assert code == cli.EXIT_OK
        assert report.lines[0] == ("alternating optimization: "
                                   "slack_fixed_point after 1 iterations")
        assert len(calls) == 1

    def test_baseline_settings_ignore_dg(self, five_node_scenario):
        scn = five_node_scenario
        config = opt.OptimizerConfig(fault_impedance_floor=0.15)
        with_dg = opt.baseline_settings(scn.network, scn.fuse_curves, config)
        without = opt.baseline_settings(
            replace(scn.network, dg_units=()), scn.fuse_curves, config)
        assert with_dg == without


class TestOneStudyPerState:
    """Each operating state is solved once: no load flow repeats the DG
    outputs of an earlier one in the same run or, in a time series, the
    same step."""

    def test_optimize_on_case_a(self, case_a_scenario, monkeypatch,
                                tmp_path):
        flows = []
        solve_distflow = opt.solve_distflow

        def recorded(network, *args, **kwargs):
            flows.append(tuple((u.id, u.p_out) for u in network.dg_units))
            return solve_distflow(network, *args, **kwargs)

        monkeypatch.setattr(opt, "solve_distflow", recorded)
        assert cli.cmd_optimize(case_a_scenario, tmp_path)[1] == cli.EXIT_OK
        assert len(flows) == 9  # the no-DG baseline, then 8 probes
        assert len(set(flows)) == len(flows)

    def test_timeseries_on_case_b(self, case_b_run):
        # steps 0 and 1, 3 and 23, 4 and 22, ... share their profile, so
        # a state may come back in a later step
        flows = case_b_run["flows"]
        assert len(set(flows)) == len(flows)
        assert len(flows) == 95
