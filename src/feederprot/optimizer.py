"""Alternating settings/dispatch optimization.

Two coupled sub-problems are solved in turn until nothing moves:

* settings: with fault currents and pickups frozen, every recloser trip
  time is affine in its time-dial D, so minimizing total clearing time
  under the pair constraints is a linear program over the D vector.  On
  a radial chain it is solved exactly by downstream-first propagation,
  which also realizes the lexicographically-smallest optimum.
* dispatch: maximize total DG real output subject to the settings
  ladder staying solvable at the candidate operating state.  Every
  disparity is monotone non-decreasing in each unit's output, so a
  bisection on a global curtailment factor followed by tail-first
  per-unit restoration reaches a component-wise maximal feasible point.

The ladder at the candidate state is the only feasibility model; the
per-pair disparity slack it reports is derived from the same ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from . import fault as flt
from .coordination import current_grid
from .curves import (FuseCurve, RecloserCurve, RecloserSettings,
                     fuse_inverse_current, fuse_time)
from .model import Network, dg_between
from .power_flow import PowerFlowSolution, solve_distflow

LL_FACTOR = math.sqrt(3) / 2  # line-line fault proxy from the 3-phase value
MAX_DISPARITY_BOUND = 1024.0  # pu; reported when no fuse cap binds


class StopReason(Enum):
    SLACK_FIXED_POINT = "slack_fixed_point"
    MAX_ITERS = "max_iters"
    INFEASIBLE = "infeasible"


class InfeasibleError(RuntimeError):
    """No admissible settings or dispatch exists; names the binding pair."""

    def __init__(self, pair: str, detail: str):
        super().__init__(f"infeasible at pair {pair}: {detail}")
        self.pair = pair


@dataclass(frozen=True)
class OptimizerConfig:
    fr_margin: float = 0.1
    rr_margin: float = 0.3
    fault_impedance_floor: float = 0.0
    obj_tol: float = 1e-4
    dispatch_tol: float = 1e-6  # no effect; kept so existing callers work
    max_iters: int = 20
    d_min: float = 0.1
    d_max: float = 1.0


@dataclass(frozen=True)
class FusePairData:
    rec_id: str
    lateral_id: int
    fuse: str
    i_recloser: float  # recloser current, bolted fault on the lateral
    i_recloser_min: float  # same fault through the impedance floor
    delta_fr: float

    @property
    def id(self) -> str:
        return f"{self.rec_id}-L{self.lateral_id}"


@dataclass(frozen=True)
class RecloserPairData:
    up_id: str
    down_id: str
    i_primary: float  # downstream recloser current at its binding fault
    i_primary_min: float
    delta_rr: float

    @property
    def id(self) -> str:
        return f"{self.up_id}-{self.down_id}"


@dataclass(frozen=True)
class SettingsSubproblem:
    i_max: dict[str, float]
    fr: tuple[FusePairData, ...]
    rr: tuple[RecloserPairData, ...]
    pickup_lo: dict[str, float]  # twice the maximum load current
    pickup_hi: dict[str, float]  # half the minimum line-line fault current


@dataclass(frozen=True)
class Iterate:
    dg_outputs: dict[int, float]
    settings: dict[str, RecloserSettings]
    obj_clearing_time: float
    obj_dg_output: float
    slacks: dict[str, float]


@dataclass(frozen=True)
class OptimizationTrace:
    iterations: tuple[Iterate, ...]
    converged: bool
    stop_reason: StopReason


def _load_current(network: Network, sol: PowerFlowSolution, node: int) -> float:
    """Apparent load current carried past the node, DG netting excluded.

    The pickup rule keys off the load the device must carry, so DG
    injection downstream must not shrink it.
    """
    p = sum(lat.load_p for lat in network.laterals if lat.tap_node >= node)
    q = sum(lat.load_q for lat in network.laterals if lat.tap_node >= node)
    return math.hypot(p, q) / sol.v_mag[node]


def build_settings_subproblem(network: Network, sol: PowerFlowSolution,
                              config: OptimizerConfig) -> SettingsSubproblem:
    """Freeze the fault-current data that linearizes the settings problem."""
    models = flt.build_all_fault_models(network, sol)
    i_max: dict[str, float] = {}
    pickup_lo: dict[str, float] = {}
    pickup_hi: dict[str, float] = {}
    fr: list[FusePairData] = []
    rr: list[RecloserPairData] = []

    for rec in network.reclosers:
        mx, mn = flt.max_min_fault_currents(
            network, sol, rec.id, config.fault_impedance_floor, models)
        i_max[rec.id] = mx
        pickup_lo[rec.id] = 2.0 * _load_current(network, sol, rec.node)
        pickup_hi[rec.id] = 0.5 * LL_FACTOR * mn
        zone = flt._recloser_zone(network, rec.id)
        for lat in network.laterals:
            if lat.fuse is None or lat.tap_node not in zone:
                continue
            loc = flt.at_lateral(lat.id)
            study = flt.solve_fault(network, sol, loc, 0.0, models)
            floored = flt.solve_fault(network, sol, loc,
                                      config.fault_impedance_floor, models)
            fr.append(FusePairData(rec.id, lat.id, lat.fuse,
                                   study.i_recloser[rec.id],
                                   floored.i_recloser[rec.id],
                                   study.delta_fr[rec.id]))

    for up, down in zip(network.reclosers, network.reclosers[1:]):
        a_max, a_min = flt.max_min_fault_currents(
            network, sol, down.id, config.fault_impedance_floor, models)
        study = flt.solve_fault(network, sol, flt.at_node(down.node),
                                0.0, models)
        delta = sum(study.i_dg[i]
                    for i in dg_between(network, up.node, down.node))
        rr.append(RecloserPairData(up.id, down.id, a_max, a_min, delta))

    return SettingsSubproblem(i_max, tuple(fr), tuple(rr),
                              pickup_lo, pickup_hi)


def _affine_slope(curve: RecloserCurve, pickup: float, current: float,
                  pair: str) -> float:
    """dT/dD at the given current with pickup frozen; T = slope*D + K."""
    c = curve.constants
    mult = current / pickup
    denom = mult ** c.m - c.c
    if mult <= 1.0 or denom <= 0.0:
        raise InfeasibleError(
            pair, f"current {current:.4g} pu below operating region of pickup "
                 f"{pickup:.4g} pu")
    return c.a / denom + c.b


def _solve_settings_at_pickups(network: Network, sub: SettingsSubproblem,
                               fuse_curves: dict[str, FuseCurve],
                               pickups: dict[str, float],
                               config: OptimizerConfig,
                               enforce_ub: bool = True,
                               ) -> dict[str, RecloserSettings]:
    order = list(network.reclosers)
    curve = {rec.id: rec.sequence.coordinating_curve for rec in order}
    kconst = {rid: cv.constants.K for rid, cv in curve.items()}

    # per-device upper bound from its fuse pairs: the margin constraint
    # is quantified over the pair's current range, so one affine
    # constraint per grid sample, all with D as the only free variable
    ub: dict[str, float] = {rec.id: config.d_max for rec in order}
    ub_pair: dict[str, str] = {}
    if enforce_ub:
        for pd in sub.fr:
            for i in current_grid(pd.i_recloser_min, pd.i_recloser):
                t_fuse = fuse_time(fuse_curves[pd.fuse], "mm",
                                   float(i) + pd.delta_fr)
                if math.isinf(t_fuse):
                    continue  # fuse never melts here; no constraint at i
                slope = _affine_slope(curve[pd.rec_id], pickups[pd.rec_id],
                                      float(i), pd.id)
                limit = ((t_fuse - config.fr_margin - kconst[pd.rec_id])
                         / slope)
                if limit < ub[pd.rec_id]:
                    ub[pd.rec_id] = limit
                    ub_pair[pd.rec_id] = pd.id

    rr_up = {pd.down_id: pd for pd in sub.rr}
    lb: dict[str, float] = {rec.id: config.d_min for rec in order}
    dial: dict[str, float] = {}
    for rec in reversed(order):
        d = lb[rec.id]
        if d > ub[rec.id] + 1e-12:
            pair = ub_pair.get(rec.id, rec.id)
            raise InfeasibleError(
                pair, f"needs D >= {d:.4f} but fuse pair caps it at "
                      f"{ub[rec.id]:.4f}")
        dial[rec.id] = d
        pd = rr_up.get(rec.id)
        if pd is not None:
            # the backup must clear at least rr_margin later at every
            # current of the downstream device's range, its own current
            # lowered by the in-between DG disparity
            for i in current_grid(pd.i_primary_min, pd.i_primary):
                slope_down = _affine_slope(curve[rec.id], pickups[rec.id],
                                           float(i), pd.id)
                i_up = float(i) - pd.delta_rr
                if i_up <= 0:
                    raise InfeasibleError(
                        pd.id,
                        f"disparity {pd.delta_rr:.4g} pu swamps the backup "
                        f"current at {i:.4g} pu")
                slope_up = _affine_slope(curve[pd.up_id], pickups[pd.up_id],
                                         i_up, pd.id)
                need = (config.rr_margin + slope_down * d + kconst[rec.id]
                        - kconst[pd.up_id]) / slope_up
                if need > lb[pd.up_id]:
                    lb[pd.up_id] = need
                    if need > config.d_max + 1e-12:
                        raise InfeasibleError(
                            pd.id,
                            f"backup needs D = {need:.4f} > {config.d_max}")
    return {rid: RecloserSettings(pickup=pickups[rid],
                                  time_dial=min(max(dial[rid], config.d_min),
                                                config.d_max))
            for rid in dial}


def solve_settings(network: Network, sub: SettingsSubproblem,
                   fuse_curves: dict[str, FuseCurve],
                   config: OptimizerConfig) -> dict[str, RecloserSettings]:
    """Minimum-total-clearing-time settings at rule-selected pickups.

    Pickups sit at twice the maximum load current, which maximizes the
    margin headroom of every fuse pair; pair_slacks assumes the same
    selection when it converts margins into disparity bounds.
    """
    pickups = dict(sub.pickup_lo)
    for rid, hi in sub.pickup_hi.items():
        if pickups[rid] > hi:
            raise InfeasibleError(
                rid, f"pickup rule empty: 2x load {pickups[rid]:.4g} exceeds "
                     f"half line-line fault {hi:.4g}")
    return _solve_settings_at_pickups(network, sub, fuse_curves, pickups,
                                      config)


def apply_settings(network: Network,
                   settings: dict[str, RecloserSettings]) -> Network:
    """Copy of the network with each recloser's curves re-dialed.

    The coordinating curve takes the solved dial; the other curves keep
    their dial and adopt the solved pickup.
    """
    new_recs = []
    for rec in network.reclosers:
        if rec.id not in settings:
            new_recs.append(rec)
            continue
        st = settings[rec.id]
        coord = rec.sequence.coordinating_curve
        curves = tuple(
            replace(cv, settings=st if cv is coord
                    else replace(cv.settings, pickup=st.pickup))
            for cv in rec.sequence.curves)
        new_recs.append(replace(rec, sequence=replace(rec.sequence,
                                                      curves=curves)))
    return replace(network, reclosers=tuple(new_recs))


def total_clearing_time(network: Network, sub: SettingsSubproblem,
                        settings: dict[str, RecloserSettings]) -> float:
    """Sum of coordinating-curve trip times at each recloser's zone maximum."""
    total = 0.0
    for rec in network.reclosers:
        st = settings[rec.id]
        cv = replace(rec.sequence.coordinating_curve, settings=st)
        t = cv.time_at(sub.i_max[rec.id])
        total += t if not math.isinf(t) else 0.0
    return total


def pair_slacks(network: Network, sub: SettingsSubproblem,
                fuse_curves: dict[str, FuseCurve],
                config: OptimizerConfig) -> dict[str, float]:
    """Disparity headroom of every fuse-recloser pair, keyed by pair id.

    A pair's bound is the largest disparity its recloser's floor dial D
    (the ladder solved without fuse caps) still coordinates with.  At
    each grid current i the fuse must not melt before
    T_i = D*slope_i + fr_margin + K, which holds while the fuse current
    stays at or below the MM table's current at T_i: the first tabulated
    current when T_i lies above the table, and no limit when T_i is at
    or below its clamped tail.  The bound, clamped to
    [0, MAX_DISPARITY_BOUND], minus the pair's disparity is its slack.
    """
    pickups = dict(sub.pickup_lo)
    floor = _solve_settings_at_pickups(network, sub, fuse_curves, pickups,
                                       config, enforce_ub=False)
    slacks: dict[str, float] = {}
    for pd in sub.fr:
        curve = network.recloser(pd.rec_id).sequence.coordinating_curve
        fuse = fuse_curves[pd.fuse]
        base = config.fr_margin + curve.constants.K
        dial = floor[pd.rec_id].time_dial
        bound = MAX_DISPARITY_BOUND
        for i in current_grid(pd.i_recloser_min, pd.i_recloser):
            t_need = dial * _affine_slope(curve, pickups[pd.rec_id], float(i),
                                          pd.id) + base
            if t_need <= fuse.mm_points[-1][1]:
                continue
            if t_need > fuse.mm_points[0][1]:
                reach = fuse.mm_points[0][0]
            else:
                reach = fuse_inverse_current(fuse, "mm", t_need)
            bound = min(bound, reach - float(i))
        slacks[pd.id] = max(bound, 0.0) - pd.delta_fr
    return slacks


def _settings_at(network: Network, fuse_curves: dict[str, FuseCurve],
                 config: OptimizerConfig) -> dict[str, RecloserSettings]:
    """Settings for the network as dispatched; raises InfeasibleError."""
    sol = solve_distflow(network)
    sub = build_settings_subproblem(network, sol, config)
    return solve_settings(network, sub, fuse_curves, config)


def settings_feasible_at(network: Network,
                         fuse_curves: dict[str, FuseCurve],
                         config: OptimizerConfig) -> bool:
    """Whether admissible settings exist for the network as dispatched.

    The ladder is solved in full at the candidate state, so a higher
    disparity downstream that raises the dial an upstream device needs,
    and with it tightens that device's own fuse cap, is accounted for.
    """
    try:
        _settings_at(network, fuse_curves, config)
    except InfeasibleError:
        return False
    return True


def solve_dispatch(network: Network, available: dict[int, float],
                   fuse_curves: dict[str, FuseCurve],
                   config: OptimizerConfig) -> dict[int, float]:
    """Component-wise maximal curtailable outputs that leave the settings
    ladder solvable.

    ``available`` maps each curtailable unit to its output ceiling.
    Feasibility of a candidate point re-solves the ladder at that
    operating state.  Bisection on a single curtailment factor finds a
    feasible base point; tail-first per-unit restoration then pushes
    every unit to its individual limit.  When even full curtailment is
    infeasible the ladder's InfeasibleError, naming the binding pair,
    propagates.
    """
    ids = sorted(available)

    def feasible(outputs: dict[int, float]) -> bool:
        return settings_feasible_at(network.with_dg_outputs(outputs),
                                    fuse_curves, config)

    def at_factor(t: float) -> dict[int, float]:
        return {i: t * available[i] for i in ids}

    if ids and feasible(at_factor(1.0)):
        return at_factor(1.0)
    # raises the ladder's own error if even zero output is infeasible
    _settings_at(network.with_dg_outputs(at_factor(0.0)), fuse_curves, config)
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

    # restoration pass, feeder tail first, deterministic order
    tail_first = sorted(ids, key=lambda i: (-network.dg(i).tap_node, i))
    for uid in tail_first:
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


def baseline_settings(network: Network, fuse_curves: dict[str, FuseCurve],
                      config: OptimizerConfig) -> dict[str, RecloserSettings]:
    """Design-time settings from the no-DG configuration."""
    return _settings_at(replace(network, dg_units=()), fuse_curves, config)


def alternate(network: Network, fuse_curves: dict[str, FuseCurve],
              available: dict[int, float], config: OptimizerConfig,
              initial_settings: dict[str, RecloserSettings] | None = None,
              ) -> tuple[OptimizationTrace, Network,
                         dict[str, RecloserSettings]]:
    """Alternate dispatch and settings until both objectives settle.

    Each iteration dispatches DG to the largest outputs the settings
    ladder admits, re-solves the load flow and fault data once, then
    re-optimizes settings on that state.
    Convergence is declared when both objectives and every constraint
    slack move by less than the configured tolerance; a two-cycle
    oscillation is reported as MAX_ITERS with the cycling values.
    """
    settings = initial_settings or baseline_settings(network, fuse_curves,
                                                     config)
    net = apply_settings(network, settings)

    def snapshot(net_now, settings_now, sub) -> Iterate:
        return Iterate(
            dg_outputs={u.id: u.p_out for u in net_now.dg_units},
            settings=dict(settings_now),
            obj_clearing_time=total_clearing_time(net_now, sub, settings_now),
            obj_dg_output=sum(u.p_out for u in net_now.dg_units),
            slacks=pair_slacks(net_now, sub, fuse_curves, config),
        )

    prev = snapshot(net, settings, build_settings_subproblem(
        net, solve_distflow(net), config))
    iterates: list[Iterate] = []
    stop = StopReason.MAX_ITERS
    converged = False

    for _ in range(config.max_iters):
        try:
            outputs = solve_dispatch(net, available, fuse_curves, config)
        except InfeasibleError:
            stop = StopReason.INFEASIBLE
            break
        net = apply_settings(network.with_dg_outputs(outputs), settings)
        sol = solve_distflow(net)
        ssub = build_settings_subproblem(net, sol, config)
        try:
            settings = solve_settings(net, ssub, fuse_curves, config)
        except InfeasibleError:
            stop = StopReason.INFEASIBLE
            break
        # re-dialing changes no electrical state, so ssub still holds
        net = apply_settings(net, settings)

        cur = snapshot(net, settings, ssub)
        iterates.append(cur)
        d_time = abs(cur.obj_clearing_time - prev.obj_clearing_time)
        d_out = abs(cur.obj_dg_output - prev.obj_dg_output)
        d_slack = max(
            (abs(cur.slacks[k] - prev.slacks.get(k, math.inf))
             for k in cur.slacks), default=0.0)
        if (d_time < config.obj_tol and d_out < config.obj_tol
                and d_slack < config.obj_tol):
            converged = True
            stop = StopReason.SLACK_FIXED_POINT
            break
        if len(iterates) >= 3:
            two_back = iterates[-3]
            if (abs(cur.obj_clearing_time - two_back.obj_clearing_time)
                    < config.obj_tol
                    and abs(cur.obj_dg_output - two_back.obj_dg_output)
                    < config.obj_tol):
                stop = StopReason.MAX_ITERS  # oscillation between two states
                break
        prev = cur

    return (OptimizationTrace(tuple(iterates), converged, stop), net,
            settings)
