"""Settings/dispatch optimization in one pass of the decomposition.

The problem splits into two sub-problems coupled through the
fuse-recloser constraint:

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

The bisections define the dispatch, but are not run probe by probe.
The ladder reports its headroom, the least room it leaves under any
bound it checks, which is >= 0 exactly when it is solvable and close to
linear in output except where units switch off at zero output.  An
Illinois regula falsi on the headroom brackets the feasibility boundary
to a thousandth of the bisection's resolution in a handful of probes;
the bisection is then replayed against that bracket, probing only a
midpoint that falls inside it.  Under the monotonicity above the replay
returns the bisection's point bit for bit.

One dispatch followed by one settings solve is already the fixed point
of alternating the two.  The dispatch feasibility test solves the whole
settings ladder at each candidate state, and neither it nor the dispatch
reads the dials in service or the outputs the dispatch is about to set.
So dispatching again after the settings step returns the same outputs,
and the settings solved again at that state are the same.

The ladder at the candidate state is the only feasibility model; the
per-pair disparity slack it reports is derived from the same ladder.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from enum import Enum

from . import fault as flt
from .coordination import (PairKind, PairStudy, current_grid, study_pairs,
                           zone_currents)
from .curves import (FuseCurve, RecloserCurve, RecloserSettings,
                     fuse_inverse_current, fuse_time)
from .model import Network
from .power_flow import DEFAULT_TOL, PowerFlowSolution, solve_distflow

LL_FACTOR = math.sqrt(3) / 2  # line-line fault proxy from the 3-phase value
MAX_DISPARITY_BOUND = 1024.0  # pu; reported when no fuse cap binds
DIAL_TOL = 1e-12  # dial overrun the ladder forgives against both its bounds
# the regula falsi narrows its bracket to this fraction of the bisection's
# resolution, so the replay probes only a midpoint or two
BRACKET_FRACTION = 1e-3


class StopReason(Enum):
    SLACK_FIXED_POINT = "slack_fixed_point"
    INFEASIBLE = "infeasible"


class InfeasibleError(RuntimeError):
    """No admissible settings or dispatch exists; names the binding pair.

    ``headroom`` is the settings ladder's (negative) headroom when the
    ladder failed on one of its bounds, and None otherwise.
    """

    def __init__(self, pair: str, detail: str,
                 headroom: float | None = None):
        super().__init__(f"infeasible at pair {pair}: {detail}")
        self.pair = pair
        self.headroom = headroom


@dataclass(frozen=True)
class OptimizerConfig:
    fr_margin: float = 0.1
    rr_margin: float = 0.3
    fault_impedance_floor: float = 0.0
    obj_tol: float = 1e-4  # no effect; kept so existing callers work
    dispatch_tol: float = 1e-6  # no effect; kept so existing callers work
    max_iters: int = 20  # no effect; kept so existing callers work
    d_min: float = 0.1
    d_max: float = 1.0
    powerflow_tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class SettingsSubproblem:
    i_max: dict[str, float]
    pairs: tuple[PairStudy, ...]
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
    kernel = flt.fault_kernel(network, sol, range(network.n_nodes))
    floor = config.fault_impedance_floor
    zones = zone_currents(network, sol, floor, kernel)
    pairs = study_pairs(network, sol, floor, kernel, zones)
    return SettingsSubproblem(
        i_max={rid: mx for rid, (mx, _) in zones.items()},
        pairs=tuple(pairs),
        pickup_lo={rec.id: 2.0 * _load_current(network, sol, rec.node)
                   for rec in network.reclosers},
        pickup_hi={rid: 0.5 * LL_FACTOR * mn
                   for rid, (_, mn) in zones.items()})


def _fuse_pairs(sub: SettingsSubproblem) -> list[PairStudy]:
    return [pd for pd in sub.pairs if pd.kind is PairKind.FUSE_RECLOSER]


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
                               ) -> tuple[dict[str, RecloserSettings], float]:
    """Downstream-first dial ladder at frozen pickups, and its headroom.

    The headroom is the least room the ladder leaves under a bound it
    checks, each with DIAL_TOL: a recloser's fuse cap over the dial it
    needs, and d_max over the need of each raised backup.  It is >= 0
    exactly when the ladder is solvable.  Otherwise the ladder still runs
    every check, then raises the first violation with the headroom.  A
    current outside a curve's operating region, or a disparity that
    swamps the backup current, has no such measure: it raises at once
    (the first violation, if one came before), with no headroom.
    """
    order = list(network.reclosers)
    curve = {rec.id: rec.sequence.coordinating_curve for rec in order}
    kconst = {rid: cv.constants.K for rid, cv in curve.items()}

    # per-device upper bound from its fuse pairs: the margin constraint
    # is quantified over the pair's current range, so one affine
    # constraint per grid sample, all with D as the only free variable
    ub: dict[str, float] = {rec.id: config.d_max for rec in order}
    ub_pair: dict[str, str] = {}
    if enforce_ub:
        for pd in _fuse_pairs(sub):
            fuse = fuse_curves[network.lateral(pd.backup).fuse]
            sw = pd.sweep
            for i in current_grid(sw.i_primary_min, sw.i_primary_max):
                t_fuse = fuse_time(fuse, "mm", float(i) + sw.delta)
                if math.isinf(t_fuse):
                    continue  # fuse never melts here; no constraint at i
                slope = _affine_slope(curve[pd.primary], pickups[pd.primary],
                                      float(i), pd.id)
                limit = ((t_fuse - config.fr_margin - kconst[pd.primary])
                         / slope)
                if limit < ub[pd.primary]:
                    ub[pd.primary] = limit
                    ub_pair[pd.primary] = pd.id

    rr_up = {pd.primary: pd for pd in sub.pairs
             if pd.kind is PairKind.RECLOSER_RECLOSER}
    lb: dict[str, float] = {rec.id: config.d_min for rec in order}
    dial: dict[str, float] = {}
    headroom = math.inf
    first: InfeasibleError | None = None
    try:
        for rec in reversed(order):
            d = lb[rec.id]
            room = ub[rec.id] + DIAL_TOL - d
            headroom = min(headroom, room)
            if room < 0 and first is None:
                first = InfeasibleError(
                    ub_pair.get(rec.id, rec.id),
                    f"needs D >= {d:.4f} but fuse pair caps it at "
                    f"{ub[rec.id]:.4f}")
            dial[rec.id] = d
            pd = rr_up.get(rec.id)
            if pd is None:
                continue
            # the backup must clear at least rr_margin later at every
            # current of the downstream device's range, its own current
            # lowered by the in-between DG disparity
            sw = pd.sweep
            for i in current_grid(sw.i_primary_min, sw.i_primary_max):
                slope_down = _affine_slope(curve[rec.id], pickups[rec.id],
                                           float(i), pd.id)
                i_up = float(i) - sw.delta
                if i_up <= 0:
                    raise InfeasibleError(
                        pd.id,
                        f"disparity {sw.delta:.4g} pu swamps the backup "
                        f"current at {i:.4g} pu")
                slope_up = _affine_slope(curve[pd.backup], pickups[pd.backup],
                                         i_up, pd.id)
                need = (config.rr_margin + slope_down * d + kconst[rec.id]
                        - kconst[pd.backup]) / slope_up
                if need > lb[pd.backup]:
                    lb[pd.backup] = need
                    room = config.d_max + DIAL_TOL - need
                    headroom = min(headroom, room)
                    if room < 0 and first is None:
                        first = InfeasibleError(
                            pd.id,
                            f"backup needs D = {need:.4f} > {config.d_max}")
    except InfeasibleError as exc:
        if first is None:
            raise
        raise first from exc
    if first is not None:
        first.headroom = headroom
        raise first
    return {rid: RecloserSettings(pickup=pickups[rid],
                                  time_dial=min(max(dial[rid], config.d_min),
                                                config.d_max))
            for rid in dial}, headroom


def solve_settings(network: Network, sub: SettingsSubproblem,
                   fuse_curves: dict[str, FuseCurve],
                   config: OptimizerConfig) -> dict[str, RecloserSettings]:
    """Minimum-total-clearing-time settings at rule-selected pickups.

    Pickups sit at twice the maximum load current, which maximizes the
    margin headroom of every fuse pair; pair_slacks assumes the same
    selection when it converts margins into disparity bounds.
    """
    return _solve_settings_at_pickups(network, sub, fuse_curves,
                                      _rule_pickups(sub), config)[0]


def _rule_pickups(sub: SettingsSubproblem) -> dict[str, float]:
    """The rule's pickups; raises InfeasibleError, with no headroom, when
    a recloser's pickup window is empty."""
    pickups = dict(sub.pickup_lo)
    for rid, hi in sub.pickup_hi.items():
        if pickups[rid] > hi:
            raise InfeasibleError(
                rid, f"pickup rule empty: 2x load {pickups[rid]:.4g} exceeds "
                     f"half line-line fault {hi:.4g}")
    return pickups


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
    floor, _ = _solve_settings_at_pickups(network, sub, fuse_curves, pickups,
                                          config, enforce_ub=False)
    slacks: dict[str, float] = {}
    for pd in _fuse_pairs(sub):
        curve = network.recloser(pd.primary).sequence.coordinating_curve
        fuse = fuse_curves[network.lateral(pd.backup).fuse]
        base = config.fr_margin + curve.constants.K
        dial = floor[pd.primary].time_dial
        bound = MAX_DISPARITY_BOUND
        sw = pd.sweep
        for i in current_grid(sw.i_primary_min, sw.i_primary_max):
            t_need = dial * _affine_slope(curve, pickups[pd.primary], float(i),
                                          pd.id) + base
            if t_need <= fuse.mm_points[-1][1]:
                continue
            if t_need > fuse.mm_points[0][1]:
                reach = fuse.mm_points[0][0]
            else:
                reach = fuse_inverse_current(fuse, "mm", t_need)
            bound = min(bound, reach - float(i))
        slacks[pd.id] = max(bound, 0.0) - sw.delta
    return slacks


def _settings_at(network: Network, fuse_curves: dict[str, FuseCurve],
                 config: OptimizerConfig,
                 ) -> tuple[dict[str, RecloserSettings], float]:
    """Settings for the network as dispatched and the ladder's headroom;
    raises InfeasibleError."""
    sol = solve_distflow(network, tol=config.powerflow_tol)
    sub = build_settings_subproblem(network, sol, config)
    return _solve_settings_at_pickups(network, sub, fuse_curves,
                                      _rule_pickups(sub), config)


def _probe(network: Network, fuse_curves: dict[str, FuseCurve],
           config: OptimizerConfig) -> tuple[bool, float | None]:
    """The ladder's verdict for the network as dispatched, and its
    headroom (None when the failure has none)."""
    try:
        return True, _settings_at(network, fuse_curves, config)[1]
    except InfeasibleError as exc:
        return False, exc.headroom


def settings_feasible_at(network: Network,
                         fuse_curves: dict[str, FuseCurve],
                         config: OptimizerConfig) -> bool:
    """Whether admissible settings exist for the network as dispatched.

    The ladder is solved in full at the candidate state, so a higher
    disparity downstream that raises the dial an upstream device needs,
    and with it tightens that device's own fuse cap, is accounted for.
    """
    return _probe(network, fuse_curves, config)[0]


def _replayed_bisection(probe: Callable[[float], tuple[bool, float | None]],
                        lo: float, hi: float, tol: float,
                        h_lo: float | None, h_hi: float | None) -> float:
    """The point that bisecting [lo, hi] down to width tol returns, found
    with fewer probes.

    ``probe(x)`` is the ladder's verdict at x and its headroom; lo is
    feasible, hi is not, and h_lo, h_hi are their headrooms (None when
    not usable).  An Illinois regula falsi on the headroom first narrows
    a bracket [a, b], a feasible and b not, to tol * BRACKET_FRACTION.
    Each verdict comes from the ladder, never from the sign of the
    headroom; a step outside the bracket, or an end without usable
    headroom, takes the midpoint.  Then the plain bisection is replayed:
    with feasibility monotone in x, a midpoint at or below a is feasible
    and one at or above b is not, so only a midpoint strictly inside
    (a, b) is probed, and the answer is the bisection's bit for bit.
    """
    a, b, h_a, h_b = lo, hi, h_lo, h_hi
    width = tol * BRACKET_FRACTION
    kept = None  # the end the last step kept, for the Illinois halving
    while hi - lo > tol and b - a >= width:
        x = 0.5 * (a + b)
        if h_a is not None and h_b is not None:
            secant = b - h_b * (b - a) / (h_b - h_a)
            if a <= secant <= b:
                # half the target width inside, so a step onto an end
                # (zero headroom there) still closes the bracket
                x = min(max(secant, a + 0.5 * width), b - 0.5 * width)
        ok, h = probe(x)
        if ok:
            a, h_a = x, h
            if kept == "b" and h_b is not None:
                h_b *= 0.5
            kept = "b"
        else:
            b, h_b = x, h
            if kept == "a" and h_a is not None:
                h_a *= 0.5
            kept = "a"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        elif probe(mid)[0]:
            lo = a = mid
        else:
            hi = b = mid
    return lo


def solve_dispatch(network: Network, available: dict[int, float],
                   fuse_curves: dict[str, FuseCurve],
                   config: OptimizerConfig) -> dict[int, float]:
    """Component-wise maximal curtailable outputs that leave the settings
    ladder solvable.

    ``available`` maps each curtailable unit to its output ceiling.
    Feasibility of a candidate point re-solves the ladder at that
    operating state.  Bisection on a single curtailment factor finds a
    feasible base point; tail-first per-unit restoration then pushes
    every unit to its individual limit.  Each bisection is the
    definition of its answer, and _replayed_bisection reaches the same
    point with a headroom-guided search and far fewer probes.  The
    probe at factor 0, where every curtailable unit is off, gives no
    usable headroom: switching units off is a jump, not a continuation.
    When even full curtailment is infeasible the ladder's
    InfeasibleError, naming the binding pair, propagates.
    """
    ids = sorted(available)

    def probe(outputs: dict[int, float]) -> tuple[bool, float | None]:
        return _probe(network.with_dg_outputs(outputs), fuse_curves, config)

    def at_factor(t: float) -> dict[int, float]:
        return {i: t * available[i] for i in ids}

    h_full = None
    if ids:
        ok, h_full = probe(at_factor(1.0))
        if ok:
            return at_factor(1.0)
    # raises the ladder's own error if even zero output is infeasible
    _settings_at(network.with_dg_outputs(at_factor(0.0)), fuse_curves, config)
    if not ids:
        return {}

    lo = _replayed_bisection(lambda t: probe(at_factor(t)), 0.0, 1.0, 1e-9,
                             None, h_full)
    outputs = at_factor(lo)

    # restoration pass, feeder tail first, deterministic order
    tail_first = sorted(ids, key=lambda i: (-network.dg(i).tap_node, i))
    h_lo = None  # headroom at outputs, known once probed there
    for uid in tail_first:
        p_lo, p_hi = outputs[uid], available[uid]
        if p_hi - p_lo <= 1e-12:
            continue

        def at_output(p: float, uid: int = uid):
            return probe({**outputs, uid: p})

        ok, h_hi = at_output(p_hi)
        if ok:
            outputs[uid], h_lo = p_hi, h_hi
            continue
        if h_lo is None:
            h_lo = at_output(p_lo)[1]
        outputs[uid] = _replayed_bisection(
            at_output, p_lo, p_hi, 1e-9 * max(available[uid], 1.0), h_lo,
            h_hi)
        if outputs[uid] != p_lo:
            h_lo = None  # outputs moved; its headroom is not kept
    return outputs


def baseline_settings(network: Network, fuse_curves: dict[str, FuseCurve],
                      config: OptimizerConfig) -> dict[str, RecloserSettings]:
    """Design-time settings from the no-DG configuration."""
    return _settings_at(replace(network, dg_units=()), fuse_curves,
                        config)[0]


def alternate(network: Network, fuse_curves: dict[str, FuseCurve],
              available: dict[int, float], config: OptimizerConfig,
              initial_settings: dict[str, RecloserSettings] | None = None,
              ) -> tuple[OptimizationTrace, Network,
                         dict[str, RecloserSettings]]:
    """Dispatch DG once, then solve settings once at the dispatched state.

    Returns the single iterate, the dispatched and re-dialed network and
    its settings.  When either step is infeasible the trace is empty,
    stops at INFEASIBLE, and the start settings are returned.
    """
    settings = initial_settings or baseline_settings(network, fuse_curves,
                                                     config)
    net = apply_settings(network, settings)
    try:
        net = net.with_dg_outputs(
            solve_dispatch(net, available, fuse_curves, config))
        sol = solve_distflow(net, tol=config.powerflow_tol)
        sub = build_settings_subproblem(net, sol, config)
        settings = solve_settings(net, sub, fuse_curves, config)
    except InfeasibleError:
        return OptimizationTrace((), StopReason.INFEASIBLE), net, settings
    # re-dialing changes no electrical state, so sub still holds
    net = apply_settings(net, settings)
    iterate = Iterate(
        dg_outputs={u.id: u.p_out for u in net.dg_units},
        settings=dict(settings),
        obj_clearing_time=total_clearing_time(net, sub, settings),
        obj_dg_output=sum(u.p_out for u in net.dg_units),
        slacks=pair_slacks(net, sub, fuse_curves, config),
    )
    return (OptimizationTrace((iterate,), StopReason.SLACK_FIXED_POINT), net,
            settings)
