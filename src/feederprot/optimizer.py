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

Both need the settings ladder solved at one operating state.
study_state solves a state once into a StateStudy: its load flow, its
settings subproblem and one ladder pass with dials, headroom and
verdict.  The dispatch probe reads the verdict and headroom, the
settings step the dials, total_clearing_time the zone currents and
pair_slacks the floor dials.  solve_dispatch returns its answer's
study, so no consumer solves that state again.

The bisections define the dispatch, but are not run probe by probe.
The ladder's headroom, the least room it leaves under any bound it
checks, is >= 0 exactly when it is solvable and close to linear in
output except where units switch off at zero output.  An Illinois
regula falsi on the headroom brackets the feasibility boundary to a
thousandth of the bisection's resolution in a handful of probes; the
bisection is then replayed against that bracket, probing only a
midpoint inside it, and under the monotonicity above returns the
bisection's point bit for bit.

One dispatch followed by one settings solve is already the fixed point
of alternating the two: neither the feasibility test nor the dispatch
reads the dials in service or the outputs the dispatch is about to set.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from . import fault as flt
from .coordination import PairKind, PairStudy, study_pairs
from .curves import (TIME_DIAL_MAX, TIME_DIAL_MIN, FuseCurve, RecloserCurve,
                     RecloserSettings, fuse_inverse_current, fuse_time)
from .model import Network
from .power_flow import DEFAULT_TOL, PowerFlowSolution, solve_distflow

LL_FACTOR = math.sqrt(3) / 2  # line-line fault proxy from the 3-phase value
MAX_DISPARITY_BOUND = 1024.0  # pu; reported when no fuse cap binds
DIAL_TOL = 1e-12  # dial overrun the ladder forgives against both its bounds
# the regula falsi narrows its bracket to this fraction of the bisection's
# resolution, so the replay probes only a midpoint or two
BRACKET_FRACTION = 1e-3


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
    obj_tol: float = 1e-4  # no effect; kept so existing callers work
    dispatch_tol: float = 1e-6  # no effect; kept so existing callers work
    max_iters: int = 20  # no effect; kept so existing callers work
    powerflow_tol: float = DEFAULT_TOL


@dataclass(frozen=True)
class SettingsSubproblem:
    i_max: dict[str, float]
    pairs: tuple[PairStudy, ...]
    pickup_lo: dict[str, float]  # twice the maximum load current
    pickup_hi: dict[str, float]  # half the minimum line-line fault current


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
    kernel = flt.fault_kernel(network, sol)
    floor = config.fault_impedance_floor
    pairs, zones = study_pairs(kernel, floor)
    return SettingsSubproblem(
        i_max={rid: mx for rid, (mx, _) in zones.items()},
        pairs=tuple(pairs),
        pickup_lo={rec.id: 2.0 * _load_current(network, sol, rec.node)
                   for rec in network.reclosers},
        pickup_hi={rid: 0.5 * LL_FACTOR * mn
                   for rid, (_, mn) in zones.items()})


def _fuse_pairs(sub: SettingsSubproblem) -> list[PairStudy]:
    return [pd for pd in sub.pairs if pd.kind is PairKind.FUSE_RECLOSER]


def _dial_slope(curve: RecloserCurve, pickup: float,
                pair: str) -> Callable[[float], float]:
    """dT/dD at a current with pickup frozen, T = slope*D + K; the
    curve's constants are read once, for every current of the pair."""
    c = curve.constants
    a, b, cc, m = c.a, c.b, c.c, c.m

    def slope(current: float) -> float:
        mult = current / pickup
        denom = mult ** m - cc
        if mult <= 1.0 or denom <= 0.0:
            raise InfeasibleError(
                pair, f"current {current:.4g} pu below operating region of "
                      f"pickup {pickup:.4g} pu")
        return a / denom + b
    return slope


def _solve_settings_at_pickups(network: Network, sub: SettingsSubproblem,
                               fuse_curves: dict[str, FuseCurve],
                               config: OptimizerConfig,
                               ) -> tuple[dict[str, RecloserSettings], float,
                                          InfeasibleError | None]:
    """Downstream-first dial ladder at the rule's pickups: its dials, its
    headroom and its first violation (None when it is solvable).

    The headroom is the least room left under a bound, each with
    DIAL_TOL: a recloser's fuse cap over the dial it needs, and
    TIME_DIAL_MAX over the need of each raised backup; it is >= 0 exactly
    when the ladder is solvable.  No bound feeds a dial, so the ladder
    runs on past a violation.  A current outside a curve's operating
    region, or a disparity that swamps the backup current, raises at
    once (the first violation, if one came before).
    """
    order = list(network.reclosers)
    pickups = sub.pickup_lo
    curve = {rec.id: rec.sequence.coordinating_curve for rec in order}
    kconst = {rid: cv.constants.K for rid, cv in curve.items()}
    fr_margin, rr_margin = config.fr_margin, config.rr_margin

    # per-device upper bound from its fuse pairs: the margin constraint
    # is quantified over the pair's current range, so one affine
    # constraint per grid sample, all with D as the only free variable
    ub: dict[str, float] = {rec.id: TIME_DIAL_MAX for rec in order}
    ub_pair: dict[str, str] = {}
    for pd in _fuse_pairs(sub):
        fuse = fuse_curves[network.lateral(pd.backup).fuse]
        slope_at = _dial_slope(curve[pd.primary], pickups[pd.primary], pd.id)
        k, cap, delta = kconst[pd.primary], ub[pd.primary], pd.sweep.delta
        for i in pd.sweep.grid:
            t_fuse = fuse_time(fuse, i + delta)
            if math.isinf(t_fuse):
                continue  # fuse never melts here; no constraint at i
            limit = (t_fuse - fr_margin - k) / slope_at(i)
            if limit < cap:
                cap = ub[pd.primary] = limit
                ub_pair[pd.primary] = pd.id

    rr_up = {pd.primary: pd for pd in sub.pairs
             if pd.kind is PairKind.RECLOSER_RECLOSER}
    lb: dict[str, float] = {rec.id: TIME_DIAL_MIN for rec in order}
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
            down = _dial_slope(curve[rec.id], pickups[rec.id], pd.id)
            up = _dial_slope(curve[pd.backup], pickups[pd.backup], pd.id)
            k_down, k_up = kconst[rec.id], kconst[pd.backup]
            floor, delta = lb[pd.backup], pd.sweep.delta
            for i in pd.sweep.grid:
                slope_down = down(i)
                i_up = i - delta
                if i_up <= 0:
                    raise InfeasibleError(
                        pd.id,
                        f"disparity {delta:.4g} pu swamps the backup "
                        f"current at {i:.4g} pu")
                need = (rr_margin + slope_down * d + k_down - k_up) / up(i_up)
                if need > floor:
                    floor = lb[pd.backup] = need
                    room = TIME_DIAL_MAX + DIAL_TOL - need
                    headroom = min(headroom, room)
                    if room < 0 and first is None:
                        first = InfeasibleError(
                            pd.id,
                            f"backup needs D = {need:.4f} > {TIME_DIAL_MAX}")
    except InfeasibleError as exc:
        if first is None:
            raise
        raise first from exc
    return {rid: RecloserSettings(pickup=pickups[rid],
                                  time_dial=min(d, TIME_DIAL_MAX))
            for rid, d in dial.items()}, headroom, first


@dataclass(frozen=True, eq=False)
class StateStudy:
    """One operating state, solved once and read by every consumer.

    ``dials`` are the ladder's floor dials, kept through a violated bound
    and None when the ladder raised.  ``error`` is the verdict: None, or
    the first InfeasibleError, an empty pickup rule first.  ``headroom``
    is the ladder's, None when the failure has no such measure.
    """

    network: Network
    flow: PowerFlowSolution
    sub: SettingsSubproblem
    dials: dict[str, RecloserSettings] | None
    headroom: float | None
    error: InfeasibleError | None

    def settings(self) -> dict[str, RecloserSettings]:
        """Minimum-total-clearing-time settings here; raises the verdict."""
        if self.error is not None:
            raise self.error
        return self.dials


def study_state(network: Network, fuse_curves: dict[str, FuseCurve],
                config: OptimizerConfig) -> StateStudy:
    """Solve the network as dispatched into its StateStudy.

    Pickups sit at twice the maximum load current, which maximizes the
    margin headroom of every fuse pair.  The rule is empty when that is
    zero, which leaves the ladder unrun, or exceeds half the minimum
    line-line fault current.
    """
    flow = solve_distflow(network, tol=config.powerflow_tol)
    sub = build_settings_subproblem(network, flow, config)
    dials = headroom = error = None
    try:
        if all(lo > 0 for lo in sub.pickup_lo.values()):
            dials, headroom, error = _solve_settings_at_pickups(
                network, sub, fuse_curves, config)
    except InfeasibleError as exc:
        error = exc
    for rid, hi in sub.pickup_hi.items():
        lo = sub.pickup_lo[rid]
        if not 0 < lo <= hi:
            headroom, error = None, InfeasibleError(
                rid, f"pickup rule empty: 2x load {lo:.4g} exceeds half "
                     f"line-line fault {hi:.4g}" if lo else
                     "pickup rule empty: no load past the recloser")
            break
    return StateStudy(network, flow, sub, dials, headroom, error)


def apply_settings(network: Network,
                   settings: dict[str, RecloserSettings]) -> Network:
    """Copy of the network with each recloser's curves re-dialed.

    The coordinating curve takes the solved dial; the other curves keep
    their dial and adopt the solved pickup.  Solved dials that put a fast
    curve above a slow one raise InfeasibleError naming the recloser.
    """
    new_recs = []
    for rec in network.reclosers:
        if rec.id not in settings:
            new_recs.append(rec)
            continue
        st = settings[rec.id]
        coord = rec.sequence.coordinating_curve
        seq = replace(rec.sequence, curves=tuple(
            replace(cv, settings=st if cv is coord
                    else replace(cv.settings, pickup=st.pickup))
            for cv in rec.sequence.curves))
        crossing = seq.fast_above_slow()
        if crossing is not None:
            raise InfeasibleError(
                rec.id, f"solved dial {st.time_dial:.4f} puts the fast curve "
                        f"above the slow curve at {crossing:g} pu")
        new_recs.append(replace(rec, sequence=seq))
    return replace(network, reclosers=tuple(new_recs))


def total_clearing_time(study: StateStudy,
                        settings: dict[str, RecloserSettings]) -> float:
    """Sum of coordinating-curve trip times at each recloser's zone maximum."""
    total = 0.0
    for rec in study.network.reclosers:
        cv = replace(rec.sequence.coordinating_curve, settings=settings[rec.id])
        t = cv.time_at(study.sub.i_max[rec.id])
        total += t if not math.isinf(t) else 0.0
    return total


def pair_slacks(study: StateStudy, fuse_curves: dict[str, FuseCurve],
                config: OptimizerConfig) -> dict[str, float]:
    """Disparity headroom of every fuse-recloser pair, keyed by pair id.

    A pair's bound is the largest disparity whose fuse cap stays at or
    above D, the study's floor dial less the DIAL_TOL the ladder
    forgives, so the slack's sign agrees with the ladder's cap check.
    At each grid current i the fuse must not melt before T_i =
    D*slope_i + fr_margin + K: its current must stay at or below the MM
    table's current at T_i, the first tabulated one when T_i lies above
    the table, and unbounded at or below its clamped tail.  The bound,
    clamped to [0, MAX_DISPARITY_BOUND], minus the pair's disparity is
    its slack.  Raises the study's verdict when it has no dials.
    """
    if study.dials is None:
        raise study.error
    network, sub = study.network, study.sub
    slacks: dict[str, float] = {}
    for pd in _fuse_pairs(sub):
        curve = network.recloser(pd.primary).sequence.coordinating_curve
        fuse = fuse_curves[network.lateral(pd.backup).fuse]
        base = config.fr_margin + curve.constants.K
        dial = study.dials[pd.primary].time_dial - DIAL_TOL
        slope_at = _dial_slope(curve, sub.pickup_lo[pd.primary], pd.id)
        t_tail, (i_head, t_head) = fuse.mm_points[-1][1], fuse.mm_points[0]
        bound = MAX_DISPARITY_BOUND
        for i in pd.sweep.grid:
            t_need = dial * slope_at(i) + base
            if t_need <= t_tail:
                continue
            if t_need > t_head:
                reach = i_head
            else:
                reach = fuse_inverse_current(fuse, t_need)
            bound = min(bound, reach - i)
        slacks[pd.id] = max(bound, 0.0) - pd.sweep.delta
    return slacks


def settings_feasible_at(network: Network,
                         fuse_curves: dict[str, FuseCurve],
                         config: OptimizerConfig) -> bool:
    """Whether admissible settings exist for the network as dispatched.

    The ladder is solved in full at the candidate state, so a higher
    disparity downstream that raises the dial an upstream device needs,
    and with it tightens that device's own fuse cap, is accounted for.
    """
    return study_state(network, fuse_curves, config).error is None


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
                   config: OptimizerConfig,
                   ) -> tuple[dict[int, float], StateStudy]:
    """Component-wise maximal curtailable outputs that leave the settings
    ladder solvable, and the study of the state they set.

    ``available`` maps each curtailable unit to its output ceiling.
    A candidate's feasibility is its study's verdict; studies are kept
    by outputs, so no state is solved twice.  Bisection on a single
    curtailment factor finds a feasible base point; tail-first per-unit
    restoration then pushes every unit to its individual limit.  Each
    bisection defines its answer; _replayed_bisection reaches the same
    point with a headroom-guided search and far fewer probes.  The
    probe at factor 0, where every curtailable unit is off, gives no
    usable headroom: switching units off is a jump, not a continuation.
    When even full curtailment is infeasible the ladder's
    InfeasibleError, naming the binding pair, propagates.
    """
    ids = sorted(available)
    studies: dict[tuple[float, ...], StateStudy] = {}

    def study_at(outputs: dict[int, float]) -> StateStudy:
        key = tuple(outputs[i] for i in ids)
        if key not in studies:
            studies[key] = study_state(network.with_dg_outputs(outputs),
                                       fuse_curves, config)
        return studies[key]

    def probe(outputs: dict[int, float]) -> tuple[bool, float | None]:
        study = study_at(outputs)
        return study.error is None, study.headroom

    def at_factor(t: float) -> dict[int, float]:
        return {i: t * available[i] for i in ids}

    full = study_at(at_factor(1.0))
    if ids and full.error is None:
        return at_factor(1.0), full
    # raises the ladder's own error if even zero output is infeasible
    study_at(at_factor(0.0)).settings()
    if not ids:
        return {}, full

    lo = _replayed_bisection(lambda t: probe(at_factor(t)), 0.0, 1.0, 1e-9,
                             None, full.headroom)
    outputs = at_factor(lo)

    # restoration pass, feeder tail first, deterministic order
    for uid in sorted(ids, key=lambda i: (-network.dg(i).tap_node, i)):
        p_lo, p_hi = outputs[uid], available[uid]
        if p_hi - p_lo <= 1e-12:
            continue

        def at_output(p: float, uid: int = uid):
            return probe({**outputs, uid: p})

        ok, h_hi = at_output(p_hi)
        if ok:
            outputs[uid] = p_hi
            continue
        outputs[uid] = _replayed_bisection(
            at_output, p_lo, p_hi, 1e-9 * max(available[uid], 1.0),
            at_output(p_lo)[1], h_hi)
    return outputs, study_at(outputs)


def baseline_settings(network: Network, fuse_curves: dict[str, FuseCurve],
                      config: OptimizerConfig) -> dict[str, RecloserSettings]:
    """Design-time settings from the no-DG configuration."""
    return study_state(replace(network, dg_units=()), fuse_curves,
                       config).settings()
