"""Settings/dispatch optimization in one pass of the decomposition.

The problem splits into two sub-problems coupled through the
fuse-recloser constraint:

* settings: with fault currents and pickups frozen, every recloser trip
  time is affine in its time-dial D, so minimizing total clearing time
  under the pair constraints is a linear program over the D vector.  On
  a radial chain it is solved exactly by downstream-first propagation,
  which also realizes the lexicographically-smallest optimum.
* dispatch: a component-wise maximal DG real output, not the maximum
  total, at which the settings ladder stays solvable.  Every disparity
  is monotone non-decreasing in each unit's output, so a bisection on a
  global curtailment factor followed by tail-first per-unit restoration
  reaches one.

Both need the settings ladder solved at one operating state.
study_state solves a state once into a StateStudy, one flat record: its
pairs, zone currents and pickups, and its verdict, an empty pickup rule
or one ladder pass's with dials and headroom; only settings() raises it.
The dispatch probe reads the verdict and headroom, the settings step
the dials, total_clearing_time the zone currents and pair_slacks the
floor dials.  solve_dispatch returns its answer's study, so no
consumer solves that state again.

The bisections define the dispatch, but are not run probe by probe.
Under the monotonicity above, a feasible and an infeasible probe decide
every point of a bisection's walk not strictly between them.  The
ladder's headroom, the least room it leaves under any bound it checks,
is >= 0 exactly when it is solvable and smooth in output except where
units switch off at zero output, so inverse quadratic interpolation
through the last three probed headrooms, as in Brent's root finder
(Brent 1973, Algorithms for Minimization without Derivatives),
predicts the undecided rest of the walk, and only points of that walk
are probed until none is left undecided.  The walk's point is then the
bisection's bit for bit, and a state already solved.

The ladder's bounds are each the extreme of a quotient over a pair's
current axis, whose numerator and denominator both fall along the
axis, and a pair's slack is the least gap between the current the fuse
may carry and the axis current.  _extreme finds every one, leaving
unsampled the blocks of samples that cannot move it, so the ladder
returns the full sweep's dials, headroom and verdict, and pair_slacks
its slacks, bit for bit.

One dispatch followed by one settings solve is already the fixed point
of alternating the two: neither the feasibility test nor the dispatch
reads the dials in service or the outputs the dispatch is about to set.
operate runs that pass step by step over a plan of outputs and
dispatch ceilings: optimize is its one-step plan, timeseries one step
per profile value.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, replace

from . import fault as flt
from .coordination import (DEFAULT_FR_MARGIN, DEFAULT_RR_MARGIN, PairKind,
                           PairStudy, pair_curves, study_pairs)
from .curves import (TIME_DIAL_MAX, TIME_DIAL_MIN, FuseCurve, RecloserCurve,
                     RecloserSettings, fuse_inverse_current, fuse_time,
                     tci_time)
from .model import Network, left_sum
from .power_flow import DEFAULT_TOL, PowerFlowSolution, solve_distflow

LL_FACTOR = math.sqrt(3) / 2  # line-line fault proxy from the 3-phase value
MAX_DISPARITY_BOUND = 1024.0  # pu; reported when no fuse cap binds
DIAL_TOL = 1e-12  # dial overrun the ladder forgives against both its bounds
PRUNE_GUARD = 1e-9
"""How near a block's bound may come to the running level before
_extreme samples inside the block.

In exact arithmetic no quotient N/S inside a block passes its bound.
Computed, one can pass it only where rounding puts two samples' melt
times or slopes out of order, which needs their exact values within a
few ulps of each other; it then passes by a few ulps of the terms
that make up N, over S: about 1e-15 * (|N/S| + (margin + K)/S).  The
caps that can still bind are at most TIME_DIAL_MAX = 1, the floors
that matter are of the same order, and the shipped curve families keep
S above their b >= 0.11 s per unit dial, so with margins and offsets
under 1e3 s that error stays below 1e-11, under a hundredth of the
guard.  pair_slacks' gaps reach - i are currents in pu.  Computed, a
reach can fall below an earlier one only where two samples' needed
times lie within a few ulps of each other or the MM table's segments
meet, and then by a few ulps of the reach, at most the table's last
current; the shipped tables end at 32 pu, so a gap passes its block
bound by under 1e-13 pu.  A wider guard only samples more.
"""


class InfeasibleError(RuntimeError):
    """No admissible settings or dispatch exists; names the binding pair.

    A failed dispatch also carries the study of its ceiling state, which
    it solved first, as ``ceiling``."""

    def __init__(self, pair: str, detail: str,
                 ceiling: StateStudy | None = None):
        super().__init__(f"infeasible at pair {pair}: {detail}")
        self.pair, self.detail, self.ceiling = pair, detail, ceiling


@dataclass(frozen=True)
class OptimizerConfig:
    fr_margin: float = DEFAULT_FR_MARGIN
    rr_margin: float = DEFAULT_RR_MARGIN
    fault_impedance_floor: float = 0.0
    obj_tol: float = 1e-4  # no effect; kept so existing callers work
    dispatch_tol: float = 1e-6  # no effect; kept so existing callers work
    max_iters: int = 20  # no effect; kept so existing callers work
    powerflow_tol: float = DEFAULT_TOL


def _load_current(network: Network, sol: PowerFlowSolution, node: int) -> float:
    """Apparent load current carried past the node, DG netting excluded.

    The pickup rule keys off the load the device must carry, so DG
    injection downstream must not shrink it.
    """
    past = [lat for lat in network.laterals if lat.tap_node >= node]
    p = left_sum(lat.load_p for lat in past)
    q = left_sum(lat.load_q for lat in past)
    return math.hypot(p, q) / sol.v_mag[node]


def _fuse_pairs(pairs: Sequence[PairStudy]) -> list[PairStudy]:
    return [pd for pd in pairs if pd.kind is PairKind.FUSE_RECLOSER]


def _dial_slope(curve: RecloserCurve, pickup: float,
                pair: str) -> Callable[[float], float]:
    """dT/dD at a current with pickup frozen, T = slope*D + K; the
    curve's constants are read once, for every current of the pair."""
    c = curve.constants
    a, b, cc, m = c.a, c.b, c.c, c.m

    def slope(current: float) -> float:
        mult = current / pickup
        try:
            denom = mult ** m - cc
        except OverflowError:  # a/denom is 0 to double precision
            return b
        if mult <= 1.0 or denom <= 0.0:
            raise InfeasibleError(
                pair, f"current {current:.4g} pu below operating region of "
                      f"pickup {pickup:.4g} pu")
        return a / denom + b
    return slope


def _extreme(term: Callable[[int], tuple[float, float]], first: int,
             last: int, level: float, greatest: bool,
             cap: float = math.inf,
             block: Callable[[int, int], float] | None = None,
             ) -> tuple[float, dict[int, tuple[float, float]]]:
    """The greatest (or least) of level and the quotients n/s that term(j)
    = (n, s) gives over samples first..last, and the samples taken.

    n never rises along the samples and s is positive and falling, so
    the ends of a block (a, b) bound every quotient strictly inside it:
    none lies above n(a)/s(b), or n(a)/s(a) when n(a) < 0, nor below
    n(b)/s(a), or n(b)/s(b) when n(b) < 0.  The least of pair_slacks'
    gaps reach - i, each over s = 1, has its own bound, block(a, b) =
    reach(a) - i(b): reach never falls along the samples and i rises,
    so no gap inside lies below it.  The sweep samples first, then
    last, then halves blocks left first, sampling each midpoint, but
    leaves out a block whose bound stays more than PRUNE_GUARD short of
    the running level (for the greatest, of cap if smaller): no
    quotient inside reaches it.  So the level is the full sweep's, and
    the greatest takes every sample whose quotient passes cap.
    """
    taken: dict[int, tuple[float, float]] = {}
    ends = [last, first] if last > first else [first]
    blocks = [(first, last)] if last - first > 1 else []
    while ends or blocks:
        if ends:
            j = ends.pop()
        else:
            a, b = blocks.pop()
            if greatest:
                n = taken[a][0]
                if n / taken[a if n < 0 else b][1] \
                        < min(level, cap) - PRUNE_GUARD:
                    continue
            elif block is not None:
                if block(a, b) > level + PRUNE_GUARD:
                    continue
            else:
                n = taken[b][0]
                if n / taken[b if n < 0 else a][1] > level + PRUNE_GUARD:
                    continue
            j = (a + b) // 2
            if b - j > 1:
                blocks.append((j, b))
            if j - a > 1:
                blocks.append((a, j))
        n, s = taken[j] = term(j)
        q = n / s
        if q > level if greatest else q < level:
            level = q
    return level, taken


def _solve_settings_at_pickups(network: Network, pairs: Sequence[PairStudy],
                               pickups: dict[str, float],
                               fuse_curves: dict[str, FuseCurve],
                               config: OptimizerConfig,
                               ) -> tuple[dict[str, RecloserSettings] | None,
                                          float | None,
                                          InfeasibleError | None]:
    """Downstream-first dial ladder at the given pickups: its dials, its
    headroom and its verdict, the first violation (None when solvable).

    The headroom is the least room left under a bound, each with
    DIAL_TOL: a recloser's fuse cap over the dial it needs, and
    TIME_DIAL_MAX over the need of each raised backup; it is >= 0 exactly
    when the ladder is solvable.  No bound feeds a dial, so the ladder
    runs on past a violation.  A current outside a curve's operating
    region, or a disparity that swamps the backup current, stops it at
    once, with no dials or headroom and the first violation as verdict.

    Each bound is the _extreme of a quotient N/S over the pair's current
    axis, N falling along it as the slope S does: a fuse cap's N is
    t_fuse(i + delta) - fr_margin - K, a floor's rr_margin + slope_down*D
    + K_down - K_up.  Every check that stops the ladder passes at a
    current if it passes at a smaller one, and _extreme samples a
    sweep's first current first, so it stops where a full sweep stops.
    A floor past TIME_DIAL_MAX + DIAL_TOL is named by its first need
    above that in axis order, as a full sweep names it, from the
    samples its _extreme takes with that cap.
    """
    order = list(network.reclosers)
    fr_margin, rr_margin = config.fr_margin, config.rr_margin
    ub: dict[str, float] = {rec.id: TIME_DIAL_MAX for rec in order}
    ub_pair: dict[str, str] = {}
    rr_up = {pd.primary: pd for pd in pairs
             if pd.kind is PairKind.RECLOSER_RECLOSER}
    lb: dict[str, float] = {rec.id: TIME_DIAL_MIN for rec in order}
    headroom = math.inf
    first: InfeasibleError | None = None
    try:
        # per-device upper bound from its fuse pairs: the margin constraint
        # is quantified over the pair's current range, so one affine
        # constraint per axis sample, all with D as the only free variable
        for pd in _fuse_pairs(pairs):
            curve, fuse = pair_curves(network, pd, fuse_curves)
            slope_at = _dial_slope(curve, pickups[pd.primary], pd.id)
            k, delta = curve.constants.K, pd.delta
            axis, melt = pd.axis, fuse.mm_points[0][0]
            # the fuse never melts below its first tabulated current, so the
            # samples before the first melting one constrain nothing; the
            # predicate adds delta as limit() does, so both round alike
            melting = bisect_left(axis, True, key=lambda i: i + delta >= melt)
            if melting == axis.size:
                continue

            def limit(j: int) -> tuple[float, float]:
                i = axis[j]
                return fuse_time(fuse, i + delta) - fr_margin - k, slope_at(i)

            cap, _ = _extreme(limit, melting, axis.size - 1, ub[pd.primary],
                              False)
            if cap < ub[pd.primary]:
                ub[pd.primary] = cap
                ub_pair[pd.primary] = pd.id

        for rec in reversed(order):
            d = lb[rec.id]
            room = ub[rec.id] + DIAL_TOL - d
            headroom = min(headroom, room)
            if room < 0 and first is None:
                first = InfeasibleError(
                    ub_pair.get(rec.id, rec.id),
                    f"needs D >= {d:.4f} but fuse pair caps it at "
                    f"{ub[rec.id]:.4f}")
            pd = rr_up.get(rec.id)
            if pd is None:
                continue
            # the backup must clear at least rr_margin later at every
            # current of the downstream device's range, its own current
            # lowered by the in-between DG disparity
            curve_down, curve_up = pair_curves(network, pd, fuse_curves)
            down = _dial_slope(curve_down, pickups[rec.id], pd.id)
            up = _dial_slope(curve_up, pickups[pd.backup], pd.id)
            k_down, k_up = curve_down.constants.K, curve_up.constants.K
            floor, delta, axis = lb[pd.backup], pd.delta, pd.axis

            def need(j: int) -> tuple[float, float]:
                i = axis[j]
                slope_down = down(i)
                i_up = i - delta
                if i_up <= 0:
                    raise InfeasibleError(
                        pd.id, f"disparity {delta:.4g} pu swamps the backup "
                               f"current at {i:.4g} pu")
                return rr_margin + slope_down * d + k_down - k_up, up(i_up)

            level, taken = _extreme(need, 0, axis.size - 1, floor, True,
                                    TIME_DIAL_MAX + DIAL_TOL)
            if level > floor:
                lb[pd.backup] = level
                room = TIME_DIAL_MAX + DIAL_TOL - level
                headroom = min(headroom, room)
                if room < 0 and first is None:
                    past = max(floor, TIME_DIAL_MAX + DIAL_TOL)
                    over = next(q for j in sorted(taken)
                                if (q := taken[j][0] / taken[j][1]) > past)
                    first = InfeasibleError(
                        pd.id, f"backup needs D = {over:.4f} > "
                               f"{TIME_DIAL_MAX}")
    except InfeasibleError as exc:
        return None, None, first or exc
    return {rid: RecloserSettings(pickup=pickups[rid],
                                  time_dial=min(d, TIME_DIAL_MAX))
            for rid, d in lb.items()}, headroom, first


@dataclass(frozen=True, eq=False)
class StateStudy:
    """One operating state, solved once and read by every consumer.

    ``error`` is the verdict: None, or the first InfeasibleError, an
    empty pickup rule first, which leaves the ladder unrun; only
    settings() raises it.  ``dials`` are the ladder's floor dials at
    ``pickup_lo``, kept through a violated bound and None when it stopped
    or did not run; ``headroom`` is its own, None without such a measure.
    """

    network: Network
    pairs: Sequence[PairStudy]
    i_max: dict[str, float]  # each recloser's zone maximum
    pickup_lo: dict[str, float]  # twice the maximum load current
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
    margin headroom of each fuse pair alone, not the ladder's.  The rule
    is empty when that is zero or exceeds half the minimum line-line
    fault current; the ladder runs only when no recloser's rule is.
    """
    flow = solve_distflow(network, tol=config.powerflow_tol)
    pairs, zones = study_pairs(flt.fault_kernel(network, flow),
                               config.fault_impedance_floor)
    pickup_lo = {rec.id: 2.0 * _load_current(network, flow, rec.node)
                 for rec in network.reclosers}
    for rid, (_, i_min) in zones.items():
        lo, hi = pickup_lo[rid], 0.5 * LL_FACTOR * i_min
        if not 0 < lo <= hi:
            dials, headroom, error = None, None, InfeasibleError(
                rid, f"pickup rule empty: 2x load {lo:.4g} exceeds half "
                     f"line-line fault {hi:.4g}" if lo else
                     "pickup rule empty: no load past the recloser")
            break
    else:
        dials, headroom, error = _solve_settings_at_pickups(
            network, pairs, pickup_lo, fuse_curves, config)
    return StateStudy(network, pairs,
                      {rid: mx for rid, (mx, _) in zones.items()},
                      pickup_lo, dials, headroom, error)


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
        t = tci_time(rec.sequence.coordinating_curve.constants,
                     settings[rec.id], study.i_max[rec.id])
        total += t if not math.isinf(t) else 0.0
    return total


def pair_slacks(study: StateStudy, fuse_curves: dict[str, FuseCurve],
                config: OptimizerConfig) -> dict[str, float] | None:
    """Disparity headroom of every fuse-recloser pair, keyed by pair id.

    A pair's bound is the largest disparity whose fuse cap stays at or
    above D, the study's floor dial less the DIAL_TOL the ladder
    forgives, so the slack's sign agrees with the ladder's cap check.
    At each axis current i the fuse must not melt before T_i =
    D*slope_i + fr_margin + K: its current must stay at or below the MM
    table's current at T_i, its reach: the first tabulated one when T_i
    lies above the table, and unbounded at or below its clamped tail.
    The least gap reach - i, clamped to [0, MAX_DISPARITY_BOUND], minus
    the pair's disparity is its slack; None when the study has no floor
    dials.  T_i falls as i rises, so reach never falls, and _extreme
    skips the blocks whose bound reach(a) - i(b) cannot lower the gap.
    A current outside the operating region at its pickups raises
    InfeasibleError at the axis's first sample, which _extreme takes
    first, as a full sweep does.
    """
    if study.dials is None:
        return None
    slacks: dict[str, float] = {}
    for pd in _fuse_pairs(study.pairs):
        curve, fuse = pair_curves(study.network, pd, fuse_curves)
        base = config.fr_margin + curve.constants.K
        dial = study.dials[pd.primary].time_dial - DIAL_TOL
        slope_at = _dial_slope(curve, study.pickup_lo[pd.primary], pd.id)
        t_tail, (i_head, t_head) = fuse.mm_points[-1][1], fuse.mm_points[0]
        axis, seen = pd.axis, {}

        def gap(j: int) -> tuple[float, float]:
            i = axis[j]
            t_need = dial * slope_at(i) + base
            if t_need <= t_tail:
                reach = math.inf
            elif t_need > t_head:
                reach = i_head
            else:
                reach = fuse_inverse_current(fuse, t_need)
            seen[j] = reach, i
            return reach - i, 1.0

        bound, _ = _extreme(gap, 0, axis.size - 1, MAX_DISPARITY_BOUND, False,
                            block=lambda a, b: seen[a][0] - seen[b][1])
        slacks[pd.id] = max(bound, 0.0) - pd.delta
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


def _predicted_root(points: Sequence[tuple[float, float]]) -> float:
    """Where the headroom through up to three (x, headroom) points
    reaches zero: inverse quadratic interpolation through three, as in
    Brent's root finder, else the secant through the last two; NaN when
    fewer remain or their headrooms tie.  No divisor is zero."""
    if len(points) == 3:
        (x0, f0), (x1, f1), (x2, f2) = points
        if f0 != f1 and f1 != f2 and f0 != f2:
            return (x0 * f1 / (f0 - f1) * f2 / (f0 - f2)
                    + x1 * f0 / (f1 - f0) * f2 / (f1 - f2)
                    + x2 * f0 / (f2 - f0) * f1 / (f2 - f1))
        points = points[1:]
    if len(points) == 2:
        (x1, f1), (x2, f2) = points
        if f1 != f2:
            return x2 - f2 * (x2 - x1) / (f2 - f1)
    return math.nan


def _first_above(lo: float, hi: float, tol: float) -> float:
    """The walk's first point above lo when bisecting [lo, hi] down to
    width tol: the last midpoint of a walk that fails at every one.  With
    feasibility monotone, when it fails so does every midpoint, and the
    bisection returns lo."""
    first = hi
    while first - lo > tol:
        first = 0.5 * (lo + first)
    return first


def _replayed_bisection(probe: Callable[[float], tuple[bool, float | None]],
                        lo: float, hi: float, tol: float,
                        h_lo: float | None, h_hi: float | None) -> float:
    """The point that bisecting [lo, hi] down to width tol returns, found
    by probing only points of its walk.

    ``probe(x)`` is the ladder's verdict at x and its headroom; lo is
    feasible, hi is not, and h_lo, h_hi are their headrooms (None when
    not usable).  With feasibility monotone in x, the probed feasible a
    and infeasible b decide every midpoint at or below a, or at or above
    b.  Each pass walks the bisection, taking those verdicts and
    predicting the rest from the headroom's root: _predicted_root
    through the last three points with usable headroom, lo and hi
    counted first, or the midpoint of a and b when fewer than two have
    it or the root leaves [a, b].  It then probes the undecided end of
    the predicted final bracket nearer that root, a point strictly
    inside (a, b), so the loop ends.  Each verdict comes from the
    ladder, never from the sign of the headroom.  Once a and b decide
    the whole walk, its point is the bisection's bit for bit, and a
    probed one unless it is lo.
    """
    a, b = lo, hi
    known = [(x, h) for x, h in ((lo, h_lo), (hi, h_hi)) if h is not None]
    while True:
        root = _predicted_root(known[-3:])
        if not a <= root <= b:
            root = 0.5 * (a + b)
        p, q = lo, hi
        while q - p > tol:
            mid = 0.5 * (p + q)
            if mid <= a or mid < b and mid <= root:
                p = mid
            else:
                q = mid
        if p <= a and q >= b:
            return p
        x = min((e for e in (p, q) if a < e < b), key=lambda e: abs(e - root))
        ok, h = probe(x)
        if ok:
            a = x
        else:
            b = x
        if h is not None:
            known.append((x, h))


def solve_dispatch(network: Network, available: dict[int, float],
                   fuse_curves: dict[str, FuseCurve],
                   config: OptimizerConfig) -> StateStudy:
    """The study of the state whose curtailable outputs are component-wise
    maximal while the settings ladder stays solvable.

    ``available`` maps each curtailable unit to its output ceiling.
    A candidate's feasibility is its study's verdict; studies are kept
    by outputs, so no state is solved twice.  Bisection on a single
    curtailment factor finds a feasible base point; tail-first per-unit
    restoration then pushes every unit to its individual limit.  Each
    bisection defines its answer; _replayed_bisection reaches the same
    point probing only points of its walk, and like it rests on
    feasibility being monotone in every output.  So zero output is
    probed only when factor 0.5 fails; the factor search then first
    probes its walk's first point above zero output (_first_above), as
    each restoration does above its unit's output, and ends at its base
    when that probe fails.  Zero output,
    every curtailable unit off, gives no usable headroom: switching
    units off is a jump, not a continuation.  When even full
    curtailment is infeasible the ladder's InfeasibleError, naming the
    binding pair, is raised with the study at the ceilings.
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
    if full.error is None:
        return full
    # zero output, which raises the ladder's own error, can fail only if
    # the search's first probe does; with no curtailable unit, both are full
    search = study_at(at_factor(0.5)).error is None
    if not search:
        if (error := study_at(at_factor(0.0)).error) is not None:
            raise InfeasibleError(error.pair, error.detail, full)
        search = probe(at_factor(_first_above(0.0, 1.0, 1e-9)))[0]
    lo = _replayed_bisection(lambda t: probe(at_factor(t)), 0.0, 1.0, 1e-9,
                             None, full.headroom) if search else 0.0
    outputs = at_factor(lo)

    # restoration pass, feeder tail first, deterministic order
    for uid in sorted(ids, key=lambda i: (-network.dg(i).tap_node, i)):
        p_lo, p_hi = outputs[uid], available[uid]
        if p_hi - p_lo <= 1e-12:
            continue
        tol = 1e-9 * max(available[uid], 1.0)

        def at_output(p: float, uid: int = uid):
            return probe({**outputs, uid: p})

        if not at_output(_first_above(p_lo, p_hi, tol))[0]:
            continue
        ok, h_hi = at_output(p_hi)
        if ok:
            outputs[uid] = p_hi
            continue
        outputs[uid] = _replayed_bisection(at_output, p_lo, p_hi, tol,
                                           study_at(outputs).headroom, h_hi)
    return study_at(outputs)


def operate(network: Network,
            steps: Iterable[tuple[dict[int, float], dict[int, float] | None,
                                  bool]],
            fuse_curves: dict[str, FuseCurve], config: OptimizerConfig,
            ) -> Iterator[tuple[StateStudy, dict[str, RecloserSettings], bool]]:
    """Yield (study, settings in service, feasible) for each step of a plan
    of (outputs to set, ceilings to dispatch under or None, adopt the
    dispatch's settings?), each read as its step starts.  The settings in
    service are those of the network's coordinating curves.  A failed
    dispatch leaves each curtailable unit at its ceiling and reports the
    study it made there, a rejected re-dial the dispatch; both keep the
    settings in service.  Any other step reports its study's verdict."""
    for outputs, ceilings, adopt in steps:
        network = network.with_dg_outputs(outputs)
        if ceilings is None:
            study = study_state(network, fuse_curves, config)
        else:
            try:
                study = solve_dispatch(network, ceilings, fuse_curves, config)
            except InfeasibleError as exc:  # its study at the ceilings
                study = exc.ceiling
            network = study.network
        feasible = study.error is None
        if feasible and adopt and ceilings is not None:
            try:
                network = apply_settings(network, study.settings())
            except InfeasibleError:  # a rejected re-dial
                feasible = False
        yield study, {rec.id: rec.sequence.coordinating_curve.settings
                      for rec in network.reclosers}, feasible


def baseline_settings(network: Network, fuse_curves: dict[str, FuseCurve],
                      config: OptimizerConfig) -> dict[str, RecloserSettings]:
    """Design-time settings from the no-DG configuration."""
    return study_state(replace(network, dg_units=()), fuse_curves,
                       config).settings()
