"""Pair coordination: range/margin checks and backup delay.

A pair couples a primary device (the one meant to operate first) with
its backup.  Under fuse saving, the recloser's first fast curve is the
primary and the fuse MM curve is the backup; between reclosers the
downstream unit is primary.  The design coordination range is fixed at
study time; DG shifts the currents actually seen, captured as the
pair's disparity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fault as flt
from .curves import FuseCurve, NO_OPERATION, RecloserCurve, fuse_time
from .model import Network, dg_between
from .power_flow import PowerFlowSolution

DEFAULT_FR_MARGIN = 0.1  # s, artifact default
DEFAULT_RR_MARGIN = 0.3  # s, artifact default
DEFAULT_POINTS_PER_DECADE = 200
MIN_POINTS_PER_DECADE = 50


class PairKind(Enum):
    FUSE_RECLOSER = "fuse_recloser"
    RECLOSER_RECLOSER = "recloser_recloser"


class FailureMode(Enum):
    NONE = "none"
    RANGE_EXCEEDED = "range_exceeded"
    MARGIN_VIOLATED = "margin_violated"


@dataclass(frozen=True)
class FuseDevice:
    curve: FuseCurve
    which: str = "mm"

    def time_at(self, i_fault: float) -> float:
        return fuse_time(self.curve, self.which, i_fault)


@dataclass(frozen=True)
class CoordinationPair:
    id: str
    kind: PairKind
    primary: RecloserCurve
    backup: RecloserCurve | FuseDevice
    margin_required: float
    range: tuple[float, float]  # design coordination range, primary current

    def __post_init__(self):
        if self.margin_required <= 0:
            raise ValueError("margin_required must be positive")
        if not self.range[0] < self.range[1]:
            raise ValueError("coordination range needs min < max")


@dataclass(frozen=True)
class PairSweep:
    """Currents the pair actually sees, from a fault study."""

    i_primary_max: float
    i_primary_min: float
    delta: float  # disparity between the pair's currents


@dataclass(frozen=True)
class CoordinationReport:
    pair_id: str
    range_ok: bool
    margin_ok: bool
    worst_margin: float
    worst_margin_current: float
    failure_mode: FailureMode
    backup_delay: float  # positive backup-delay increase, recloser pairs
    samples: tuple[tuple[float, float, float], ...]  # (i, T_primary, T_backup)


def current_grid(lo: float, hi: float,
                 points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
                 ) -> np.ndarray:
    """Log-spaced current samples covering [lo, hi], endpoints included."""
    if not 0 < lo <= hi:
        raise ValueError("current grid needs 0 < lo <= hi")
    decades = max(math.log10(hi / lo), 1e-9)
    npts = max(2, int(math.ceil(points_per_decade * decades)) + 1)
    return np.logspace(math.log10(lo), math.log10(hi), npts)


def _backup_current(pair: CoordinationPair, sweep: PairSweep,
                    i_primary: float) -> float:
    if pair.kind is PairKind.FUSE_RECLOSER:
        return i_primary + sweep.delta  # the fuse sees every source
    return i_primary - sweep.delta  # the upstream recloser misses in-between DG


def check_pair(pair: CoordinationPair, sweep: PairSweep,
               points_per_decade: int = DEFAULT_POINTS_PER_DECADE,
               ) -> CoordinationReport:
    """Evaluate the range and margin conditions over a dense current grid.

    The margin condition is checked with the pair's currents linked by
    the disparity.  Range exceedance is the fuse-side current at the
    binding fault overrunning the design range maximum.
    """
    if points_per_decade < MIN_POINTS_PER_DECADE:
        raise ValueError(
            f"sweep grid of {points_per_decade} points/decade is coarser than "
            f"the required {MIN_POINTS_PER_DECADE}")
    grid = current_grid(sweep.i_primary_min, sweep.i_primary_max,
                        points_per_decade)

    samples = []
    worst = math.inf
    worst_i = grid[0]
    for i in grid:
        tp = pair.primary.time_at(float(i))
        ib = _backup_current(pair, sweep, float(i))
        tb = pair.backup.time_at(ib) if ib > 0 else NO_OPERATION
        samples.append((float(i), tp, tb))
        margin = math.inf if math.isinf(tp) or math.isinf(tb) else tb - tp
        if margin < worst:
            worst = margin
            worst_i = float(i)

    # the endpoint condition with linked currents is the range check: the
    # backup-side current at the top endpoint exceeding the curve-crossing
    # current shows up as T_P > T_B there
    endpoints_ok = all(
        s[1] <= s[2] for s in (samples[0], samples[-1]))
    range_ok = endpoints_ok
    # tolerance covers settings that meet the margin with exact equality
    margin_ok = worst >= pair.margin_required - 1e-9

    if not endpoints_ok:
        mode = FailureMode.RANGE_EXCEEDED
    elif not margin_ok:
        mode = FailureMode.MARGIN_VIOLATED
    else:
        mode = FailureMode.NONE

    delay = 0.0
    if pair.kind is PairKind.RECLOSER_RECLOSER and sweep.delta > 0:
        raw = backup_delay(pair, sweep.delta, sweep.i_primary_max)
        delay = abs(raw) if not math.isinf(raw) else math.inf

    return CoordinationReport(
        pair_id=pair.id,
        range_ok=range_ok,
        margin_ok=margin_ok,
        worst_margin=worst,
        worst_margin_current=worst_i,
        failure_mode=mode,
        backup_delay=delay,
        samples=tuple(samples),
    )


def backup_delay(pair: CoordinationPair, delta_rr: float,
                 i_primary: float) -> float:
    """Backup-curve time shift T_B(I + dI) - T_B(I) with I + dI = i_primary.

    The raw difference is negative for positive disparity: the quantity
    the backup's response gap grows by is its magnitude.  A no-trip
    sentinel from either evaluation is propagated.
    """
    i_base = i_primary - delta_rr
    if i_base <= 0:
        return NO_OPERATION
    t_hi = pair.backup.time_at(i_primary)
    t_lo = pair.backup.time_at(i_base)
    if math.isinf(t_hi) or math.isinf(t_lo):
        return NO_OPERATION
    return t_hi - t_lo


def build_pairs(network: Network, sol: PowerFlowSolution,
                fuse_curves: dict[str, FuseCurve],
                fr_margin: float = DEFAULT_FR_MARGIN,
                rr_margin: float = DEFAULT_RR_MARGIN,
                fault_impedance_floor: float = 0.0,
                ) -> list[tuple[CoordinationPair, PairSweep]]:
    """Enumerate all fuse-recloser and recloser-recloser pairs.

    Design ranges come from a no-DG study of the same network; sweeps
    come from the network as given, so DG disparities show up in the
    sweep and not in the design range.
    """
    from dataclasses import replace

    from .power_flow import solve_distflow

    design_net = replace(network, dg_units=())
    design_sol = solve_distflow(design_net)
    models = flt.build_all_fault_models(network, sol)

    out: list[tuple[CoordinationPair, PairSweep]] = []
    for rec in network.reclosers:
        zone = flt._recloser_zone(network, rec.id)
        for lat in network.laterals:
            if lat.fuse is None or lat.tap_node not in zone:
                continue
            loc = flt.at_lateral(lat.id)
            d_max = flt.solve_fault(design_net, design_sol, loc).i_fault_total
            d_min = flt.solve_fault(design_net, design_sol, loc,
                                    fault_impedance_floor).i_fault_total
            study_max = flt.solve_fault(network, sol, loc, 0.0, models)
            study_min = flt.solve_fault(network, sol, loc,
                                        fault_impedance_floor, models)
            pair = CoordinationPair(
                id=f"{rec.id}-L{lat.id}",
                kind=PairKind.FUSE_RECLOSER,
                primary=rec.sequence.coordinating_curve,
                backup=FuseDevice(fuse_curves[lat.fuse], "mm"),
                margin_required=fr_margin,
                range=(min(d_min, d_max * (1 - 1e-9)), d_max),
            )
            sweep = PairSweep(
                i_primary_max=study_max.i_recloser[rec.id],
                i_primary_min=study_min.i_recloser[rec.id],
                delta=study_max.delta_fr[rec.id],
            )
            out.append((pair, sweep))

    for up, down in zip(network.reclosers, network.reclosers[1:]):
        d_max, d_min = flt.max_min_fault_currents(
            design_net, design_sol, down.id, fault_impedance_floor)
        a_max, a_min = flt.max_min_fault_currents(
            network, sol, down.id, fault_impedance_floor, models)
        study = flt.solve_fault(network, sol, flt.at_node(down.node),
                                0.0, models)
        delta = sum(study.i_dg[i]
                    for i in dg_between(network, up.node, down.node))
        pair = CoordinationPair(
            id=f"{up.id}-{down.id}",
            kind=PairKind.RECLOSER_RECLOSER,
            primary=down.sequence.coordinating_curve,
            backup=up.sequence.coordinating_curve,
            margin_required=rr_margin,
            range=(min(d_min, d_max * (1 - 1e-9)), d_max),
        )
        sweep = PairSweep(i_primary_max=a_max, i_primary_min=a_min,
                          delta=delta)
        out.append((pair, sweep))
    return out
