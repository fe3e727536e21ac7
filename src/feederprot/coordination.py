"""Pair coordination: range/margin checks and backup delay.

A pair couples a primary device (the one meant to operate first) with
its backup.  Under fuse saving, the recloser's first fast curve is the
primary and the fuse MM curve is the backup; between reclosers the
downstream unit is primary.  Every pair is studied on one fault kernel
of the network as given; DG makes the pair's two devices see different
currents, captured as the pair's disparity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import fault as flt
from .curves import FuseCurve, NO_OPERATION, RecloserCurve
from .model import Network
from .power_flow import PowerFlowSolution

DEFAULT_FR_MARGIN = 0.1  # s, artifact default
DEFAULT_RR_MARGIN = 0.3  # s, artifact default
DEFAULT_POINTS_PER_DECADE = 200


class PairKind(Enum):
    FUSE_RECLOSER = "fuse_recloser"
    RECLOSER_RECLOSER = "recloser_recloser"


class FailureMode(Enum):
    NONE = "none"
    RANGE_EXCEEDED = "range_exceeded"
    MARGIN_VIOLATED = "margin_violated"


@dataclass(frozen=True)
class CoordinationPair:
    id: str
    kind: PairKind
    primary: RecloserCurve
    backup: RecloserCurve | FuseCurve
    margin_required: float

    def __post_init__(self):
        if self.margin_required <= 0:
            raise ValueError("margin_required must be positive")


@dataclass(frozen=True)
class PairSweep:
    """Currents the pair actually sees, from a fault study."""

    i_primary_max: float
    i_primary_min: float
    delta: float  # disparity between the pair's currents

    @cached_property
    def grid(self) -> list[float]:
        """The sweep's current samples (current_grid), built once."""
        return current_grid(self.i_primary_min, self.i_primary_max).tolist()


@dataclass(frozen=True)
class PairStudy:
    """One protection pair and the currents it sees at one state."""

    id: str
    kind: PairKind
    primary: str  # recloser id; the downstream one of a recloser pair
    backup: str | int  # upstream recloser id, or the fused lateral's id
    sweep: PairSweep  # max from bolted faults, min through the floor


@dataclass(frozen=True)
class CoordinationReport:
    range_ok: bool
    margin_ok: bool
    worst_margin: float
    worst_margin_current: float
    failure_mode: FailureMode
    backup_delay: float  # positive backup-delay increase, recloser pairs
    samples: tuple[tuple[float, float, float], ...]  # (i, T_primary, T_backup)


def current_grid(lo: float, hi: float) -> np.ndarray:
    """Log-spaced current samples covering [lo, hi], endpoints included."""
    if not 0 < lo <= hi:
        raise ValueError("current grid needs 0 < lo <= hi")
    decades = max(math.log10(hi / lo), 1e-9)
    npts = max(2, int(math.ceil(DEFAULT_POINTS_PER_DECADE * decades)) + 1)
    return np.logspace(math.log10(lo), math.log10(hi), npts)


def _backup_current(pair: CoordinationPair, sweep: PairSweep,
                    i_primary: float) -> float:
    if pair.kind is PairKind.FUSE_RECLOSER:
        return i_primary + sweep.delta  # the fuse sees every source
    return i_primary - sweep.delta  # the upstream recloser misses in-between DG


def check_pair(pair: CoordinationPair, sweep: PairSweep) -> CoordinationReport:
    """Evaluate the range and margin conditions over a dense current grid.

    The margin condition is checked with the pair's currents linked by
    the disparity.  The range condition is the operating order (primary
    no slower than backup) at both ends of the sweep.
    """
    samples = []
    worst = math.inf
    worst_i = sweep.grid[0]
    for i in sweep.grid:
        tp = pair.primary.time_at(i)
        ib = _backup_current(pair, sweep, i)
        tb = pair.backup.time_at(ib) if ib > 0 else NO_OPERATION
        samples.append((i, tp, tb))
        margin = math.inf if math.isinf(tp) or math.isinf(tb) else tb - tp
        if margin < worst:
            worst = margin
            worst_i = i

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


def study_pairs(kernel: flt.FaultKernel, fault_impedance_floor: float,
                ) -> tuple[list[PairStudy], dict[str, tuple[float, float]]]:
    """Every fuse-recloser pair, then every recloser-recloser pair, and
    each recloser's (I_max, I_min), from one bolted and one floored fault
    at every node of the state's one kernel, which must cover them all.

    A recloser's zone runs from its node to the next recloser's: I_max is
    its bolted maximum there, I_min the floored current at the far end.
    A fuse pair sees faults at its lateral; a recloser pair sees the
    downstream recloser's zone, with the disparity of the DG between the
    two for a bolted fault at the downstream one.
    """
    network = kernel.network
    n = network.n_nodes
    bolted = kernel.source_currents(range(n), 0.0)
    floored = kernel.source_currents(range(n), fault_impedance_floor)

    def dg_at(k: int) -> dict[int, float]:
        return {uid: float(i[k]) for uid, i in bolted[1].items()}

    pairs: list[PairStudy] = []
    zones: dict[str, tuple[float, float]] = {}
    ends = [rec.node for rec in network.reclosers[1:]] + [n]
    for rec, end in zip(network.reclosers, ends):
        i_bolted = flt._recloser_current(network, rec.node, *bolted)
        i_floored = flt._recloser_current(network, rec.node, *floored)
        zones[rec.id] = (float(i_bolted[rec.node:end].max()),
                         float(i_floored[end - 1]))
        for lat in network.laterals:
            k = lat.tap_node
            if lat.fuse is None or not rec.node <= k < end:
                continue
            pairs.append(PairStudy(
                f"{rec.id}-L{lat.id}", PairKind.FUSE_RECLOSER, rec.id,
                lat.id, PairSweep(float(i_bolted[k]), float(i_floored[k]),
                                  flt._dg_current(network, dg_at(k),
                                                  rec.node, n))))
    for up, down in zip(network.reclosers, network.reclosers[1:]):
        pairs.append(PairStudy(
            f"{up.id}-{down.id}", PairKind.RECLOSER_RECLOSER, down.id, up.id,
            PairSweep(*zones[down.id],
                      flt._dg_current(network, dg_at(down.node), up.node,
                                      down.node))))
    return pairs, zones


def build_pairs(network: Network, sol: PowerFlowSolution,
                fuse_curves: dict[str, FuseCurve],
                fr_margin: float = DEFAULT_FR_MARGIN,
                rr_margin: float = DEFAULT_RR_MARGIN,
                fault_impedance_floor: float = 0.0,
                ) -> list[tuple[CoordinationPair, PairSweep]]:
    """Every fuse-recloser and recloser-recloser pair of the network as
    given, with the currents it sees there."""
    kernel = flt.fault_kernel(network, sol)
    pairs, _ = study_pairs(kernel, fault_impedance_floor)
    out: list[tuple[CoordinationPair, PairSweep]] = []
    for a in pairs:
        if a.kind is PairKind.FUSE_RECLOSER:
            fuse = network.lateral(a.backup).fuse
            backup = fuse_curves[fuse]
            margin = fr_margin
        else:
            backup = network.recloser(a.backup).sequence.coordinating_curve
            margin = rr_margin
        pair = CoordinationPair(
            id=a.id,
            kind=a.kind,
            primary=network.recloser(a.primary).sequence.coordinating_curve,
            backup=backup,
            margin_required=margin,
        )
        out.append((pair, a.sweep))
    return out
