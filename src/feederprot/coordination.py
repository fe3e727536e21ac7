"""Pair coordination: range/margin checks and backup delay.

A pair couples a primary device (the one meant to operate first) with
its backup.  Under fuse saving, the recloser's first fast curve is the
primary and the fuse MM curve is the backup; between reclosers the
downstream unit is primary.  study_pairs enumerates every pair of a
state, from one fault kernel of the network as given, as one flat
PairStudy: its devices, the primary's current range, its one sample
sequence (the CurrentAxis ``axis``) and the disparity DG causes between
the two devices' currents.  pair_curves maps it to its two curves, and
check_pair checks it at a required margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import fault as flt
from .curves import FuseCurve, NO_OPERATION, RecloserCurve
from .model import Network

DEFAULT_FR_MARGIN = 0.1  # s, artifact default
DEFAULT_RR_MARGIN = 0.3  # s, artifact default
DEFAULT_POINTS_PER_DECADE = 200
MARGIN_TOL = 1e-9
"""Shortfall in seconds a pair's worst margin may have and still pass.

It covers settings that meet the margin with exact equality, such as
the settings ladder's, whose dials may overrun a bound by the
optimizer's DIAL_TOL (1e-12).  At the rule's pickups, at most half the
minimum line-line fault current, the current multiple is at least
2/(sqrt(3)/2), about 2.31.  There the largest dial slope of the shipped
curve families is 6.63 s per unit dial (extremely inverse), so such an
overrun moves a trip time by under 1e-11 s, well inside MARGIN_TOL.
"""


class PairKind(Enum):
    FUSE_RECLOSER = "fuse_recloser"
    RECLOSER_RECLOSER = "recloser_recloser"


class FailureMode(Enum):
    NONE = "none"
    RANGE_EXCEEDED = "range_exceeded"
    MARGIN_VIOLATED = "margin_violated"


@dataclass(frozen=True)
class PairStudy:
    """One protection pair and the currents it sees at one state."""

    id: str
    kind: PairKind
    primary: str  # recloser id; the downstream one of a recloser pair
    backup: str | int  # upstream recloser id, or the fused lateral's id
    i_primary_max: float  # from bolted faults
    i_primary_min: float  # through the fault impedance floor
    delta: float  # disparity between the pair's currents

    @cached_property
    def axis(self) -> CurrentAxis:
        """The primary's current samples, built once per pair."""
        return CurrentAxis.spanning(self.i_primary_min, self.i_primary_max)


@dataclass(frozen=True)
class CoordinationReport:
    range_ok: bool
    margin_ok: bool
    worst_margin: float
    worst_margin_current: float
    failure_mode: FailureMode
    backup_delay: float  # positive backup-delay increase, recloser pairs
    samples: tuple[tuple[float, float, float], ...]  # (i, T_primary, T_backup)


@dataclass(frozen=True)
class CurrentAxis:
    """Log-spaced current samples covering [lo, hi], endpoints included,
    by index: evenly spaced exponents k * step + log10(lo), the last one
    exactly log10(hi); an index outside 0..size - 1 raises IndexError."""

    size: int
    start: float
    step: float
    stop: float

    @classmethod
    def spanning(cls, lo: float, hi: float) -> CurrentAxis:
        if not 0 < lo <= hi:
            raise ValueError("current grid needs 0 < lo <= hi")
        ratio = hi / lo  # past the float range, the logs' difference
        decades = (math.log10(ratio) if ratio < math.inf
                   else math.log10(hi) - math.log10(lo))
        size = max(2, int(math.ceil(DEFAULT_POINTS_PER_DECADE * decades)) + 1)
        start, stop = math.log10(lo), math.log10(hi)
        return cls(size, start, (stop - start) / (size - 1), stop)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, k: int) -> float:
        if not 0 <= k < self.size:
            raise IndexError(f"current sample {k} outside 0..{self.size - 1}")
        if k == self.size - 1:
            return 10.0 ** self.stop
        return 10.0 ** (k * self.step + self.start)


def pair_curves(network: Network, pair: PairStudy,
                fuse_curves: dict[str, FuseCurve],
                ) -> tuple[RecloserCurve, RecloserCurve | FuseCurve]:
    """The pair's primary and backup curves: the primary recloser's
    coordinating curve, and the upstream recloser's coordinating curve
    or the fused lateral's fuse table."""
    primary = network.recloser(pair.primary).sequence.coordinating_curve
    if pair.kind is PairKind.FUSE_RECLOSER:
        return primary, fuse_curves[network.lateral(pair.backup).fuse]
    return primary, network.recloser(pair.backup).sequence.coordinating_curve


def check_pair(pair: PairStudy, primary: RecloserCurve,
               backup: RecloserCurve | FuseCurve,
               required: float) -> CoordinationReport:
    """Evaluate the range and margin conditions over the pair's current
    axis, with its primary and backup curves (pair_curves) and the
    margin it requires, in seconds.

    The margin condition is checked with the pair's currents linked by
    the disparity: the fuse sees every source, so its current is the
    primary's plus the disparity; the upstream recloser misses the DG in
    between, so its current is the primary's less the disparity.  The
    margin holds when the worst backup-minus-primary gap is at least
    ``required`` less MARGIN_TOL.  The range condition is the operating
    order (primary no slower than backup) at both ends of the range.
    """
    shift = pair.delta if pair.kind is PairKind.FUSE_RECLOSER \
        else -pair.delta
    samples = []
    worst = math.inf
    worst_i = pair.axis[0]
    for i in pair.axis:
        tp = primary.time_at(i)
        ib = i + shift
        tb = backup.time_at(ib) if ib > 0 else NO_OPERATION
        samples.append((i, tp, tb))
        margin = math.inf if math.isinf(tp) or math.isinf(tb) else tb - tp
        if margin < worst:
            worst = margin
            worst_i = i

    # the endpoint condition with linked currents is the range check: the
    # backup-side current at the top endpoint exceeding the curve-crossing
    # current shows up as T_P > T_B there
    range_ok = all(s[1] <= s[2] for s in (samples[0], samples[-1]))
    margin_ok = worst >= required - MARGIN_TOL

    if not range_ok:
        mode = FailureMode.RANGE_EXCEEDED
    elif not margin_ok:
        mode = FailureMode.MARGIN_VIOLATED
    else:
        mode = FailureMode.NONE

    delay = 0.0
    if pair.kind is PairKind.RECLOSER_RECLOSER and pair.delta > 0:
        raw = backup_delay(backup, pair.delta, pair.i_primary_max)
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


def backup_delay(backup: RecloserCurve, delta_rr: float,
                 i_primary: float) -> float:
    """Backup-curve time shift T_B(I + dI) - T_B(I) with I + dI = i_primary.

    The raw difference is negative for positive disparity: the quantity
    the backup's response gap grows by is its magnitude.  A no-trip
    sentinel from either evaluation is propagated.
    """
    i_base = i_primary - delta_rr
    if i_base <= 0:
        return NO_OPERATION
    t_hi = backup.time_at(i_primary)
    t_lo = backup.time_at(i_base)
    if math.isinf(t_hi) or math.isinf(t_lo):
        return NO_OPERATION
    return t_hi - t_lo


def study_pairs(kernel: flt.FaultKernel, fault_impedance_floor: float,
                ) -> tuple[list[PairStudy], dict[str, tuple[float, float]]]:
    """Every fuse-recloser pair, then every recloser-recloser pair, and
    each recloser's (I_max, I_min), from a bolted fault at every node of
    the state's one kernel, which must cover them all, and a floored one
    at each zone's far end and fused tap.

    A recloser's zone runs from its node to the next recloser's: I_max is
    its bolted maximum there, I_min the floored current at the far end.
    A fuse pair sees faults at its lateral; a recloser pair sees the
    downstream recloser's zone, with the disparity of the DG between the
    two for a bolted fault at the downstream one.
    """
    network = kernel.network
    n = network.n_nodes
    bolted = [kernel.source_currents(k, 0.0) for k in range(n)]

    pairs: list[PairStudy] = []
    zones: dict[str, tuple[float, float]] = {}
    ends = [rec.node for rec in network.reclosers[1:]] + [n]
    for rec, end in zip(network.reclosers, ends):
        # the DG a directional recloser sees, summed as _recloser_current
        upstream = [s for s, u in enumerate(network.dg_units, 1)
                    if u.tap_node < rec.node]

        def seen(currents: list[float]) -> float:
            return currents[0] + sum(currents[s] for s in upstream)

        def floored(k: int) -> float:
            return seen(kernel.source_currents(k, fault_impedance_floor))

        zones[rec.id] = (max(seen(bolted[k]) for k in range(rec.node, end)),
                         floored(end - 1))
        for lat in network.laterals:
            k = lat.tap_node
            if lat.fuse is None or not rec.node <= k < end:
                continue
            pairs.append(PairStudy(
                f"{rec.id}-L{lat.id}", PairKind.FUSE_RECLOSER, rec.id,
                lat.id, seen(bolted[k]), floored(k),
                flt._dg_current(network, bolted[k], rec.node, n)))
    for up, down in zip(network.reclosers, network.reclosers[1:]):
        pairs.append(PairStudy(
            f"{up.id}-{down.id}", PairKind.RECLOSER_RECLOSER, down.id, up.id,
            *zones[down.id],
            flt._dg_current(network, bolted[down.node], up.node, down.node)))
    return pairs, zones
