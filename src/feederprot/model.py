"""Radial feeder network model: topology, loads, DG units, devices.

All electrical quantities are per-unit on the network's system base;
conversion to amperes/volts happens only at file ingestion and report
emission.  Networks are immutable; derived states are built with
``dataclasses.replace`` copies.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from enum import Enum

from .curves import ReclosingSequence


def left_sum(terms: Iterable[float]) -> float:
    """The terms added left to right from 0, as sum() adds floats up to
    Python 3.11.  From 3.12 sum() compensates rounding (Neumaier), which
    can move a total's last bit and the answers with it, so every float
    total of the package is taken here."""
    total = 0
    for term in terms:  # as fast as sum() on a few terms, unlike reduce()
        total += term
    return total


class UnknownElementError(KeyError):
    """A query referenced a node, device, or DG id not in the network."""


class DGKind(Enum):
    SYNCHRONOUS = "synchronous"
    ASYNCHRONOUS = "asynchronous"
    INVERTER = "inverter"


@dataclass(frozen=True)
class FeederSection:
    from_node: int
    to_node: int
    r: float
    x: float


@dataclass(frozen=True)
class Lateral:
    """Aggregate load tapped at a feeder node, optionally fused."""

    id: int
    tap_node: int
    load_p: float
    load_q: float
    fuse: str | None = None  # fuse-curve id in the fuse table


@dataclass(frozen=True)
class SynchronousParams:
    xd2: float  # subtransient reactance, system base


@dataclass(frozen=True)
class AsynchronousParams:
    x_lr: float  # locked-rotor reactance, system base
    rated_slip: float = 0.02


@dataclass(frozen=True)
class InverterParams:
    k_off: float  # shutoff multiple of rated current
    k_clamp: float  # clamped fault-current multiple of rated current
    coupling_x: float = 0.15  # prospective-current proxy reactance, unit base


DG_PARAMS = {
    DGKind.SYNCHRONOUS: SynchronousParams,
    DGKind.ASYNCHRONOUS: AsynchronousParams,
    DGKind.INVERTER: InverterParams,
}


@dataclass(frozen=True)
class DGUnit:
    id: int
    tap_node: int
    kind: DGKind
    rating_s: float
    p_out: float
    q_out: float
    params: SynchronousParams | AsynchronousParams | InverterParams
    curtailable: bool = False
    # q/p of the unit as built (0 when built at zero output); with_output
    # carries it, so a unit dispatched through zero keeps its power factor
    q_per_p: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q_per_p",
                           self.q_out / self.p_out if self.p_out > 0 else 0.0)

    def with_output(self, p: float) -> "DGUnit":
        """Copy at real output p and reactive power q_per_p * p, the power
        factor the unit was built with, whatever output it held before."""
        unit = replace(self, p_out=p, q_out=self.q_per_p * p)
        object.__setattr__(unit, "q_per_p", self.q_per_p)
        return unit


@dataclass(frozen=True)
class SubstationSource:
    voltage: float
    source_r: float
    source_x: float

    @property
    def impedance(self) -> complex:
        return complex(self.source_r, self.source_x)


@dataclass(frozen=True)
class RecloserPlacement:
    id: str
    node: int
    sequence: ReclosingSequence


@dataclass(frozen=True)
class Violation:
    element: str
    rule: str


@dataclass(frozen=True)
class Network:
    sections: tuple[FeederSection, ...]
    laterals: tuple[Lateral, ...]
    dg_units: tuple[DGUnit, ...]
    source: SubstationSource
    reclosers: tuple[RecloserPlacement, ...]
    base_mva: float
    base_kv: float

    @property
    def n_nodes(self) -> int:
        return len(self.sections) + 1

    @property
    def base_amps(self) -> float:
        """Ampere value of 1.0 per-unit current."""
        return self.base_mva * 1e6 / (math.sqrt(3) * self.base_kv * 1e3)

    def lateral(self, lateral_id: int) -> Lateral:
        for lat in self.laterals:
            if lat.id == lateral_id:
                return lat
        raise UnknownElementError(f"no lateral with id {lateral_id}")

    def dg(self, dg_id: int) -> DGUnit:
        for unit in self.dg_units:
            if unit.id == dg_id:
                return unit
        raise UnknownElementError(f"no DG unit with id {dg_id}")

    def recloser(self, recloser_id: str) -> RecloserPlacement:
        for rec in self.reclosers:
            if rec.id == recloser_id:
                return rec
        raise UnknownElementError(f"no recloser with id {recloser_id}")

    def with_dg_outputs(self, outputs: dict[int, float]) -> "Network":
        """Copy with the listed DG real outputs replaced (pf preserved)."""
        units = tuple(
            u.with_output(outputs[u.id]) if u.id in outputs else u
            for u in self.dg_units
        )
        return replace(self, dg_units=units)


def validate_flow(network: Network) -> list[Violation]:
    """The invariants of what a load flow reads: chain, loads, DG units
    and source.  A dispatch changes only DG outputs; validate adds devices."""
    out: list[Violation] = []
    n = network.n_nodes

    for idx, sec in enumerate(network.sections):
        name = f"section[{idx}]"
        if sec.from_node != idx or sec.to_node != idx + 1:
            out.append(Violation(name, "sections must form a radial chain 0..N"))
        if (not (0 <= sec.r < math.inf and 0 <= sec.x < math.inf)
                or (sec.r == 0 and sec.x == 0)):
            out.append(Violation(name, "r, x finite, >= 0 and not both zero"))

    seen_lat = set()
    for lat in network.laterals:
        name = f"lateral[{lat.id}]"
        if lat.id in seen_lat:
            out.append(Violation(name, "duplicate lateral id"))
        seen_lat.add(lat.id)
        if not 0 <= lat.tap_node < n:
            out.append(Violation(name, f"tap node {lat.tap_node} not on feeder"))
        if not 0 <= lat.load_p < math.inf:
            out.append(Violation(name, "load_p must be finite and >= 0"))
        if not abs(lat.load_q) <= 2 * lat.load_p:
            out.append(Violation(name, "|load_q| must be finite, <= 2*load_p"))

    seen_dg = set()
    for unit in network.dg_units:
        name = f"dg[{unit.id}]"
        if unit.id in seen_dg:
            out.append(Violation(name, "duplicate DG id"))
        seen_dg.add(unit.id)
        if not 0 <= unit.tap_node < n:
            out.append(Violation(name, f"tap node {unit.tap_node} not on feeder"))
        if not 0 < unit.rating_s < math.inf:
            out.append(Violation(name, "rating_s must be finite and > 0"))
        if not 0 <= unit.p_out < math.inf:
            out.append(Violation(name, "p_out must be finite and >= 0"))
        # hypot: squaring a finite output may overflow
        if not (math.hypot(unit.p_out, unit.q_out)
                <= unit.rating_s * (1 + 1e-12)):
            out.append(Violation(name, "output exceeds apparent-power rating"))
        if not isinstance(unit.params, DG_PARAMS[unit.kind]):
            out.append(Violation(name, f"params do not match kind {unit.kind.value}"))
        elif isinstance(unit.params, SynchronousParams):
            if not 0 < unit.params.xd2 < math.inf:
                out.append(Violation(
                    name, "subtransient reactance must be finite and > 0"))
        elif isinstance(unit.params, AsynchronousParams):
            if not 0 < unit.params.x_lr < math.inf:
                out.append(Violation(
                    name, "locked-rotor reactance must be finite and > 0"))
            if not math.isfinite(unit.params.rated_slip):
                out.append(Violation(name, "rated slip must be finite"))
        elif isinstance(unit.params, InverterParams):
            p = unit.params
            if not (1.25 <= p.k_clamp <= 2.0 <= p.k_off <= 3.0):
                out.append(Violation(
                    name, "require 1.25 <= k_clamp <= 2 <= k_off <= 3"))
            if not 0 < p.coupling_x < math.inf:
                out.append(Violation(
                    name, "coupling reactance must be finite and > 0"))

    src = network.source
    if not 0.9 <= src.voltage <= 1.1:
        out.append(Violation("source", "voltage outside [0.9, 1.1] pu"))
    if not 0 < abs(src.impedance) < math.inf:
        out.append(Violation(
            "source", "source impedance magnitude must be finite and > 0"))
    return out


def validate(network: Network) -> list[Violation]:
    """Check every structural invariant; violations are data, not errors.
    The load-flow checks first, then the reclosers, curves and bases."""
    out = validate_flow(network)
    prev = -1
    seen_rec = set()
    for rec in network.reclosers:
        name = f"recloser[{rec.id}]"
        if rec.id in seen_rec:
            out.append(Violation(name, "duplicate recloser id"))
        seen_rec.add(rec.id)
        if not rec.id or "/" in rec.id or "\0" in rec.id:  # names files
            out.append(Violation(f"recloser[{rec.id!r}]", "id must be "
                                 "non-empty, without '/' or NUL: it names files"))
        if any("\ud800" <= c <= "\udfff" for c in rec.id):  # surrogates
            out.append(Violation(f"recloser[{rec.id!r}]",
                                 "id must encode as UTF-8: it names files"))
        if not 0 <= rec.node < network.n_nodes:
            out.append(Violation(name, f"node {rec.node} not on feeder"))
        if rec.node <= prev:
            out.append(Violation(name, "recloser nodes must strictly increase"))
        prev = max(prev, rec.node)
        # only the head relay may run a slow-only sequence
        if rec.node > 0 and not rec.sequence.has_fast():
            out.append(Violation(name, "recloser off the head needs a fast curve"))
        if (crossing := rec.sequence.fast_above_slow()) is not None:
            out.append(Violation(
                name, f"fast curve above slow curve at {crossing:g} pu"))

    if not (0 < network.base_mva < math.inf
            and 0 < network.base_kv < math.inf):
        out.append(Violation(
            "bases", "base_mva and base_kv must be positive and finite"))

    return out
