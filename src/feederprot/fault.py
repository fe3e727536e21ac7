"""Fault studies: DG source models, the per-state fault kernel, disparities.

Three-phase faults are solved on the single equivalent-phase per-unit
circuit, where every source is one Norton pair at its tap: the shunt
admittance it adds and the current it injects.  The substation is its
configured voltage V behind the source impedance, (1/z_src, V/z_src).
Synchronous and asynchronous DG are an emf behind their subtransient or
locked-rotor reactance z, (1/z, emf/z).  Inverter DG inject k_clamp
times rated current in quadrature, (0, -j k_clamp I_rated), or switch
off, (0, 0), as does any unit at zero output.

Each operating state is factored once by the Z-bus (Thevenin) method
(Grainger & Stevenson, *Power System Analysis*, ch. 10), specialised to
the chain: two scalar passes give every node's driving-point impedance
Z[k, k] and each source's open-circuit voltage V_oc[k, s] = Z[k, j_s] * I_s
from its injection I_s at node j_s, in O(n * m) for n nodes, m sources.
By superposition a fault at node k through z_f (zero when bolted) draws
V_oc[k, s] / (Z[k, k] + z_f) from source s.

Device currents follow the directional accounting of radial feeders: a
fuse sees every source, a directional recloser only the substation and
DG tapped upstream of it.  Device currents are arithmetic sums of the
per-source contribution magnitudes, which makes the fuse-recloser and
recloser-recloser disparities exact sums of the per-DG contributions.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .model import (DGKind, DGUnit, Network, UnknownElementError)
from .power_flow import PowerFlowSolution, dg_terminal_voltages


@dataclass(frozen=True)
class FaultLocation:
    kind: str  # "node" | "lateral"
    ref: int

    def __post_init__(self):
        if self.kind not in ("node", "lateral"):
            raise ValueError(f"fault location kind must be node or lateral")


def at_node(node: int) -> FaultLocation:
    return FaultLocation("node", node)


def at_lateral(lateral_id: int) -> FaultLocation:
    return FaultLocation("lateral", lateral_id)


@dataclass(frozen=True)
class NortonSource:
    """What a source adds to the faulted circuit at its tap."""

    shunt: complex
    injection: complex


@dataclass(frozen=True)
class FaultStudy:
    i_recloser: dict[str, float]
    i_fuse: dict[int, float]
    i_dg: dict[int, float]
    i_substation: float
    i_fault_total: float  # arithmetic sum of contribution magnitudes
    delta_fr: dict[str, float]
    delta_rr: dict[str, float]


def build_dg_fault_model(dg: DGUnit, v_terminal: float) -> NortonSource:
    """The Norton pair of one DG unit from its pre-fault state.

    Synchronous and asynchronous machines become an emf behind their
    subtransient / locked-rotor reactance, reconstructed from the
    terminal voltage and pre-fault current.  Inverter units clamp to
    k_clamp times rated current, or switch off when the prospective
    subtransient current (terminal voltage over the coupling-reactance
    proxy) exceeds k_off times rated current.
    """
    if v_terminal <= 0:
        raise ValueError("terminal voltage must be positive")
    if dg.p_out == 0.0 and dg.q_out == 0.0:
        # a unit dispatched (or profiled) to zero is disconnected
        return NortonSource(0j, 0j)
    v = complex(v_terminal, 0.0)
    # generator convention: unit delivers (p + jq), I = conj(S/V)
    i_pre = complex(dg.p_out, -dg.q_out) / v_terminal

    if dg.kind is DGKind.SYNCHRONOUS:
        z = complex(0.0, dg.params.xd2)
        return NortonSource(1.0 / z, (v + z * i_pre) / z)
    if dg.kind is DGKind.ASYNCHRONOUS:
        # pre-fault slip mapped affinely from loading; it nudges the
        # internal emf, the locked-rotor reactance sets the magnitude
        slip = dg.params.rated_slip * (dg.p_out / dg.rating_s)
        z = complex(0.0, dg.params.x_lr)
        return NortonSource(1.0 / z, (1.0 + slip) * (v + z * i_pre) / z)
    # inverter-based
    rated_i = dg.rating_s
    prospective = v_terminal / dg.params.coupling_x * rated_i
    if prospective > dg.params.k_off * rated_i:
        return NortonSource(0j, 0j)
    # injected in quadrature with the pre-fault voltage, matching the
    # phase of a current driven through the coupling reactance
    return NortonSource(0j, -1j * (dg.params.k_clamp * rated_i))


def build_all_fault_models(network: Network,
                           sol: PowerFlowSolution) -> dict[int, NortonSource]:
    volts = dg_terminal_voltages(network, sol)
    return {u.id: build_dg_fault_model(u, volts[u.id])
            for u in network.dg_units}


def _fault_node(network: Network, location: FaultLocation) -> int:
    if location.kind == "node":
        if not 0 <= location.ref < network.n_nodes:
            raise UnknownElementError(f"node {location.ref} not on feeder")
        return location.ref
    return network.lateral(location.ref).tap_node


def _dg_current(network: Network, currents: Sequence[float], lo: int,
                hi: int) -> float:
    """Summed contribution of the DG tapped at lo <= node < hi, in feeder
    order, from a fault's source_currents."""
    return sum(currents[s] for s, u in enumerate(network.dg_units, 1)
               if lo <= u.tap_node < hi)


def _recloser_current(network: Network, recloser_node: int,
                      currents: Sequence[float]) -> float:
    """Current a directional recloser sees of a fault downstream of it:
    the substation's and that of the DG tapped upstream of it."""
    return currents[0] + _dg_current(network, currents, 0, recloser_node)


@dataclass(frozen=True)
class FaultKernel:
    """Every three-phase fault of one operating state, from one reduction.

    ``v_oc[k][s]`` is source s's open-circuit voltage at node k and
    ``z_kk[k]`` that node's driving-point impedance; the sources are the
    substation, then every DG unit in feeder order (a unit that is off
    injects nothing, so its voltage is zero).
    """

    network: Network
    v_oc: tuple[tuple[complex, ...], ...]
    z_kk: tuple[complex, ...]

    def source_currents(self, node: int, fault_impedance: float,
                        ) -> list[float]:
        """Contribution magnitudes of a fault at the node, in kernel
        order: the substation's, then each DG unit's."""
        z = self.z_kk[node] + fault_impedance
        return [abs(v / z) for v in self.v_oc[node]]

    def study(self, location: FaultLocation,
              fault_impedance: float = 0.0) -> FaultStudy:
        """Per-device currents of one fault.

        Reclosers strictly downstream of the fault are directionally
        blocked and reported at zero current.  The fuse entry is
        populated for the faulted lateral when the location is a lateral.
        """
        network = self.network
        f_node = _fault_node(network, location)
        currents = self.source_currents(f_node, fault_impedance)
        i_sub = currents[0]
        i_dg = dict(zip((u.id for u in network.dg_units), currents[1:]))
        total = i_sub + sum(i_dg.values())

        i_recloser: dict[str, float] = {}
        delta_fr: dict[str, float] = {}
        delta_rr: dict[str, float] = {}
        prev_node = 0
        for rec in network.reclosers:
            i_recloser[rec.id] = (
                _recloser_current(network, rec.node, currents)
                if rec.node <= f_node else 0.0)
            delta_fr[rec.id] = _dg_current(network, currents, rec.node,
                                           network.n_nodes)
            delta_rr[rec.id] = _dg_current(network, currents, prev_node,
                                           rec.node)
            prev_node = rec.node

        i_fuse: dict[int, float] = {}
        if location.kind == "lateral":
            lat = network.lateral(location.ref)
            if lat.fuse is not None:
                i_fuse[lat.id] = total

        return FaultStudy(
            i_recloser=i_recloser,
            i_fuse=i_fuse,
            i_dg=i_dg,
            i_substation=i_sub,
            i_fault_total=total,
            delta_fr=delta_fr,
            delta_rr=delta_rr,
        )


def fault_kernel(network: Network, sol: PowerFlowSolution) -> FaultKernel:
    """Factor one operating state for a fault at every node.

    ``up[k]`` is the admittance node k sees upstream, its shunt included,
    ``down[k]`` the one it sees through section k: Z[k, k] = 1 / (up[k] +
    down[k]).  Each section divides a source's open-circuit voltage by
    the factor its reduction used, outward from I_s * Z[j, j] at the tap.
    Raises PowerFlowNotConverged, through the DG terminal voltages, when
    ``sol`` did not converge.
    """
    models = build_all_fault_models(network, sol)
    n = network.n_nodes
    z = [complex(s.r, s.x) for s in network.sections]
    z_src = network.source.impedance
    sources = [(0, NortonSource(1.0 / z_src, network.source.voltage / z_src))]
    sources += ((u.tap_node, models[u.id]) for u in network.dg_units)
    shunt = [0j] * n
    for tap, src in sources:
        if src.shunt:  # adding a zero shunt could turn a -0.0 into 0.0
            shunt[tap] += src.shunt

    # section k's divider seen from node k + 1 (up) and from node k
    # (down); neither divides by the zero admittance past an open end
    up, up_div = [shunt[0]] * n, [0j] * (n - 1)
    for k in range(1, n):
        up_div[k - 1] = 1.0 + z[k - 1] * up[k - 1]
        up[k] = shunt[k] + up[k - 1] / up_div[k - 1]
    down, down_div = [0j] * n, [0j] * (n - 1)
    for k in reversed(range(n - 1)):
        y = shunt[k + 1] + down[k + 1]
        down_div[k] = 1.0 + z[k] * y
        down[k] = y / down_div[k]
    z_kk = [1.0 / (u + d) for u, d in zip(up, down)]

    columns = []
    for j, src in sources:
        v = [0j] * n
        v[j] = src.injection * z_kk[j]
        for k in reversed(range(j)):
            v[k] = v[k + 1] / up_div[k]
        for k in range(j, n - 1):
            v[k + 1] = v[k] / down_div[k]
        columns.append(v)
    return FaultKernel(network=network, v_oc=tuple(zip(*columns)),
                       z_kk=tuple(z_kk))


def check_fault(network: Network, location: FaultLocation,
                fault_impedance: float) -> None:
    """Raise the input error of a fault at a location not on the network
    or through an impedance that is not finite and >= 0."""
    _fault_node(network, location)
    if not 0.0 <= fault_impedance < math.inf:
        raise ValueError(f"fault impedance must be finite and >= 0, "
                         f"got {fault_impedance!r}")
