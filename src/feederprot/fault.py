"""Fault studies: DG source models, the per-state fault kernel, disparities.

Three-phase faults are solved on the single equivalent-phase per-unit
circuit.  Rotating DG become voltage sources behind a reactance;
inverter DG become constant current injections or switch off; the
substation is its configured voltage behind the source impedance.

Each operating state is factored once by the Z-bus (Thevenin) method
(Grainger & Stevenson, *Power System Analysis*, ch. 10): one solve of
the nodal admittance matrix against every source injection I_s and a
unit current at each requested fault node gives each source's
open-circuit voltage V_oc[k, s] = Z[k, j_s] * I_s and the driving-point
impedance Z[k, k].  By superposition a fault at node k through z_f
(zero when bolted) draws V_oc[k, s] / (Z[k, k] + z_f) from source s.

Device currents follow the directional accounting of radial feeders: a
fuse sees every source, a directional recloser only the substation and
DG tapped upstream of it.  Device currents are arithmetic sums of the
per-source contribution magnitudes, which makes the fuse-recloser and
recloser-recloser disparities exact sums of the per-DG contributions.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

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
class TheveninEquivalent:
    emf: complex
    impedance: complex

    def __post_init__(self):
        if abs(self.impedance) <= 0:
            raise ValueError("rotating-machine impedance magnitude must be > 0")


class FaultModelKind(Enum):
    VOLTAGE_BEHIND_IMPEDANCE = "voltage_behind_impedance"
    CONSTANT_CURRENT = "constant_current"
    OFF = "off"


@dataclass(frozen=True)
class DGFaultModel:
    kind: FaultModelKind
    thevenin: TheveninEquivalent | None = None
    i_const: float = 0.0


@dataclass(frozen=True)
class FaultStudy:
    i_recloser: dict[str, float]
    i_fuse: dict[int, float]
    i_dg: dict[int, float]
    i_substation: float
    i_fault_total: float  # arithmetic sum of contribution magnitudes
    delta_fr: dict[str, float]
    delta_rr: dict[str, float]


def build_dg_fault_model(dg: DGUnit, v_terminal: float) -> DGFaultModel:
    """Fault representation of one DG unit from its pre-fault state.

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
        return DGFaultModel(FaultModelKind.OFF)
    v = complex(v_terminal, 0.0)
    # generator convention: unit delivers (p + jq), I = conj(S/V)
    i_pre = complex(dg.p_out, -dg.q_out) / v_terminal

    if dg.kind is DGKind.SYNCHRONOUS:
        z = complex(0.0, dg.params.xd2)
        return DGFaultModel(FaultModelKind.VOLTAGE_BEHIND_IMPEDANCE,
                            thevenin=TheveninEquivalent(v + z * i_pre, z))
    if dg.kind is DGKind.ASYNCHRONOUS:
        # pre-fault slip mapped affinely from loading; it nudges the
        # internal emf, the locked-rotor reactance sets the magnitude
        slip = dg.params.rated_slip * (dg.p_out / dg.rating_s)
        z = complex(0.0, dg.params.x_lr)
        emf = (1.0 + slip) * (v + z * i_pre)
        return DGFaultModel(FaultModelKind.VOLTAGE_BEHIND_IMPEDANCE,
                            thevenin=TheveninEquivalent(emf, z))
    # inverter-based
    rated_i = dg.rating_s
    prospective = v_terminal / dg.params.coupling_x * rated_i
    if prospective > dg.params.k_off * rated_i:
        return DGFaultModel(FaultModelKind.OFF)
    return DGFaultModel(FaultModelKind.CONSTANT_CURRENT,
                        i_const=dg.params.k_clamp * rated_i)


def build_all_fault_models(network: Network,
                           sol: PowerFlowSolution) -> dict[int, DGFaultModel]:
    volts = dg_terminal_voltages(network, sol)
    return {u.id: build_dg_fault_model(u, volts[u.id])
            for u in network.dg_units}


def _fault_node(network: Network, location: FaultLocation) -> int:
    if location.kind == "node":
        if not 0 <= location.ref < network.n_nodes:
            raise UnknownElementError(f"node {location.ref} not on feeder")
        return location.ref
    return network.lateral(location.ref).tap_node


def _dg_current(network: Network, i_dg: dict, lo: int, hi: int):
    """Summed contribution of the DG tapped at lo <= node < hi, in feeder
    order; the values may be floats or per-node arrays."""
    return sum(i_dg[u.id] for u in network.dg_units if lo <= u.tap_node < hi)


def _recloser_current(network: Network, recloser_node: int, i_sub, i_dg):
    """Current a directional recloser sees of a fault downstream of it:
    the substation's and that of the DG tapped upstream of it."""
    return i_sub + _dg_current(network, i_dg, 0, recloser_node)


@dataclass(frozen=True)
class FaultKernel:
    """Every three-phase fault of one operating state, from one solve.

    ``v_oc[r, s]`` is source s's open-circuit voltage at the fault node
    of row r and ``z_kk[r]`` that node's driving-point impedance; the
    sources are the substation, then every DG unit in feeder order (a
    unit that is off injects nothing, so its column is zero).
    """

    network: Network
    row: dict[int, int]  # fault node -> row of v_oc and z_kk
    v_oc: np.ndarray
    z_kk: np.ndarray

    def contributions(self, nodes: Sequence[int],
                      fault_impedance: float) -> np.ndarray:
        """Complex current each source feeds a fault at each of the nodes,
        one row per node, one column per source."""
        rows = [self.row[k] for k in nodes]
        return (self.v_oc[rows]
                / (self.z_kk[rows] + fault_impedance)[:, np.newaxis])

    def source_currents(self, nodes: Sequence[int], fault_impedance: float,
                        ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """Contribution magnitudes per node: the substation's, and each DG
        unit's by id."""
        mag = np.abs(self.contributions(nodes, fault_impedance))
        return mag[:, 0], {u.id: mag[:, col] for col, u
                           in enumerate(self.network.dg_units, start=1)}

    def study(self, location: FaultLocation,
              fault_impedance: float = 0.0) -> FaultStudy:
        """Per-device currents of one fault.

        Reclosers strictly downstream of the fault are directionally
        blocked and reported at zero current.  The fuse entry is
        populated for the faulted lateral when the location is a lateral.
        """
        network = self.network
        f_node = _fault_node(network, location)
        sub, dg = self.source_currents([f_node], fault_impedance)
        i_sub = float(sub[0])
        i_dg = {uid: float(i[0]) for uid, i in dg.items()}
        total = i_sub + sum(i_dg.values())

        i_recloser: dict[str, float] = {}
        delta_fr: dict[str, float] = {}
        delta_rr: dict[str, float] = {}
        prev_node = 0
        for rec in network.reclosers:
            i_recloser[rec.id] = (
                _recloser_current(network, rec.node, i_sub, i_dg)
                if rec.node <= f_node else 0.0)
            delta_fr[rec.id] = _dg_current(network, i_dg, rec.node,
                                           network.n_nodes)
            delta_rr[rec.id] = _dg_current(network, i_dg, prev_node, rec.node)
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


def _section_admittance(network: Network) -> np.ndarray:
    """Nodal admittance matrix of the feeder sections alone.

    The sections form a chain, so no index repeats within one scatter.
    The receiving ends go first, so each node adds its two section
    admittances in feeder order, and the off-diagonals are subtracted
    from zero: the bits of stamping one section at a time, signed zeros
    included.
    """
    adm = np.array([1.0 / complex(s.r, s.x) for s in network.sections],
                   dtype=complex)
    frm = np.array([s.from_node for s in network.sections], dtype=int)
    to = np.array([s.to_node for s in network.sections], dtype=int)
    n = network.n_nodes
    y = np.zeros((n, n), dtype=complex)
    y[to, to] += adm
    y[frm, frm] += adm
    y[frm, to] -= adm
    y[to, frm] -= adm
    return y


def fault_kernel(network: Network, sol: PowerFlowSolution,
                 nodes: Sequence[int]) -> FaultKernel:
    """Factor one operating state for faults at the given nodes.

    Y holds the feeder sections and the shunts of the substation and of
    every voltage-behind-impedance DG; the right-hand sides are each
    source's injection and a unit current at each requested node.
    Raises PowerFlowNotConverged, through the DG terminal voltages, when
    ``sol`` did not converge.
    """
    models = build_all_fault_models(network, sol)
    n = network.n_nodes
    y = _section_admittance(network)

    m = 1 + len(network.dg_units)  # source columns
    unit_cols = m + np.arange(len(nodes))
    rhs = np.zeros((n, m + len(nodes)), dtype=complex)
    rhs[nodes, unit_cols] = 1.0
    z_src = network.source.impedance
    y[0, 0] += 1.0 / z_src
    rhs[0, 0] = network.source.voltage / z_src
    for col, unit in enumerate(network.dg_units, start=1):
        fm = models[unit.id]
        if fm.kind is FaultModelKind.VOLTAGE_BEHIND_IMPEDANCE:
            y[unit.tap_node, unit.tap_node] += 1.0 / fm.thevenin.impedance
            rhs[unit.tap_node, col] = fm.thevenin.emf / fm.thevenin.impedance
        elif fm.kind is FaultModelKind.CONSTANT_CURRENT:
            # injected in quadrature with the pre-fault voltage, matching
            # the phase of a current driven through the coupling reactance
            rhs[unit.tap_node, col] = -1j * fm.i_const
        # OFF contributes nothing and adds no shunt

    volts = np.linalg.solve(y, rhs)
    return FaultKernel(network=network, row={k: r for r, k in enumerate(nodes)},
                       v_oc=volts[nodes, :m], z_kk=volts[nodes, unit_cols])


def solve_fault(network: Network, sol: PowerFlowSolution,
                location: FaultLocation,
                fault_impedance: float = 0.0) -> FaultStudy:
    """Solve one three-phase fault on its own kernel (see FaultKernel.study)."""
    node = _fault_node(network, location)
    return fault_kernel(network, sol, [node]).study(location, fault_impedance)

