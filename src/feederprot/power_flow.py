"""Pre-fault load flow on the radial feeder.

Solves the branch-flow recursions

    P[i+1] = P[i] - r_i*(P[i]**2 + Q[i]**2)/V[i]**2 - (Pd[i+1] - Pg[i+1])
    Q[i+1] = Q[i] - x_i*(P[i]**2 + Q[i]**2)/V[i]**2 - (Qd[i+1] - Qg[i+1])

together with the standard voltage companion

    V[i+1]**2 = V[i]**2 - 2*(r_i*P[i] + x_i*Q[i])
                + (r_i**2 + x_i**2)*(P[i]**2 + Q[i]**2)/V[i]**2

by forward-backward sweep: backward power accumulation from the feeder
end (terminal boundary P = Q = 0), forward voltage propagation from the
source.  Loads and DG are constant-PQ regardless of voltage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Network, validate

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50
COLLAPSE_FLOOR = 0.5  # pu; below this the sweep is declared diverged


class PowerFlowDivergence(RuntimeError):
    """Voltage collapsed during the sweep; carries the offending node."""

    def __init__(self, node: int, voltage: float):
        super().__init__(f"voltage collapse at node {node}: {voltage:.4f} pu")
        self.node = node
        self.voltage = voltage


class PowerFlowNotConverged(RuntimeError):
    """A solution that did not converge was given where a converged one
    is required."""


@dataclass(frozen=True)
class PowerFlowSolution:
    p_flow: tuple[float, ...]  # per section, sending end
    q_flow: tuple[float, ...]
    v_mag: tuple[float, ...]  # per node
    converged: bool
    iterations: int
    max_mismatch: float


def _net_injections(network: Network) -> tuple[np.ndarray, np.ndarray]:
    """Per-node net demand (load minus DG), real and reactive."""
    n = network.n_nodes
    d_p = np.zeros(n)
    d_q = np.zeros(n)
    for lat in network.laterals:
        d_p[lat.tap_node] += lat.load_p
        d_q[lat.tap_node] += lat.load_q
    for unit in network.dg_units:
        d_p[unit.tap_node] -= unit.p_out
        d_q[unit.tap_node] -= unit.q_out
    return d_p, d_q


def solve_distflow(network: Network, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> PowerFlowSolution:
    """Forward-backward sweep to the requested power-mismatch tolerance.

    Returns the best iterate with converged=False when max_iter is
    exhausted; raises PowerFlowDivergence on voltage collapse and
    ValueError on an invalid network or bad arguments.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    violations = validate(network)
    if violations:
        raise ValueError(f"invalid network: {violations[0].element}: "
                         f"{violations[0].rule}")

    n = network.n_nodes
    ns = n - 1
    r = np.array([s.r for s in network.sections])
    x = np.array([s.x for s in network.sections])
    d_p, d_q = _net_injections(network)

    v = np.full(n, network.source.voltage)
    p = np.zeros(ns)
    q = np.zeros(ns)

    mismatch = np.inf
    for it in range(1, max_iter + 1):
        # losses from the previous iterate
        loss_scale = (p ** 2 + q ** 2) / v[:-1] ** 2 if ns else np.zeros(0)
        p_new = np.zeros(ns)
        q_new = np.zeros(ns)
        # backward: accumulate downstream demand plus section losses
        for i in range(ns - 1, -1, -1):
            down_p = p_new[i + 1] if i + 1 < ns else 0.0
            down_q = q_new[i + 1] if i + 1 < ns else 0.0
            p_new[i] = down_p + d_p[i + 1] + r[i] * loss_scale[i]
            q_new[i] = down_q + d_q[i + 1] + x[i] * loss_scale[i]
        p, q = p_new, q_new
        # forward: propagate voltage from the source
        for i in range(ns):
            s2 = p[i] ** 2 + q[i] ** 2
            v2 = (v[i] ** 2 - 2 * (r[i] * p[i] + x[i] * q[i])
                  + (r[i] ** 2 + x[i] ** 2) * s2 / v[i] ** 2)
            if v2 <= COLLAPSE_FLOOR ** 2:
                raise PowerFlowDivergence(i + 1, np.sqrt(max(v2, 0.0)))
            v[i + 1] = np.sqrt(v2)
        mismatch = _residual(p, q, v, r, x, d_p, d_q)
        if mismatch <= tol:
            return PowerFlowSolution(tuple(p), tuple(q), tuple(v), True, it,
                                     float(mismatch))
    return PowerFlowSolution(tuple(p), tuple(q), tuple(v), False, max_iter,
                             float(mismatch))


def _residual(p, q, v, r, x, d_p, d_q) -> float:
    """Worst re-evaluated recursion mismatch over interior nodes."""
    ns = len(p)
    worst = 0.0
    for i in range(ns):
        loss = (p[i] ** 2 + q[i] ** 2) / v[i] ** 2
        p_next = p[i] - r[i] * loss - d_p[i + 1]
        q_next = q[i] - x[i] * loss - d_q[i + 1]
        down_p = p[i + 1] if i + 1 < ns else 0.0
        down_q = q[i + 1] if i + 1 < ns else 0.0
        worst = max(worst, abs(p_next - down_p), abs(q_next - down_q))
    return worst


def dg_terminal_voltages(network: Network,
                         sol: PowerFlowSolution) -> dict[int, float]:
    """Map each DG unit to the solved voltage magnitude at its tap node."""
    if not sol.converged:
        raise PowerFlowNotConverged("power flow solution did not converge")
    return {u.id: sol.v_mag[u.tap_node] for u in network.dg_units}
