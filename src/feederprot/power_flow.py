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

import math
from dataclasses import dataclass

from .model import Network, validate_flow

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50
COLLAPSE_FLOOR = 0.5  # pu; below this the sweep is declared diverged


class PowerFlowDivergence(RuntimeError):
    """Voltage collapsed, or the flows ran away to overflow, during the
    sweep; carries the offending node."""

    def __init__(self, node: int, voltage: float):
        what = "collapse" if voltage < COLLAPSE_FLOOR else "runaway"
        super().__init__(f"voltage {what} at node {node}: {voltage:.4f} pu")
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


def _net_injections(network: Network) -> tuple[list[float], list[float]]:
    """Per-node net demand (load minus DG), real and reactive."""
    n = network.n_nodes
    d_p = [0.0] * n
    d_q = [0.0] * n
    for lat in network.laterals:
        d_p[lat.tap_node] += lat.load_p
        d_q[lat.tap_node] += lat.load_q
    for unit in network.dg_units:
        d_p[unit.tap_node] -= unit.p_out
        d_q[unit.tap_node] -= unit.q_out
    return d_p, d_q


def solve_distflow(network: Network,
                   tol: float = DEFAULT_TOL) -> PowerFlowSolution:
    """Forward-backward sweep to the requested power-mismatch tolerance.

    Returns the last iterate with converged=False after DEFAULT_MAX_ITER
    sweeps; raises PowerFlowDivergence on voltage collapse or runaway
    flows and ValueError on a tolerance that is not finite and positive
    or on a network that fails validate_flow (the devices, which no sweep
    reads, are not checked).

    The sweeps run on lists of floats.  A scalar ``x ** 2`` is libm
    ``pow``, which can differ in the last bit from ``x * x``, so each
    square keeps the form it is written in, and the backward sum keeps
    its order.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    violations = validate_flow(network)
    if violations:
        raise ValueError(f"invalid network: {violations[0].element}: "
                         f"{violations[0].rule}")

    r = [s.r for s in network.sections]
    x = [s.x for s in network.sections]
    d_p, d_q = _net_injections(network)
    d_p, d_q = d_p[1:], d_q[1:]  # per section, at its receiving end
    upstream = r[::-1], x[::-1], d_p[::-1], d_q[::-1]
    floor2 = COLLAPSE_FLOOR ** 2

    v = [float(network.source.voltage)] * network.n_nodes
    p = [0.0] * len(r)
    q = [0.0] * len(r)

    mismatch = math.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        # backward, from the feeder end: downstream demand plus the
        # section losses of the previous iterate
        p_up = []
        q_up = []
        down_p = down_q = 0.0
        for ri, xi, dpi, dqi, pi, qi, vi in zip(*upstream, p[::-1], q[::-1],
                                                v[-2::-1]):
            loss_scale = (pi * pi + qi * qi) / (vi * vi)
            down_p = down_p + dpi + ri * loss_scale
            down_q = down_q + dqi + xi * loss_scale
            p_up.append(down_p)
            q_up.append(down_q)
        p = p_up[::-1]
        q = q_up[::-1]
        # forward: propagate voltage from the source
        vi = v[0]
        v = [vi]
        for node, (ri, xi, pi, qi) in enumerate(zip(r, x, p, q), start=1):
            try:
                s2 = pi ** 2 + qi ** 2
                v2 = (vi ** 2 - 2 * (ri * pi + xi * qi)
                      + (ri ** 2 + xi ** 2) * s2 / vi ** 2)
            except OverflowError:  # the flows ran away past a double
                raise PowerFlowDivergence(node, math.inf) from None
            if not v2 > floor2:  # also a nan, from infinite flows
                raise PowerFlowDivergence(node, math.sqrt(max(v2, 0.0)))
            vi = math.sqrt(v2)
            v.append(vi)
        mismatch = _residual(p, q, v, r, x, d_p, d_q)
        if mismatch <= tol:
            return PowerFlowSolution(tuple(p), tuple(q), tuple(v), True, it,
                                     mismatch)
    return PowerFlowSolution(tuple(p), tuple(q), tuple(v), False,
                             DEFAULT_MAX_ITER, mismatch)


def _residual(p, q, v, r, x, d_p, d_q) -> float:
    """Worst re-evaluated recursion mismatch over interior nodes; every
    argument but the node voltages ``v`` is per section."""
    worst = 0.0
    for pi, qi, vi, ri, xi, dpi, dqi, down_p, down_q in zip(
            p, q, v, r, x, d_p, d_q, p[1:] + [0.0], q[1:] + [0.0]):
        loss = (pi ** 2 + qi ** 2) / vi ** 2
        err_p = abs(pi - ri * loss - dpi - down_p)
        err_q = abs(qi - xi * loss - dqi - down_q)
        # max(worst, err_p, err_q) without the call: the same comparisons
        if err_p > worst:
            worst = err_p
        if err_q > worst:
            worst = err_q
    return worst


def dg_terminal_voltages(network: Network,
                         sol: PowerFlowSolution) -> dict[int, float]:
    """Map each DG unit to the solved voltage magnitude at its tap node."""
    if not sol.converged:
        raise PowerFlowNotConverged("power flow solution did not converge")
    return {u.id: sol.v_mag[u.tap_node] for u in network.dg_units}
