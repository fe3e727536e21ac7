"""Load-flow sweep against hand-iterated recursions, flat cases and the
same sweep on numpy arrays."""

import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from feederprot import power_flow
from feederprot.curves import (RecloserCurve, RecloserSettings,
                               ReclosingSequence, TCIConstants)
from feederprot.model import (DGUnit, FeederSection, Lateral, Network,
                              RecloserPlacement, SubstationSource, validate)
from feederprot.power_flow import (COLLAPSE_FLOOR, DEFAULT_MAX_ITER,
                                   DEFAULT_TOL, PowerFlowDivergence,
                                   PowerFlowNotConverged, PowerFlowSolution,
                                   dg_terminal_voltages, solve_distflow)

from conftest import DG_PARAMS, radial_chains

RELAY = RecloserPlacement(
    id="RLY", node=0,
    sequence=ReclosingSequence(
        curves=(RecloserCurve(
            tag="slow",
            constants=TCIConstants(a=19.61, b=0.491, c=1.0, m=2.0, K=0.0),
            settings=RecloserSettings(pickup=1.0, time_dial=0.5)),),
        pattern="S"))


def two_bus(p_load, q_load, r=0.03, x=0.08):
    return Network(
        sections=(FeederSection(0, 1, r, x),),
        laterals=(Lateral(1, 1, p_load, q_load, None),),
        dg_units=(),
        source=SubstationSource(1.0, 0.0, 0.05),
        reclosers=(RELAY,),
        base_mva=1.0, base_kv=12.47,
    )


def hand_iterate_two_bus(p_load, q_load, r, x, passes=60):
    """Scalar fixed point of the branch-flow recursions, written longhand."""
    v0 = 1.0
    p = q = 0.0
    for _ in range(passes):
        loss = (p * p + q * q) / v0 ** 2
        p = p_load + r * loss
        q = q_load + x * loss
    v1_sq = (v0 ** 2 - 2.0 * (r * p + x * q)
             + (r * r + x * x) * (p * p + q * q) / v0 ** 2)
    return p, q, math.sqrt(v1_sq)


class TestTwoBusOracle:
    def test_matches_hand_iteration(self):
        r, x = 0.03, 0.08
        net = two_bus(0.4, 0.2, r, x)
        sol = solve_distflow(net)
        assert sol.converged
        p_ref, q_ref, v_ref = hand_iterate_two_bus(0.4, 0.2, r, x)
        assert abs(sol.p_flow[0] - p_ref) < 1e-8
        assert abs(sol.q_flow[0] - q_ref) < 1e-8
        assert abs(sol.v_mag[1] - v_ref) < 1e-8

    def test_losses_grow_flows_beyond_load(self):
        sol = solve_distflow(two_bus(0.4, 0.2))
        assert sol.p_flow[0] > 0.4
        assert sol.q_flow[0] > 0.2

    def test_mismatch_within_tolerance(self):
        sol = solve_distflow(two_bus(0.4, 0.2), tol=1e-10)
        assert sol.converged
        assert sol.max_mismatch <= 1e-10


class TestFlatCases:
    def test_zero_injection_exact_flat_voltage(self):
        net = two_bus(0.0, 0.0)
        sol = solve_distflow(net)
        assert sol.converged
        assert sol.v_mag == (1.0, 1.0)
        assert sol.p_flow == (0.0,)
        assert sol.q_flow == (0.0,)
        assert sol.max_mismatch == 0.0

    def test_dg_exactly_cancelling_load_is_flat(self):
        from dataclasses import replace
        from feederprot.model import DGKind, DGUnit, SynchronousParams
        dg = DGUnit(id=1, tap_node=1, kind=DGKind.SYNCHRONOUS, rating_s=0.4,
                    p_out=0.3, q_out=0.1, params=SynchronousParams(xd2=0.5))
        net = replace(two_bus(0.3, 0.1), dg_units=(dg,))
        sol = solve_distflow(net)
        assert sol.v_mag == (1.0, 1.0)
        assert sol.p_flow == (0.0,)
        assert sol.q_flow == (0.0,)


class TestFailureModes:
    def test_voltage_collapse_raises(self):
        with pytest.raises(PowerFlowDivergence,
                           match="voltage collapse at node 1") as exc:
            solve_distflow(two_bus(5.5, 5.5))
        assert exc.value.node == 1
        assert exc.value.voltage < 0.5

    def test_invalid_network_rejected(self):
        bad = two_bus(-0.1, 0.0)
        with pytest.raises(ValueError, match="invalid network"):
            solve_distflow(bad)

    def test_bad_arguments(self):
        net = two_bus(0.1, 0.05)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be finite"):
                solve_distflow(net, tol=tol)

    def test_unconverged_flagged(self, five_node_scenario):
        # the sweep stalls about 1.5e-18 pu short of this tolerance
        sol = solve_distflow(five_node_scenario.network, tol=1e-300)
        assert not sol.converged
        assert sol.iterations == DEFAULT_MAX_ITER
        assert 0 < sol.max_mismatch < 1e-16


class TestTerminalVoltages:
    def test_maps_dg_to_tap_voltage(self, five_node_scenario,
                                    five_node_solution):
        net = five_node_scenario.network
        volts = dg_terminal_voltages(net, five_node_solution)
        for unit in net.dg_units:
            assert volts[unit.id] == five_node_solution.v_mag[unit.tap_node]

    def test_requires_converged_solution(self, five_node_scenario):
        net = five_node_scenario.network
        sol = solve_distflow(net, tol=1e-300)
        with pytest.raises(PowerFlowNotConverged):
            dg_terminal_voltages(net, sol)


def _numpy_net_injections(network: Network) -> tuple[np.ndarray, np.ndarray]:
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


def numpy_distflow(network: Network, tol: float = DEFAULT_TOL,
                   max_iter: int = DEFAULT_MAX_ITER) -> PowerFlowSolution:
    """Reference: the sweep on numpy arrays, indexed one element at a
    time, as the package solved it before its sweeps moved to lists of
    floats."""
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
    d_p, d_q = _numpy_net_injections(network)

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
        mismatch = _numpy_residual(p, q, v, r, x, d_p, d_q)
        if mismatch <= tol:
            return PowerFlowSolution(tuple(p), tuple(q), tuple(v), True, it,
                                     float(mismatch))
    return PowerFlowSolution(tuple(p), tuple(q), tuple(v), False, max_iter,
                             float(mismatch))


def _numpy_residual(p, q, v, r, x, d_p, d_q) -> float:
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


def assert_same_sweep(network, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """The sweep and the array reference agree in every field, or both
    report the same collapse, when both stop after ``max_iter`` sweeps
    (the package's DEFAULT_MAX_ITER patched); returns the sweep's answer."""
    with mock.patch.object(power_flow, "DEFAULT_MAX_ITER", max_iter):
        try:
            want = numpy_distflow(network, tol, max_iter)
        except PowerFlowDivergence as ref:
            with pytest.raises(PowerFlowDivergence) as got:
                solve_distflow(network, tol)
            assert ((got.value.node, got.value.voltage)
                    == (ref.node, ref.voltage))
            return got.value
        got = solve_distflow(network, tol)
    assert got.p_flow == want.p_flow
    assert got.q_flow == want.q_flow
    assert got.v_mag == want.v_mag
    assert got.converged == want.converged
    assert got.iterations == want.iterations
    assert got.max_mismatch == want.max_mismatch
    return got


def scaled_dg(network, scale):
    """Every DG output times ``scale``, capped per unit at its rating."""
    return network.with_dg_outputs({
        u.id: u.p_out * min(scale, u.rating_s / math.hypot(u.p_out, u.q_out))
        for u in network.dg_units})


def long_chain(n, seed):
    """A seeded n-node chain: 0.03 + j0.12 pu of series impedance and
    about 1 pu of load spread over it, and a synchronous unit at every
    quarter of its length."""
    rng = random.Random(seed)
    sections = tuple(
        FeederSection(k, k + 1, 0.03 / (n - 1) * rng.uniform(0.8, 1.2),
                      0.12 / (n - 1) * rng.uniform(0.8, 1.2))
        for k in range(n - 1))
    laterals = []
    for k in range(1, n):
        p = rng.uniform(0.8, 1.2) / (n - 1)
        laterals.append(Lateral(k, k, p, p * rng.uniform(0.4, 0.55), None))
    kind, params = DG_PARAMS["synchronous"]
    units = tuple(DGUnit(j, tap, kind, 0.15, 0.1 * rng.uniform(0.9, 1.1),
                         0.05, params)
                  for j, tap in enumerate(range(n // 4, n, n // 4), start=1))
    return Network(sections=sections, laterals=tuple(laterals),
                   dg_units=units, source=SubstationSource(1.0, 0.004, 0.03),
                   reclosers=(RELAY,), base_mva=2.5, base_kv=4.8)


def scaled_loads(network, factor):
    return replace(network, laterals=tuple(
        replace(lat, load_p=lat.load_p * factor, load_q=lat.load_q * factor)
        for lat in network.laterals))


TOLS = (1e-6, 1e-8, 1e-10)


class TestMatchesArraySweep:
    @pytest.mark.parametrize("max_iter", [1, 2, DEFAULT_MAX_ITER])
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("fixture", ["five_node_scenario",
                                         "case_a_scenario", "case_b_scenario"])
    def test_shipped_fixtures(self, request, fixture, tol, max_iter):
        network = request.getfixturevalue(fixture).network
        sol = assert_same_sweep(network, tol=tol, max_iter=max_iter)
        assert sol.converged == (max_iter == DEFAULT_MAX_ITER)

    @settings(max_examples=50)
    @given(radial_chains(), st.floats(0.0, 1.5), st.sampled_from(TOLS),
           st.sampled_from((1, 2, DEFAULT_MAX_ITER)))
    def test_random_chains_with_scaled_dg(self, chain, scale, tol, max_iter):
        network, _ = chain
        assert_same_sweep(scaled_dg(network, scale), tol=tol,
                          max_iter=max_iter)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [50, 200])
    def test_long_chains_with_scaled_dg(self, n, seed):
        network = long_chain(n, seed)
        for scale in (0.0, 0.5, 1.0, 1.5):
            for tol in TOLS:
                sol = assert_same_sweep(scaled_dg(network, scale), tol=tol)
                assert sol.converged

    @pytest.mark.parametrize("factor", [5.0, 10.0, 20.0])
    def test_collapsing_feeders(self, five_node_scenario, case_a_scenario,
                                factor):
        for network in (five_node_scenario.network, case_a_scenario.network):
            collapse = assert_same_sweep(scaled_loads(network, factor))
            assert isinstance(collapse, PowerFlowDivergence)
            assert collapse.voltage < COLLAPSE_FLOOR
        assert isinstance(assert_same_sweep(two_bus(5.5, 5.5)),
                          PowerFlowDivergence)

    @pytest.mark.parametrize("fixture,factor", [
        (None, 2.0), ("five_node_scenario", 50.0), ("case_a_scenario", 50.0)])
    def test_runaway_flows_diverge(self, request, fixture, factor):
        """Loads far past collapse can send the flows up, squaring each
        iterate, until they overflow a double.  The array sweep carried
        the overflow on as inf and then nan, which the residual's max()
        skips, and reported convergence; the sweep reports divergence."""
        network = (request.getfixturevalue(fixture).network if fixture
                   else two_bus(5.5, 5.5))
        with pytest.raises(PowerFlowDivergence) as exc:
            solve_distflow(scaled_loads(network, factor))
        assert exc.value.voltage == math.inf
        assert str(exc.value) == "voltage runaway at node 1: inf pu"
