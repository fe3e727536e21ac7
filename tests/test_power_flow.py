"""Load-flow sweep against hand-iterated recursions and flat cases."""

import math

import pytest

from feederprot.curves import (RecloserCurve, RecloserSettings,
                               ReclosingSequence, TCIConstants)
from feederprot.model import (FeederSection, Lateral, Network,
                              RecloserPlacement, SubstationSource)
from feederprot.power_flow import (PowerFlowDivergence, PowerFlowNotConverged,
                                   dg_terminal_voltages, solve_distflow)

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
        with pytest.raises(PowerFlowDivergence) as exc:
            solve_distflow(two_bus(5.5, 5.5))
        assert exc.value.node == 1
        assert exc.value.voltage < 0.5

    def test_invalid_network_rejected(self):
        bad = two_bus(-0.1, 0.0)
        with pytest.raises(ValueError, match="invalid network"):
            solve_distflow(bad)

    def test_bad_arguments(self):
        net = two_bus(0.1, 0.05)
        with pytest.raises(ValueError):
            solve_distflow(net, tol=0.0)
        with pytest.raises(ValueError):
            solve_distflow(net, max_iter=0)

    def test_unconverged_flagged(self):
        sol = solve_distflow(two_bus(0.6, 0.3), tol=1e-14, max_iter=1)
        assert not sol.converged
        assert sol.iterations == 1


class TestTerminalVoltages:
    def test_maps_dg_to_tap_voltage(self, five_node_scenario,
                                    five_node_solution):
        net = five_node_scenario.network
        volts = dg_terminal_voltages(net, five_node_solution)
        for unit in net.dg_units:
            assert volts[unit.id] == five_node_solution.v_mag[unit.tap_node]

    def test_requires_converged_solution(self):
        sol = solve_distflow(two_bus(0.6, 0.3), tol=1e-14, max_iter=1)
        with pytest.raises(PowerFlowNotConverged):
            dg_terminal_voltages(two_bus(0.6, 0.3), sol)
