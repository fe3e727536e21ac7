"""Fault studies against dense and independent nodal solves and
hand-built models."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from feederprot import coordination as coord
from feederprot import fault as flt
from feederprot.model import (DGKind, DGUnit, InverterParams,
                              SynchronousParams, UnknownElementError)
from feederprot.power_flow import PowerFlowNotConverged, solve_distflow

from conftest import radial_chains, recloser_zone
from test_power_flow import long_chain, scaled_dg


def loop_admittance(network):
    """Nodal admittance matrix of the feeder sections, stamped one
    section at a time."""
    n = network.n_nodes
    y = np.zeros((n, n), dtype=complex)
    for sec in network.sections:
        adm = 1.0 / complex(sec.r, sec.x)
        i, j = sec.from_node, sec.to_node
        y[i, i] += adm
        y[j, j] += adm
        y[i, j] -= adm
        y[j, i] -= adm
    return y


def norton_sources(network, sol):
    """Every source's tap and Norton pair, the substation first."""
    models = flt.build_all_fault_models(network, sol)
    z_src = network.source.impedance
    substation = flt.NortonSource(1.0 / z_src, network.source.voltage / z_src)
    return [(0, substation),
            *((u.tap_node, models[u.id]) for u in network.dg_units)]


def dense_fault_kernel(network, sol):
    """The kernel as one dense nodal solve: Y holds the sections and the
    source shunts; the right-hand sides are each source's injection and a
    unit current at every node.  Returns (v_oc, z_kk) indexed by node."""
    sources = norton_sources(network, sol)
    n, m = network.n_nodes, len(sources)
    y = loop_admittance(network)
    rhs = np.zeros((n, m + n), dtype=complex)
    rhs[range(n), range(m, m + n)] = 1.0
    for col, (tap, src) in enumerate(sources):
        y[tap, tap] += src.shunt
        rhs[tap, col] = src.injection
    volts = np.linalg.solve(y, rhs)
    return volts[:, :m], np.diagonal(volts[:, m:])


def contributions(kernel, fault_impedance):
    """Complex current each source feeds a fault at each node, one row per
    node, one column per source, read off the kernel."""
    v_oc, z_kk = np.asarray(kernel.v_oc), np.asarray(kernel.z_kk)
    return v_oc / (z_kk + fault_impedance)[:, np.newaxis]


def assert_matches_dense(network):
    """The chain reduction agrees with the dense solve element-wise to
    1e-12 relative, so a source that injects nothing, whose dense column
    is exactly zero, has an exactly zero column."""
    sol = solve_distflow(network)
    kernel = flt.fault_kernel(network, sol)
    v_oc, z_kk = dense_fault_kernel(network, sol)
    got_v, got_z = np.asarray(kernel.v_oc), np.asarray(kernel.z_kk)
    assert got_v.shape == v_oc.shape and got_z.shape == z_kk.shape
    assert np.all(np.abs(got_z - z_kk) <= 1e-12 * np.abs(z_kk))
    assert np.all(np.abs(got_v - v_oc) <= 1e-12 * np.abs(v_oc))
    return kernel


def independent_fault_current(network, sources, fault_node,
                              fault_impedance=0.0):
    """One-shot complex nodal solve with the faulted node grounded.

    Written against the circuit directly: the sources' shunts and
    injections assembled into Y*V = I, the fault represented by forcing
    V = 0 at the node (or adding the fault impedance as a shunt), and the
    fault current read back from the nodal balance.
    """
    n = network.n_nodes
    y = loop_admittance(network)
    inj = np.zeros(n, dtype=complex)
    for tap, src in sources:
        y[tap, tap] += src.shunt
        inj[tap] += src.injection
    if fault_impedance > 0:
        y[fault_node, fault_node] += 1.0 / fault_impedance
        volts = np.linalg.solve(y, inj)
        return volts[fault_node] / fault_impedance
    keep = [k for k in range(n) if k != fault_node]
    volts = np.linalg.solve(y[np.ix_(keep, keep)], inj[keep])
    return inj[fault_node] - y[fault_node, keep] @ volts


def only_source(sources, keep):
    """The sources with every one but column ``keep`` dead: its injection
    zero and its shunt kept (a voltage source shorted behind its
    impedance, a current source opened), so the circuit carries
    ``keep``'s contribution."""
    return [(tap, src if col == keep else replace(src, injection=0j))
            for col, (tap, src) in enumerate(sources)]


class TestKernelProperties:
    @given(radial_chains())
    def test_contributions_match_independent_solve(self, chain):
        net, floor = chain
        sol = solve_distflow(net)
        sources = norton_sources(net, sol)
        kernel = flt.fault_kernel(net, sol)
        for zf in (0.0, floor):
            got = contributions(kernel, zf)
            for col in range(len(sources)):
                alone = only_source(sources, col)
                for node in range(net.n_nodes):
                    expect = independent_fault_current(net, alone, node, zf)
                    assert abs(got[node, col] - expect) <= 1e-9 * abs(expect)

    @given(radial_chains())
    def test_zone_sweep_matches_one_shot_solves(self, chain):
        net, floor = chain
        sol = solve_distflow(net)
        kernel = flt.fault_kernel(net, sol)
        _, zones = coord.study_pairs(kernel, floor)
        for rec in net.reclosers:
            zone = recloser_zone(net, rec.id)
            mx, mn = zones[rec.id]
            swept = max(kernel.study(flt.at_node(k)).i_recloser[rec.id]
                        for k in zone)
            far = kernel.study(flt.at_node(zone[-1]), floor)
            assert abs(mx - swept) <= 1e-9 * swept
            assert abs(mn - far.i_recloser[rec.id]) <= 1e-9 * mn


class TestMatchesDenseSolve:
    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("fixture", ["five_node_scenario",
                                         "case_a_scenario", "case_b_scenario"])
    def test_fixtures(self, request, fixture, scale):
        net = request.getfixturevalue(fixture).network
        assert_matches_dense(scaled_dg(net, scale))

    @given(radial_chains())
    def test_radial_chains(self, chain):
        assert_matches_dense(chain[0])

    @pytest.mark.parametrize("n", [50, 200])
    def test_long_chains(self, n):
        assert_matches_dense(long_chain(n, n))

    def test_dg_at_the_head_and_the_last_node(self, five_node_scenario):
        net = five_node_scenario.network
        first, second, *rest = net.dg_units
        assert_matches_dense(replace(net, dg_units=(
            replace(first, tap_node=0),
            replace(second, tap_node=net.n_nodes - 1), *rest)))

    def test_every_unit_off(self, case_a_scenario):
        net = case_a_scenario.network
        kernel = assert_matches_dense(
            net.with_dg_outputs({u.id: 0.0 for u in net.dg_units}))
        v_oc = np.asarray(kernel.v_oc)
        assert np.all(v_oc[:, 1:] == 0)
        assert np.all(v_oc[:, 0] != 0)

    def test_resistive_and_reactive_sections(self, case_a_scenario):
        net = case_a_scenario.network
        first, second, *rest = net.sections
        assert_matches_dense(replace(net, sections=(
            replace(first, x=0.0), replace(second, r=0.0), *rest)))


class TestNetworkSolve:
    def test_no_dg_chain_matches_series_impedance(self, five_node_scenario):
        net = replace(five_node_scenario.network, dg_units=())
        sol = solve_distflow(net)
        kernel = flt.fault_kernel(net, sol)
        z = net.source.impedance
        for node in range(1, net.n_nodes):
            sec = net.sections[node - 1]
            z += complex(sec.r, sec.x)
            study = kernel.study(flt.at_node(node))
            expect = net.source.voltage / z
            assert abs(contributions(kernel, 0.0)[node].sum() - expect) < 1e-9
            assert abs(study.i_fault_total - abs(expect)) < 1e-9

    def test_with_dg_matches_independent_nodal_solve(self, five_node_scenario):
        net = five_node_scenario.network
        sol = solve_distflow(net)
        sources = norton_sources(net, sol)
        kernel = flt.fault_kernel(net, sol)
        for node in range(1, net.n_nodes):
            for zf in (0.0, 0.2):
                expect = independent_fault_current(net, sources, node, zf)
                got = contributions(kernel, zf)[node].sum()
                assert abs(got - expect) < 1e-6

    def test_total_is_arithmetic_sum_of_contributions(self, five_node_scenario,
                                                      five_node_solution):
        net = five_node_scenario.network
        kernel = flt.fault_kernel(net, five_node_solution)
        study = kernel.study(flt.at_node(3))
        assert abs(study.i_fault_total
                   - (study.i_substation + sum(study.i_dg.values()))) < 1e-12

    def test_no_dg_decays_with_distance(self, case_a_scenario):
        net = replace(case_a_scenario.network, dg_units=())
        kernel = flt.fault_kernel(net, solve_distflow(net))
        totals = [kernel.study(flt.at_node(k)).i_fault_total
                  for k in range(1, net.n_nodes)]
        assert all(a > b for a, b in zip(totals, totals[1:]))

    def test_impedance_floor_lowers_current(self, five_node_scenario,
                                            five_node_solution):
        net = five_node_scenario.network
        kernel = flt.fault_kernel(net, five_node_solution)
        bolted = kernel.study(flt.at_node(4))
        floored = kernel.study(flt.at_node(4), 0.3)
        assert floored.i_fault_total < bolted.i_fault_total


class TestDGModels:
    def test_synchronous_emf_hand_formula(self):
        dg = DGUnit(1, 2, DGKind.SYNCHRONOUS, 0.4, 0.3, 0.12,
                    SynchronousParams(xd2=0.6))
        v = 0.97
        src = flt.build_dg_fault_model(dg, v)
        i_pre = complex(0.3, -0.12) / v
        expect = complex(v, 0.0) + 1j * 0.6 * i_pre
        assert abs(src.injection / src.shunt - expect) < 1e-12
        assert src.shunt == 1 / (1j * 0.6)

    def test_asynchronous_slip_scales_with_loading(self):
        from feederprot.model import AsynchronousParams
        params = AsynchronousParams(x_lr=2.2, rated_slip=0.02)
        v = 0.98
        half = DGUnit(4, 8, DGKind.ASYNCHRONOUS, 0.2, 0.1, 0.03, params)
        src = flt.build_dg_fault_model(half, v)
        i_pre = complex(0.1, -0.03) / v
        slip = 0.02 * (0.1 / 0.2)
        expect = (1 + slip) * (complex(v, 0) + 1j * 2.2 * i_pre)
        assert abs(src.injection / src.shunt - expect) < 1e-12
        assert src.shunt == 1 / (1j * 2.2)

    def test_inverter_clamps_or_switches_off(self):
        params = InverterParams(k_off=2.0, k_clamp=1.5, coupling_x=0.4)
        dg = DGUnit(2, 4, DGKind.INVERTER, 0.3, 0.2, 0.0, params)
        clamped = flt.build_dg_fault_model(dg, 0.79)
        assert clamped.shunt == 0
        assert abs(clamped.injection - -1j * 1.5 * 0.3) < 1e-12
        # prospective current 0.81/0.4 = 2.02 x rated exceeds k_off = 2
        off = flt.build_dg_fault_model(dg, 0.81)
        assert off == flt.NortonSource(0j, 0j)

    def test_zero_output_unit_is_off(self):
        dg = DGUnit(1, 2, DGKind.SYNCHRONOUS, 0.4, 0.0, 0.0,
                    SynchronousParams(xd2=0.6))
        assert flt.build_dg_fault_model(dg, 1.0) == flt.NortonSource(0j, 0j)

    def test_terminal_voltage_must_be_positive(self):
        dg = DGUnit(1, 2, DGKind.SYNCHRONOUS, 0.4, 0.3, 0.1,
                    SynchronousParams(xd2=0.6))
        with pytest.raises(ValueError):
            flt.build_dg_fault_model(dg, 0.0)


class TestDeviceCurrents:
    def test_disparities_are_explicit_sums(self, five_node_scenario,
                                           five_node_solution):
        net = five_node_scenario.network
        kernel = flt.fault_kernel(net, five_node_solution)
        study = kernel.study(flt.at_lateral(2))
        prev = 0
        for rec in net.reclosers:
            fr = sum(study.i_dg[u.id] for u in net.dg_units
                     if u.tap_node >= rec.node)
            rr = sum(study.i_dg[u.id] for u in net.dg_units
                     if prev <= u.tap_node < rec.node)
            assert abs(study.delta_fr[rec.id] - fr) < 1e-12
            assert abs(study.delta_rr[rec.id] - rr) < 1e-12
            prev = rec.node

    def test_downstream_recloser_is_blocked(self, five_node_scenario,
                                            five_node_solution):
        net = five_node_scenario.network
        kernel = flt.fault_kernel(net, five_node_solution)
        study = kernel.study(flt.at_node(2))
        assert study.i_recloser["R2"] == 0.0
        assert study.i_recloser["R1"] > 0.0

    def test_upstream_recloser_misses_downstream_dg(self, five_node_scenario,
                                                    five_node_solution):
        net = five_node_scenario.network
        kernel = flt.fault_kernel(net, five_node_solution)
        study = kernel.study(flt.at_node(4))
        expect = study.i_substation + study.i_dg[1]  # DG 1 taps node 2 < R2
        assert abs(study.i_recloser["R2"] - expect) < 1e-12

    def test_fuse_entry_only_for_faulted_lateral(self, five_node_scenario,
                                                 five_node_solution):
        net = five_node_scenario.network
        kernel = flt.fault_kernel(net, five_node_solution)
        on_lat = kernel.study(flt.at_lateral(3))
        assert set(on_lat.i_fuse) == {3}
        assert on_lat.i_fuse[3] == on_lat.i_fault_total
        on_node = kernel.study(flt.at_node(3))
        assert on_node.i_fuse == {}


class TestZoneSweep:
    def test_max_min_matches_explicit_sweep(self, five_node_scenario,
                                            five_node_solution):
        net = five_node_scenario.network
        sol = five_node_solution
        floor = 0.15
        # R1 sits at node 1, its zone ends before R2 at node 3
        kernel = flt.fault_kernel(net, sol)
        currents = [kernel.study(flt.at_node(k)).i_recloser["R1"]
                    for k in (1, 2)]
        far = kernel.study(flt.at_node(2), floor)
        mx, mn = coord.study_pairs(kernel, floor)[1]["R1"]
        assert abs(mx - max(currents)) < 1e-12
        assert abs(mn - far.i_recloser["R1"]) < 1e-12


class TestInputChecks:
    def test_location_kind_validated(self):
        with pytest.raises(ValueError):
            flt.FaultLocation("bus", 3)

    def test_unknown_references(self, five_node_scenario, five_node_solution):
        net = five_node_scenario.network
        kernel = flt.fault_kernel(net, five_node_solution)
        for loc in (flt.at_node(42), flt.at_lateral(42)):
            with pytest.raises(UnknownElementError):
                flt.check_fault(net, loc, 0.0)
            with pytest.raises(UnknownElementError):
                kernel.study(loc)

    def test_requires_converged_power_flow(self, five_node_scenario):
        net = five_node_scenario.network
        sol = solve_distflow(net, tol=1e-300)
        with pytest.raises(PowerFlowNotConverged):
            flt.fault_kernel(net, sol)
