"""Network model invariants, accessors, and derived-state copies."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from feederprot.curves import (RecloserCurve, RecloserSettings,
                               ReclosingSequence, TCIConstants)
from feederprot.model import (AsynchronousParams, DGKind, DGUnit,
                              FeederSection, InverterParams, Lateral, Network,
                              RecloserPlacement, SubstationSource,
                              SynchronousParams, UnknownElementError,
                              validate, validate_flow)

VI = TCIConstants(a=19.61, b=0.491, c=1.0, m=2.0, K=0.0)


def curve(tag, pickup=1.0, dial=0.5):
    return RecloserCurve(tag=tag, constants=VI,
                         settings=RecloserSettings(pickup=pickup,
                                                   time_dial=dial))


def relay(node=0, rid="RLY"):
    return RecloserPlacement(
        id=rid, node=node,
        sequence=ReclosingSequence(curves=(curve("slow"),), pattern="S"))


def recloser(node, rid):
    seq = ReclosingSequence(curves=(curve("fast", dial=0.1),
                                    curve("slow", dial=0.8)), pattern="F-S")
    return RecloserPlacement(id=rid, node=node, sequence=seq)


def base_network(**overrides):
    net = Network(
        sections=(FeederSection(0, 1, 0.02, 0.06),
                  FeederSection(1, 2, 0.02, 0.06)),
        laterals=(Lateral(1, 1, 0.2, 0.1, "fa"),
                  Lateral(2, 2, 0.1, 0.05, "fb")),
        dg_units=(DGUnit(1, 1, DGKind.SYNCHRONOUS, 0.4, 0.3, 0.1,
                         SynchronousParams(xd2=0.6), curtailable=True),
                  DGUnit(2, 2, DGKind.INVERTER, 0.3, 0.2, 0.0,
                         InverterParams(k_off=3.0, k_clamp=1.5,
                                        coupling_x=0.4)),),
        source=SubstationSource(1.0, 0.0, 0.05),
        reclosers=(relay(), recloser(1, "R1")),
        base_mva=1.0, base_kv=12.47,
    )
    return replace(net, **overrides) if overrides else net


class TestValidate:
    def test_clean_network_has_no_violations(self):
        assert validate(base_network()) == []

    def assert_violated(self, net, fragment):
        rules = [v.rule for v in validate(net)]
        assert any(fragment in r for r in rules), rules

    def test_sections_must_chain(self):
        net = base_network(sections=(FeederSection(0, 1, 0.02, 0.06),
                                     FeederSection(2, 3, 0.02, 0.06)))
        self.assert_violated(net, "radial chain")

    def test_section_impedance_sane(self):
        net = base_network(sections=(FeederSection(0, 1, 0.0, 0.0),
                                     FeederSection(1, 2, 0.02, 0.06)))
        self.assert_violated(net, "not both zero")

    def test_duplicate_lateral_id(self):
        net = base_network(laterals=(Lateral(1, 1, 0.2, 0.1, "fa"),
                                     Lateral(1, 2, 0.1, 0.05, "fb")))
        self.assert_violated(net, "duplicate lateral id")

    def test_lateral_off_feeder(self):
        net = base_network(laterals=(Lateral(1, 9, 0.2, 0.1, "fa"),))
        self.assert_violated(net, "not on feeder")

    def test_reactive_load_bound(self):
        net = base_network(laterals=(Lateral(1, 1, 0.1, 0.5, "fa"),))
        self.assert_violated(net, "2*load_p")

    def test_dg_rating_respected(self):
        unit = DGUnit(1, 1, DGKind.SYNCHRONOUS, 0.2, 0.3, 0.1,
                      SynchronousParams(xd2=0.6))
        net = base_network(dg_units=(unit,))
        self.assert_violated(net, "apparent-power rating")

    def test_dg_params_match_kind(self):
        unit = DGUnit(1, 1, DGKind.SYNCHRONOUS, 0.4, 0.3, 0.1,
                      AsynchronousParams(x_lr=2.0))
        net = base_network(dg_units=(unit,))
        self.assert_violated(net, "params do not match")

    def test_inverter_multiple_band(self):
        unit = DGUnit(1, 1, DGKind.INVERTER, 0.4, 0.3, 0.0,
                      InverterParams(k_off=5.0, k_clamp=1.5))
        net = base_network(dg_units=(unit,))
        self.assert_violated(net, "k_clamp")

    def test_source_voltage_band(self):
        net = base_network(source=SubstationSource(1.2, 0.0, 0.05))
        self.assert_violated(net, "voltage outside")

    def test_recloser_order_strict(self):
        net = base_network(reclosers=(relay(), recloser(1, "R1"),
                                      recloser(1, "R2")))
        self.assert_violated(net, "strictly increase")

    def test_off_head_recloser_needs_fast_curve(self):
        net = base_network(reclosers=(relay(), relay(node=1, rid="R1")))
        self.assert_violated(net, "needs a fast curve")

    def test_fast_curve_must_sit_below_slow(self):
        seq = ReclosingSequence(curves=(curve("fast", dial=0.9),
                                        curve("slow", dial=0.1)),
                                pattern="F-S")
        net = base_network(reclosers=(
            relay(), RecloserPlacement(id="R1", node=1, sequence=seq)))
        self.assert_violated(net, "fast curve above slow")

    def test_bases_positive(self):
        net = base_network(base_mva=0.0)
        self.assert_violated(net, "must be positive")

    def test_load_flow_checks_come_first_and_skip_the_devices(self):
        seq = ReclosingSequence(curves=(curve("fast", dial=0.9),
                                        curve("slow", dial=0.1)),
                                pattern="F-S")
        net = base_network(
            laterals=(Lateral(1, 1, -0.2, 0.0, "fa"),),
            reclosers=(relay(), RecloserPlacement("R1", 1, seq)),
            base_kv=0.0)
        flow = validate_flow(net)
        assert {v.element for v in flow} == {"lateral[1]"}
        full = validate(net)
        assert full[:len(flow)] == flow
        assert [v.element for v in full[len(flow):]] == ["recloser[R1]",
                                                          "bases"]


class TestAccessors:
    def test_lookup_and_errors(self):
        net = base_network()
        assert net.lateral(2).tap_node == 2
        assert net.dg(1).kind is DGKind.SYNCHRONOUS
        assert net.recloser("R1").node == 1
        with pytest.raises(UnknownElementError):
            net.lateral(9)
        with pytest.raises(UnknownElementError):
            net.dg(9)
        with pytest.raises(UnknownElementError):
            net.recloser("R9")

    def test_counts_and_base_amps(self):
        net = base_network()
        assert net.n_nodes == 3
        # 1 MVA / (sqrt(3) * 12.47 kV) = 46.30 A per unit current
        assert abs(net.base_amps - 46.2994) < 1e-3


class TestDerivedStates:
    def test_with_output_preserves_power_factor(self):
        unit = base_network().dg(1)
        scaled = unit.with_output(0.15)
        assert scaled.p_out == 0.15
        assert abs(scaled.q_out / scaled.p_out
                   - unit.q_out / unit.p_out) < 1e-12

    def test_with_output_from_zero_keeps_q_zero(self):
        unit = replace(base_network().dg(1), p_out=0.0, q_out=0.0)
        assert unit.with_output(0.2).q_out == 0.0

    def test_with_output_through_zero_keeps_power_factor(self):
        unit = base_network().dg(1)
        off = unit.with_output(0.0)
        assert off.q_out == 0.0
        back = off.with_output(0.15)
        assert back.p_out == 0.15
        assert back.q_out == pytest.approx(0.15 * unit.q_out / unit.p_out,
                                           rel=1e-12)

    @given(st.floats(1e-4, 1.0), st.floats(-0.5, 0.5), st.floats(0.0, 1.0))
    def test_q_round_trip_through_zero(self, p, q, p2):
        unit = DGUnit(1, 1, DGKind.SYNCHRONOUS, 1.0, p, q,
                      SynchronousParams(xd2=0.25), curtailable=True)
        direct = unit.with_output(p2).q_out
        through_zero = unit.with_output(0.0).with_output(p2).q_out
        assert abs(through_zero - direct) <= 1e-12 * abs(direct)

    def test_with_dg_outputs_replaces_listed_units(self):
        net = base_network()
        out = net.with_dg_outputs({1: 0.1})
        assert out.dg(1).p_out == 0.1
        assert out.dg(2).p_out == net.dg(2).p_out
        # the original is untouched
        assert net.dg(1).p_out == 0.3
