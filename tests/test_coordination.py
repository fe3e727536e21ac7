"""Pair coordination checks against brute-force curve evaluation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from feederprot import coordination as coord
from feederprot import fault as flt
from feederprot import optimizer as opt
from feederprot.curves import (FuseCurve, NO_OPERATION, RecloserCurve,
                               RecloserSettings, TCIConstants, fuse_time)
from feederprot.model import RecloserPlacement
from feederprot.power_flow import solve_distflow

from conftest import radial_chains, recloser_zone, scenario_config, sequence
from test_power_flow import long_chain, scaled_dg

VI = TCIConstants(a=19.61, b=0.491, c=1.0, m=2.0, K=0.0)


def recloser_curve(pickup=1.0, dial=0.1, tag="fast"):
    return RecloserCurve(tag=tag, constants=VI,
                         settings=RecloserSettings(pickup=pickup,
                                                   time_dial=dial))


def power_law_fuse(c0=26.0, currents=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0)):
    mm = tuple((i, c0 / i ** 2) for i in currents)
    tc = tuple((i, 1.5 * c0 / i ** 2) for i in currents)
    return FuseCurve(name="toy", mm_points=mm, tc_points=tc)


def fr_pair(margin=0.1, dial=0.1, fuse=None):
    return coord.CoordinationPair(
        id="R-L", kind=coord.PairKind.FUSE_RECLOSER,
        primary=recloser_curve(dial=dial),
        backup=fuse or power_law_fuse(),
        margin_required=margin)


def rr_pair(margin=0.3, dial_down=0.1, dial_up=0.6):
    return coord.CoordinationPair(
        id="UP-DOWN", kind=coord.PairKind.RECLOSER_RECLOSER,
        primary=recloser_curve(dial=dial_down),
        backup=recloser_curve(dial=dial_up),
        margin_required=margin)


class TestCurrentGrid:
    def test_endpoints_and_spacing(self):
        grid = coord.current_grid(2.0, 20.0)
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(20.0)
        assert np.all(np.diff(np.log(grid)) > 0)
        # one decade at the default density
        assert len(grid) == 201

    def test_degenerate_range_still_covered(self):
        grid = coord.current_grid(5.0, 5.0)
        assert len(grid) >= 2
        assert np.allclose(grid, 5.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            coord.current_grid(0.0, 5.0)
        with pytest.raises(ValueError):
            coord.current_grid(6.0, 5.0)


class TestCheckPair:
    def brute_force(self, pair, sweep, n=2000):
        """Linear exhaustive evaluation of the range and margin conditions."""
        grid = np.linspace(sweep.i_primary_min, sweep.i_primary_max, n)
        sign = 1.0 if pair.kind is coord.PairKind.FUSE_RECLOSER else -1.0
        worst = math.inf
        for i in grid:
            tp = pair.primary.time_at(float(i))
            ib = float(i) + sign * sweep.delta
            tb = pair.backup.time_at(ib) if ib > 0 else NO_OPERATION
            if not (math.isinf(tp) or math.isinf(tb)):
                worst = min(worst, tb - tp)

        def ok_at(i):
            tp = pair.primary.time_at(float(i))
            tb = pair.backup.time_at(float(i) + sign * sweep.delta)
            return tp <= tb
        range_ok = ok_at(grid[0]) and ok_at(grid[-1])
        margin_ok = worst >= pair.margin_required - 1e-9
        if not range_ok:
            return coord.FailureMode.RANGE_EXCEEDED
        if not margin_ok:
            return coord.FailureMode.MARGIN_VIOLATED
        return coord.FailureMode.NONE

    def test_clean_pair(self):
        pair = fr_pair(margin=0.1)
        sweep = coord.PairSweep(i_primary_max=8.0, i_primary_min=3.0,
                                delta=0.5)
        report = coord.check_pair(pair, sweep)
        assert report.failure_mode is coord.FailureMode.NONE
        assert report.range_ok and report.margin_ok
        assert report.failure_mode == self.brute_force(pair, sweep)

    def test_range_exceeded_when_fuse_beats_recloser(self):
        # a large disparity drives the fuse far down its curve; the fuse
        # melts before the recloser trips at the sweep endpoints
        pair = fr_pair(margin=0.1)
        sweep = coord.PairSweep(i_primary_max=6.0, i_primary_min=3.0,
                                delta=20.0)
        report = coord.check_pair(pair, sweep)
        assert report.failure_mode is coord.FailureMode.RANGE_EXCEEDED
        assert not report.range_ok
        assert report.failure_mode == self.brute_force(pair, sweep)

    def test_margin_violated_with_correct_ordering(self):
        # operating order correct everywhere, but the gap is too small
        pair = fr_pair(margin=0.5)
        sweep = coord.PairSweep(i_primary_max=8.0, i_primary_min=4.0,
                                delta=0.0)
        report = coord.check_pair(pair, sweep)
        assert report.failure_mode is coord.FailureMode.MARGIN_VIOLATED
        assert report.range_ok and not report.margin_ok
        assert report.failure_mode == self.brute_force(pair, sweep)

    def test_worst_margin_matches_brute_force(self):
        pair = fr_pair(margin=0.1)
        sweep = coord.PairSweep(i_primary_max=9.0, i_primary_min=2.5,
                                delta=1.0)
        report = coord.check_pair(pair, sweep)
        grid = coord.current_grid(2.5, 9.0)
        margins = [fuse_time(pair.backup, float(i) + 1.0)
                   - pair.primary.time_at(float(i)) for i in grid]
        assert report.worst_margin == pytest.approx(min(margins))

    def test_shipped_pairs_match_brute_force(self, five_node_scenario,
                                             five_node_solution):
        scn = five_node_scenario
        pairs = coord.build_pairs(scn.network, five_node_solution,
                                  scn.fuse_curves, scn.fr_margin,
                                  scn.rr_margin, scn.fault_impedance_floor)
        assert pairs, "fixture produced no pairs"
        for pair, sweep in pairs:
            report = coord.check_pair(pair, sweep)
            assert report.failure_mode == self.brute_force(pair, sweep), pair.id


class TestRecloserPairProperties:
    def test_positive_disparity_helps_the_margin(self):
        # the upstream device sees less current, so it responds later:
        # a pair coordinated at zero disparity stays coordinated
        pair = rr_pair(margin=0.3)
        base = coord.check_pair(pair, coord.PairSweep(9.0, 3.0, 0.0))
        assert base.failure_mode is coord.FailureMode.NONE
        for delta in (0.2, 0.5, 1.0):
            shifted = coord.check_pair(pair, coord.PairSweep(9.0, 3.0, delta))
            assert shifted.failure_mode is coord.FailureMode.NONE
            assert shifted.worst_margin > base.worst_margin
            assert shifted.backup_delay > 0.0

    def test_backup_delay_signs_and_sentinels(self):
        pair = rr_pair()
        assert coord.backup_delay(pair, 0.0, 6.0) == 0.0
        # raw shift is negative: higher current means faster backup
        assert coord.backup_delay(pair, 1.0, 6.0) < 0.0
        assert coord.backup_delay(pair, 6.0, 6.0) == NO_OPERATION
        assert coord.backup_delay(pair, 5.5, 6.0) == NO_OPERATION

    def test_report_carries_absolute_delay(self):
        pair = rr_pair()
        sweep = coord.PairSweep(9.0, 3.0, 1.0)
        report = coord.check_pair(pair, sweep)
        raw = coord.backup_delay(pair, 1.0, 9.0)
        assert report.backup_delay == pytest.approx(abs(raw))


class TestBuildPairs:
    def test_enumeration_and_disparities(self, five_node_scenario,
                                         five_node_solution):
        scn = five_node_scenario
        pairs = coord.build_pairs(scn.network, five_node_solution,
                                  scn.fuse_curves)
        ids = [p.id for p, _ in pairs]
        assert ids == ["R1-L1", "R1-L2", "R2-L3", "R2-L4",
                       "RLY-R1", "R1-R2"]
        by_id = dict((p.id, (p, s)) for p, s in pairs)
        for pid, (pair, sweep) in by_id.items():
            assert sweep.delta >= 0.0
            assert sweep.i_primary_min <= sweep.i_primary_max
        # DG 1 taps node 2, between R1 (node 1) and R2 (node 3)
        assert by_id["R1-R2"][1].delta > 0.0
        assert by_id["RLY-R1"][1].delta == 0.0


SCENARIOS = ("five_node_scenario", "case_a_scenario", "case_b_scenario")


def reference_pairs(network, sol, floor):
    """Pair id -> sweep from one-shot fault solves: fuse pairs from faults
    at the lateral; recloser pairs from an explicit zone sweep and the DG
    between the two reclosers."""
    out = {}
    for rec in network.reclosers:
        zone = recloser_zone(network, rec.id)
        for lat in network.laterals:
            if lat.fuse is None or lat.tap_node not in zone:
                continue
            loc = flt.at_lateral(lat.id)
            bolted = flt.solve_fault(network, sol, loc)
            floored = flt.solve_fault(network, sol, loc, floor)
            out[f"{rec.id}-L{lat.id}"] = (bolted.i_recloser[rec.id],
                                          floored.i_recloser[rec.id],
                                          bolted.delta_fr[rec.id])

    for up, down in zip(network.reclosers, network.reclosers[1:]):
        zone = recloser_zone(network, down.id)
        i_max = max(flt.solve_fault(network, sol, flt.at_node(k))
                    .i_recloser[down.id] for k in zone)
        i_min = flt.solve_fault(network, sol, flt.at_node(zone[-1]),
                                floor).i_recloser[down.id]
        study = flt.solve_fault(network, sol, flt.at_node(down.node))
        delta = sum(study.i_dg[u.id] for u in network.dg_units
                    if up.node <= u.tap_node < down.node)
        out[f"{up.id}-{down.id}"] = (i_max, i_min, delta)
    return out


def reference_zone(kernel, rec, floor):
    """(I_max, I_min) of one recloser from a sweep of its own zone."""
    network = kernel.network
    zone = recloser_zone(network, rec.id)
    bolted = [flt._recloser_current(network, rec.node,
                                    *kernel.source_currents(k, 0.0))
              for k in zone]
    floored = flt._recloser_current(
        network, rec.node, *kernel.source_currents(zone[-1], floor))
    return max(bolted), floored


def reference_study_pairs(kernel, floor):
    """The pair enumeration study_pairs replaced, kept as its bit-for-bit
    reference: two kernel.study calls per fused lateral, one more per
    recloser pair, and one sweep of each recloser's zone."""
    network = kernel.network
    zones = {rec.id: reference_zone(kernel, rec, floor)
             for rec in network.reclosers}
    pairs = []
    for rec in network.reclosers:
        zone = recloser_zone(network, rec.id)
        for lat in network.laterals:
            if lat.fuse is None or lat.tap_node not in zone:
                continue
            loc = flt.at_lateral(lat.id)
            bolted = kernel.study(loc, 0.0)
            floored = kernel.study(loc, floor)
            pairs.append(coord.PairStudy(
                f"{rec.id}-L{lat.id}", coord.PairKind.FUSE_RECLOSER, rec.id,
                lat.id, coord.PairSweep(bolted.i_recloser[rec.id],
                                        floored.i_recloser[rec.id],
                                        bolted.delta_fr[rec.id])))
    for up, down in zip(network.reclosers, network.reclosers[1:]):
        i_max, i_min = zones[down.id]
        bolted = kernel.study(flt.at_node(down.node), 0.0)
        pairs.append(coord.PairStudy(
            f"{up.id}-{down.id}", coord.PairKind.RECLOSER_RECLOSER, down.id,
            up.id, coord.PairSweep(i_max, i_min, bolted.delta_rr[down.id])))
    return pairs, zones


def assert_same_study(network, floors):
    kernel = flt.fault_kernel(network, solve_distflow(network))
    for floor in floors:
        assert (coord.study_pairs(kernel, floor)
                == reference_study_pairs(kernel, floor))


def fused_long_chain(n, seed):
    """long_chain with reclosers at its head and thirds, every lateral
    fused."""
    net = long_chain(n, seed)
    return replace(
        net, laterals=tuple(replace(lat, fuse="fa") for lat in net.laterals),
        reclosers=(net.reclosers[0],) + tuple(
            RecloserPlacement(f"R{k}", k * n // 3, sequence())
            for k in (1, 2)))


class TestStudyPairsMatchesReference:
    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("fixture", SCENARIOS)
    def test_fixtures(self, fixture, scale, request):
        scn = request.getfixturevalue(fixture)
        assert_same_study(scaled_dg(scn.network, scale),
                          (0.0, scn.fault_impedance_floor, 0.2))

    @given(radial_chains())
    def test_radial_chains(self, chain):
        net, floor = chain
        assert_same_study(net, (0.0, floor))

    @pytest.mark.parametrize("n", [50, 200])
    def test_long_chains(self, n):
        for net in (long_chain(n, n), fused_long_chain(n, n)):
            assert_same_study(net, (0.0, 0.2))


class TestPairEnumeration:
    @pytest.mark.parametrize("fixture", SCENARIOS)
    def test_pairs_and_settings_read_one_enumeration(self, fixture, request):
        scn = request.getfixturevalue(fixture)
        sol = solve_distflow(scn.network)
        pairs = coord.build_pairs(scn.network, sol, scn.fuse_curves,
                                  scn.fr_margin, scn.rr_margin,
                                  scn.fault_impedance_floor)
        sub = opt.build_settings_subproblem(scn.network, sol,
                                            scenario_config(scn))
        assert [p.id for p, _ in pairs] == [pd.id for pd in sub.pairs]
        for (pair, sweep), pd in zip(pairs, sub.pairs):
            assert pair.kind is pd.kind
            assert sweep == pd.sweep

    @pytest.mark.parametrize("fixture", SCENARIOS)
    def test_pairs_match_one_shot_fault_solves(self, fixture, request):
        scn = request.getfixturevalue(fixture)
        sol = solve_distflow(scn.network)
        floor = scn.fault_impedance_floor
        pairs = coord.build_pairs(scn.network, sol, scn.fuse_curves,
                                  scn.fr_margin, scn.rr_margin, floor)
        expect = reference_pairs(scn.network, sol, floor)
        assert [p.id for p, _ in pairs] == list(expect)
        for pair, sweep in pairs:
            got = (sweep.i_primary_max, sweep.i_primary_min, sweep.delta)
            for g, w in zip(got, expect[pair.id]):
                assert g == pytest.approx(w, rel=1e-9, abs=1e-12), pair.id

    @pytest.mark.parametrize("fixture", SCENARIOS)
    def test_no_dg_fuse_fault_total_is_recloser_current(self, fixture,
                                                         request):
        scn = request.getfixturevalue(fixture)
        net = replace(scn.network, dg_units=())
        sol = solve_distflow(net)
        studied = 0
        for rec in net.reclosers:
            zone = recloser_zone(net, rec.id)
            for lat in net.laterals:
                if lat.fuse is None or lat.tap_node not in zone:
                    continue
                for zf in (0.0, scn.fault_impedance_floor):
                    study = flt.solve_fault(net, sol, flt.at_lateral(lat.id),
                                            zf)
                    assert study.i_fault_total == study.i_recloser[rec.id]
                studied += 1
        assert studied > 0
