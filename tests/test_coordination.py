"""Pair coordination checks against brute-force curve evaluation."""

import csv
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given

from feederprot import cli
from feederprot import coordination as coord
from feederprot import fault as flt
from feederprot import optimizer as opt
from feederprot.curves import (FuseCurve, NO_OPERATION, RecloserCurve,
                               RecloserSettings, TCIConstants, fuse_time,
                               load_curve_families)
from feederprot.model import RecloserPlacement
from feederprot.power_flow import solve_distflow

from conftest import (pair_checks, radial_chains, recloser_zone,
                      scenario_config, sequence)
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


def fr_pair(i_primary_max, i_primary_min, delta, margin=0.1, dial=0.1,
            fuse=None):
    """check_pair's arguments for a fuse-recloser pair over the range."""
    return (coord.PairStudy("R-L", coord.PairKind.FUSE_RECLOSER, "R", 1,
                            i_primary_max, i_primary_min, delta),
            recloser_curve(dial=dial), fuse or power_law_fuse(), margin)


def rr_pair(i_primary_max, i_primary_min, delta, margin=0.3, dial_down=0.1,
            dial_up=0.6):
    """check_pair's arguments for a recloser-recloser pair over the range."""
    return (coord.PairStudy("UP-DOWN", coord.PairKind.RECLOSER_RECLOSER,
                            "DOWN", "UP", i_primary_max, i_primary_min,
                            delta),
            recloser_curve(dial=dial_down), recloser_curve(dial=dial_up),
            margin)


class TestCurrentGrid:
    def test_endpoints_and_spacing(self):
        grid = list(coord.CurrentAxis.spanning(2.0, 20.0))
        assert grid[0] == pytest.approx(2.0)
        assert grid[-1] == pytest.approx(20.0)
        assert np.all(np.diff(np.log(grid)) > 0)
        # one decade at the default density
        assert len(grid) == 201

    def test_degenerate_range_still_covered(self):
        grid = list(coord.CurrentAxis.spanning(5.0, 5.0))
        assert len(grid) >= 2
        assert np.allclose(grid, 5.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            coord.CurrentAxis.spanning(0.0, 5.0)
        with pytest.raises(ValueError):
            coord.CurrentAxis.spanning(6.0, 5.0)

    def test_indices_outside_the_axis_raise(self):
        axis = coord.CurrentAxis.spanning(2.0, 20.0)
        assert len(axis) == axis.size == 201
        assert axis[axis.size - 1] == 10.0 ** axis.stop
        for k in (axis.size, axis.size + 1, -1):
            with pytest.raises(IndexError):
                axis[k]


class TestCheckPair:
    def brute_force(self, pair, primary, backup, required, n=2000):
        """Linear exhaustive evaluation of the range and margin conditions."""
        grid = np.linspace(pair.i_primary_min, pair.i_primary_max, n)
        sign = 1.0 if pair.kind is coord.PairKind.FUSE_RECLOSER else -1.0
        worst = math.inf
        for i in grid:
            tp = primary.time_at(float(i))
            ib = float(i) + sign * pair.delta
            tb = backup.time_at(ib) if ib > 0 else NO_OPERATION
            if not (math.isinf(tp) or math.isinf(tb)):
                worst = min(worst, tb - tp)

        def ok_at(i):
            tp = primary.time_at(float(i))
            tb = backup.time_at(float(i) + sign * pair.delta)
            return tp <= tb
        range_ok = ok_at(grid[0]) and ok_at(grid[-1])
        margin_ok = worst >= required - coord.MARGIN_TOL
        if not range_ok:
            return coord.FailureMode.RANGE_EXCEEDED
        if not margin_ok:
            return coord.FailureMode.MARGIN_VIOLATED
        return coord.FailureMode.NONE

    def test_clean_pair(self):
        case = fr_pair(i_primary_max=8.0, i_primary_min=3.0, delta=0.5,
                       margin=0.1)
        report = coord.check_pair(*case)
        assert report.failure_mode is coord.FailureMode.NONE
        assert report.range_ok and report.margin_ok
        assert report.failure_mode == self.brute_force(*case)

    def test_range_exceeded_when_fuse_beats_recloser(self):
        # a large disparity drives the fuse far down its curve; the fuse
        # melts before the recloser trips at the sweep endpoints
        case = fr_pair(i_primary_max=6.0, i_primary_min=3.0, delta=20.0,
                       margin=0.1)
        report = coord.check_pair(*case)
        assert report.failure_mode is coord.FailureMode.RANGE_EXCEEDED
        assert not report.range_ok
        assert report.failure_mode == self.brute_force(*case)

    def test_margin_violated_with_correct_ordering(self):
        # operating order correct everywhere, but the gap is too small
        case = fr_pair(i_primary_max=8.0, i_primary_min=4.0, delta=0.0,
                       margin=0.5)
        report = coord.check_pair(*case)
        assert report.failure_mode is coord.FailureMode.MARGIN_VIOLATED
        assert report.range_ok and not report.margin_ok
        assert report.failure_mode == self.brute_force(*case)

    def test_worst_margin_matches_brute_force(self):
        _, primary, fuse, _ = case = fr_pair(
            i_primary_max=9.0, i_primary_min=2.5, delta=1.0, margin=0.1)
        report = coord.check_pair(*case)
        grid = coord.CurrentAxis.spanning(2.5, 9.0)
        margins = [fuse_time(fuse, float(i) + 1.0)
                   - primary.time_at(float(i)) for i in grid]
        assert report.worst_margin == pytest.approx(min(margins))

    def test_shipped_pairs_match_brute_force(self, five_node_scenario,
                                             five_node_solution):
        scn = five_node_scenario
        cases = pair_checks(scn.network, scn.fuse_curves, scn.fr_margin,
                            scn.rr_margin, scn.fault_impedance_floor)
        assert cases, "fixture produced no pairs"
        for case in cases:
            report = coord.check_pair(*case)
            assert report.failure_mode == self.brute_force(*case), case[0].id


class TestMarginTolerance:
    def test_dial_overrun_stays_inside_margin_tol(self):
        # at the rule's pickups, at most half the minimum line-line fault
        # current, the current multiple is at least 2/(sqrt(3)/2), and
        # the dial slope falls as the multiple grows
        multiple = 2.0 / opt.LL_FACTOR
        for name, consts in load_curve_families().items():
            curve = RecloserCurve("fast", consts, RecloserSettings(1.0, 1.0))
            slope = opt._dial_slope(curve, 1.0, name)
            assert slope(2.0 * multiple) < slope(multiple), name
            assert opt.DIAL_TOL * slope(multiple) < coord.MARGIN_TOL, name


class TestRecloserPairProperties:
    def test_positive_disparity_helps_the_margin(self):
        # the upstream device sees less current, so it responds later:
        # a pair coordinated at zero disparity stays coordinated
        base = coord.check_pair(*rr_pair(9.0, 3.0, 0.0, margin=0.3))
        assert base.failure_mode is coord.FailureMode.NONE
        for delta in (0.2, 0.5, 1.0):
            shifted = coord.check_pair(*rr_pair(9.0, 3.0, delta, margin=0.3))
            assert shifted.failure_mode is coord.FailureMode.NONE
            assert shifted.worst_margin > base.worst_margin
            assert shifted.backup_delay > 0.0

    def test_backup_delay_signs_and_sentinels(self):
        backup = recloser_curve(dial=0.6)
        assert coord.backup_delay(backup, 0.0, 6.0) == 0.0
        # raw shift is negative: higher current means faster backup
        assert coord.backup_delay(backup, 1.0, 6.0) < 0.0
        assert coord.backup_delay(backup, 6.0, 6.0) == NO_OPERATION
        assert coord.backup_delay(backup, 5.5, 6.0) == NO_OPERATION

    def test_report_carries_absolute_delay(self):
        case = rr_pair(9.0, 3.0, 1.0)
        report = coord.check_pair(*case)
        raw = coord.backup_delay(case[2], 1.0, 9.0)
        assert report.backup_delay == pytest.approx(abs(raw))


SCENARIOS = ("five_node_scenario", "case_a_scenario", "case_b_scenario")


def reference_pairs(network, sol, floor):
    """Pair id -> current range and disparity from one-shot fault solves:
    fuse pairs from faults at the lateral; recloser pairs from an explicit
    zone sweep and the DG between the two reclosers."""
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
                                    kernel.source_currents(k, 0.0))
              for k in zone]
    floored = flt._recloser_current(
        network, rec.node, kernel.source_currents(zone[-1], floor))
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
                lat.id, bolted.i_recloser[rec.id],
                floored.i_recloser[rec.id], bolted.delta_fr[rec.id]))
    for up, down in zip(network.reclosers, network.reclosers[1:]):
        i_max, i_min = zones[down.id]
        bolted = kernel.study(flt.at_node(down.node), 0.0)
        pairs.append(coord.PairStudy(
            f"{up.id}-{down.id}", coord.PairKind.RECLOSER_RECLOSER, down.id,
            up.id, i_max, i_min, bolted.delta_rr[down.id]))
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
    def test_enumeration_and_disparities(self, five_node_scenario,
                                         five_node_solution):
        scn = five_node_scenario
        kernel = flt.fault_kernel(scn.network, five_node_solution)
        pairs, _ = coord.study_pairs(kernel, 0.0)
        assert [pd.id for pd in pairs] == ["R1-L1", "R1-L2", "R2-L3",
                                           "R2-L4", "RLY-R1", "R1-R2"]
        by_id = {pd.id: pd for pd in pairs}
        for pair in pairs:
            assert pair.delta >= 0.0
            assert pair.i_primary_min <= pair.i_primary_max
        # DG 1 taps node 2, between R1 (node 1) and R2 (node 3)
        assert by_id["R1-R2"].delta > 0.0
        assert by_id["RLY-R1"].delta == 0.0

    @pytest.mark.parametrize("fixture", SCENARIOS)
    def test_pairs_and_settings_read_one_enumeration(self, fixture, request,
                                                     tmp_path):
        # the pairs coordinate reports are the state study's
        scn = request.getfixturevalue(fixture)
        cli.cmd_coordinate(scn, tmp_path)
        with open(tmp_path / "coordination.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        study = opt.study_state(scn.network, scn.fuse_curves,
                                scenario_config(scn))
        assert [(row["pair_id"], row["kind"]) for row in rows] == \
            [(pd.id, pd.kind.value) for pd in study.pairs]

    @pytest.mark.parametrize("fixture", SCENARIOS)
    def test_pairs_match_one_shot_fault_solves(self, fixture, request):
        scn = request.getfixturevalue(fixture)
        sol = solve_distflow(scn.network)
        floor = scn.fault_impedance_floor
        pairs, _ = coord.study_pairs(flt.fault_kernel(scn.network, sol),
                                     floor)
        expect = reference_pairs(scn.network, sol, floor)
        assert [pd.id for pd in pairs] == list(expect)
        for pair in pairs:
            got = (pair.i_primary_max, pair.i_primary_min, pair.delta)
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
