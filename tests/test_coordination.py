"""Pair coordination checks against brute-force curve evaluation."""

import math

import numpy as np
import pytest

from feederprot import coordination as coord
from feederprot.curves import (FuseCurve, NO_OPERATION, RecloserCurve,
                               RecloserSettings, TCIConstants, fuse_time,
                               tci_time)

VI = TCIConstants(a=19.61, b=0.491, c=1.0, m=2.0, K=0.0)


def recloser_curve(pickup=1.0, dial=0.1, tag="fast"):
    return RecloserCurve(tag=tag, constants=VI,
                         settings=RecloserSettings(pickup=pickup,
                                                   time_dial=dial))


def power_law_fuse(c0=26.0, currents=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0)):
    mm = tuple((i, c0 / i ** 2) for i in currents)
    tc = tuple((i, 1.5 * c0 / i ** 2) for i in currents)
    return FuseCurve(name="toy", mm_points=mm, tc_points=tc)


def fr_pair(margin=0.1, rng=(2.0, 10.0), dial=0.1, fuse=None):
    return coord.CoordinationPair(
        id="R-L", kind=coord.PairKind.FUSE_RECLOSER,
        primary=recloser_curve(dial=dial),
        backup=coord.FuseDevice(fuse or power_law_fuse(), "mm"),
        margin_required=margin, range=rng)


def rr_pair(margin=0.3, rng=(2.0, 10.0), dial_down=0.1, dial_up=0.6):
    return coord.CoordinationPair(
        id="UP-DOWN", kind=coord.PairKind.RECLOSER_RECLOSER,
        primary=recloser_curve(dial=dial_down),
        backup=recloser_curve(dial=dial_up),
        margin_required=margin, range=rng)


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
        margins = [fuse_time(pair.backup.curve, "mm", float(i) + 1.0)
                   - pair.primary.time_at(float(i)) for i in grid]
        assert report.worst_margin == pytest.approx(min(margins))

    def test_coarse_grid_rejected(self):
        pair = fr_pair()
        sweep = coord.PairSweep(4.0, 3.0, 0.0)
        with pytest.raises(ValueError, match="coarser"):
            coord.check_pair(pair, sweep, points_per_decade=10)

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
            assert pair.range[0] < pair.range[1]
        # DG 1 taps node 2, between R1 (node 1) and R2 (node 3)
        assert by_id["R1-R2"][1].delta > 0.0
        assert by_id["RLY-R1"][1].delta == 0.0

    def test_design_range_ignores_dg(self, five_node_scenario,
                                     five_node_solution):
        scn = five_node_scenario
        pairs = dict((p.id, (p, s)) for p, s in coord.build_pairs(
            scn.network, five_node_solution, scn.fuse_curves))
        pair, sweep = pairs["R1-L1"]
        # DG raises the fault-point current above the no-DG design max
        assert sweep.i_primary_max + sweep.delta > pair.range[1]
