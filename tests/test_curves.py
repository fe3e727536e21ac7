"""Time-current curve math: recloser inverse curves and fuse tables."""

import json
import math

import numpy as np
import pytest

from feederprot.curves import (
    CurveRangeError, FuseCurve, NO_OPERATION, RecloserCurve, RecloserSettings,
    ReclosingSequence, TCIConstants, fuse_inverse_current, fuse_time,
    invert_tci_for_current, tci_asymptote, tci_time)
from feederprot import netfile
from feederprot.netfile import FAMILIES, FUSES

VERY_INVERSE = TCIConstants(a=19.61, b=0.491, c=1.0, m=2.0, K=0.0)


def _reference_interp_loglog(points, i_fault: float) -> float:
    """Piecewise-linear interpolation in (log I, log t); no range checks."""
    logi = math.log(i_fault)
    for (i0, t0), (i1, t1) in zip(points, points[1:]):
        if i_fault <= i1 or (i1, t1) == points[-1]:
            l0, l1 = math.log(i0), math.log(i1)
            frac = (logi - l0) / (l1 - l0)
            return math.exp(math.log(t0) + frac * (math.log(t1) - math.log(t0)))
    raise AssertionError("unreachable")


def reference_fuse_time(curve: FuseCurve, i_fault: float) -> float:
    """Reference: the MM lookup as the package did it before the tables'
    logs were stored, walking the table and taking four logs per call."""
    points = curve.mm_points
    if i_fault < points[0][0]:
        return NO_OPERATION
    if i_fault > points[-1][0]:
        return points[-1][1]
    return _reference_interp_loglog(points, i_fault)


def reference_fuse_inverse_current(curve: FuseCurve, t_target: float) -> float:
    """Reference: the MM inverse as the package did it before the tables'
    logs were stored."""
    points = curve.mm_points
    if t_target > points[0][1] or t_target < points[-1][1]:
        raise CurveRangeError(
            f"fuse {curve.name}: time {t_target} s outside tabulated band "
            f"[{points[-1][1]}, {points[0][1]}]"
        )
    logt = math.log(t_target)
    for (i0, t0), (i1, t1) in zip(points, points[1:]):
        if t_target >= t1:
            l0, l1 = math.log(t0), math.log(t1)
            frac = (logt - l0) / (l1 - l0)
            return math.exp(math.log(i0) + frac * (math.log(i1) - math.log(i0)))
    raise AssertionError("unreachable")


class TestRecloserCurveMath:
    def test_formula_oracle(self):
        # worked by hand: M = 5, D = 0.1
        # T = 19.61*0.1/(5**2 - 1) + 0.491*0.1 = 0.0817083333... + 0.0491
        st = RecloserSettings(pickup=2.0, time_dial=0.1)
        t = tci_time(VERY_INVERSE, st, 10.0)
        assert abs(t - (19.61 * 0.1 / 24.0 + 0.0491)) < 1e-12

    def test_no_operation_below_pickup(self):
        st = RecloserSettings(pickup=2.0, time_dial=0.5)
        assert tci_time(VERY_INVERSE, st, 1.9) == NO_OPERATION
        assert tci_time(VERY_INVERSE, st, 2.0) == NO_OPERATION
        assert tci_time(VERY_INVERSE, st, 0.0) == NO_OPERATION
        assert tci_time(VERY_INVERSE, st, -5.0) == NO_OPERATION

    def test_asymptote_is_high_current_limit(self):
        st = RecloserSettings(pickup=1.0, time_dial=0.7)
        floor = tci_asymptote(VERY_INVERSE, st)
        assert abs(floor - 0.491 * 0.7) < 1e-15
        assert abs(tci_time(VERY_INVERSE, st, 1e9) - floor) < 1e-12

    def test_overflowing_power_is_the_asymptote(self):
        # (I/Ip)**m past the float range: a*D/denom is 0, T = b*D + K, the
        # value the formula itself gives once the power is about 1e308
        tiny = RecloserSettings(pickup=1e-300, time_dial=0.5)
        assert tci_time(VERY_INVERSE, tiny, 1.0) == \
            tci_asymptote(VERY_INVERSE, tiny)
        st = RecloserSettings(pickup=1.0, time_dial=0.5)
        assert tci_time(VERY_INVERSE, st, 1e154) == \
            tci_asymptote(VERY_INVERSE, st)

    def test_monotone_decreasing_in_current(self):
        rng = np.random.default_rng(7)
        st = RecloserSettings(pickup=1.0, time_dial=0.5)
        for _ in range(100):
            i = float(rng.uniform(1.2, 50.0))
            h = 1e-6 * i
            slope = (tci_time(VERY_INVERSE, st, i + h)
                     - tci_time(VERY_INVERSE, st, i - h)) / (2 * h)
            assert slope < 0.0

    def test_monotone_increasing_in_dial(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            i = float(rng.uniform(1.5, 40.0))
            d0 = float(rng.uniform(0.1, 0.9))
            lo = RecloserSettings(pickup=1.0, time_dial=d0)
            hi = RecloserSettings(pickup=1.0, time_dial=d0 + 0.05)
            assert tci_time(VERY_INVERSE, hi, i) > tci_time(VERY_INVERSE, lo, i)

    def test_affine_in_dial(self):
        # T(D) at fixed current: three points must be collinear
        for i in (1.7, 3.0, 12.0, 80.0):
            times = [tci_time(VERY_INVERSE,
                              RecloserSettings(pickup=1.0, time_dial=d), i)
                     for d in (0.2, 0.5, 0.8)]
            residual = times[1] - 0.5 * (times[0] + times[2])
            assert abs(residual) < 1e-12

    def test_inversion_round_trip(self):
        st = RecloserSettings(pickup=1.5, time_dial=0.4)
        for t_target in (0.3, 0.5, 1.0, 4.0):
            i = invert_tci_for_current(VERY_INVERSE, st, t_target)
            assert abs(tci_time(VERY_INVERSE, st, i) - t_target) < 1e-9 * t_target

    def test_inversion_rejects_asymptote(self):
        st = RecloserSettings(pickup=1.0, time_dial=0.5)
        floor = tci_asymptote(VERY_INVERSE, st)
        with pytest.raises(CurveRangeError):
            invert_tci_for_current(VERY_INVERSE, st, floor)
        with pytest.raises(CurveRangeError):
            invert_tci_for_current(VERY_INVERSE, st, floor * 0.5)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            RecloserSettings(pickup=1.0, time_dial=0.05)
        with pytest.raises(ValueError):
            RecloserSettings(pickup=1.0, time_dial=1.2)
        with pytest.raises(ValueError):
            RecloserSettings(pickup=0.0, time_dial=0.5)

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            TCIConstants(a=0.0, b=0.1, c=1.0, m=2.0, K=0.0)
        with pytest.raises(ValueError):
            TCIConstants(a=1.0, b=-0.1, c=1.0, m=2.0, K=0.0)


class TestReclosingSequence:
    def _curve(self, tag, dial=0.5):
        return RecloserCurve(tag=tag, constants=VERY_INVERSE,
                             settings=RecloserSettings(pickup=1.0,
                                                       time_dial=dial))

    def test_pattern_must_match_tags(self):
        with pytest.raises(ValueError):
            ReclosingSequence(curves=(self._curve("fast"),), pattern="S")

    def test_coordinating_curve_prefers_fast(self):
        fast = self._curve("fast", 0.1)
        slow = self._curve("slow", 0.8)
        seq = ReclosingSequence(curves=(slow, fast, slow), pattern="S-F-S")
        assert seq.coordinating_curve is fast
        relay = ReclosingSequence(curves=(slow,), pattern="S")
        assert relay.coordinating_curve is slow
        assert not relay.has_fast()

    def test_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            RecloserCurve(tag="medium", constants=VERY_INVERSE,
                          settings=RecloserSettings(pickup=1.0, time_dial=0.5))

    def test_rejects_empty_sequence(self):
        with pytest.raises(ValueError):
            ReclosingSequence(curves=(), pattern="")


class TestFuseCurves:
    def _fuse(self):
        # exact power law t = 32/I**2, TC at 1.5x MM
        mm = tuple((i, 32.0 / i ** 2) for i in (2.0, 4.0, 8.0, 16.0))
        tc = tuple((i, 48.0 / i ** 2) for i in (2.0, 4.0, 8.0, 16.0))
        return FuseCurve(name="toy", mm_points=mm, tc_points=tc)

    def test_tabulated_points_exact(self):
        fuse = self._fuse()
        for i, t in fuse.mm_points:
            assert abs(fuse_time(fuse, i) - t) < 1e-12
            assert fuse.time_at(i) == fuse_time(fuse, i)

    def test_loglog_midpoint_is_geometric_mean(self):
        fuse = self._fuse()
        i_mid = math.sqrt(4.0 * 8.0)
        t_expect = math.sqrt((32.0 / 16.0) * (32.0 / 64.0))
        assert abs(fuse_time(fuse, i_mid) - t_expect) < 1e-12

    def test_below_band_no_operation(self):
        fuse = self._fuse()
        assert fuse_time(fuse, 1.9) == NO_OPERATION

    def test_above_band_clamps_with_flag(self):
        fuse = self._fuse()
        # above the last tabulated current the final time holds
        assert abs(fuse_time(fuse, 100.0) - 32.0 / 256.0) < 1e-12
        assert fuse_time(fuse, 100.0) == fuse.mm_points[-1][1]
        # inside the band the time still falls with current
        assert fuse_time(fuse, 10.0) > fuse.mm_points[-1][1]

    def test_inverse_round_trip(self):
        fuse = self._fuse()
        for t_target in (0.2, 1.0, 6.0):
            i = fuse_inverse_current(fuse, t_target)
            assert abs(fuse_time(fuse, i) - t_target) < 1e-9 * t_target

    def test_inverse_out_of_band(self):
        fuse = self._fuse()
        with pytest.raises(CurveRangeError):
            fuse_inverse_current(fuse, 100.0)
        with pytest.raises(CurveRangeError):
            fuse_inverse_current(fuse, 0.01)

    def test_curve_validation(self):
        mm = ((2.0, 8.0), (4.0, 2.0))
        with pytest.raises(ValueError):
            FuseCurve(name="bad", mm_points=((2.0, 8.0),), tc_points=mm)
        with pytest.raises(ValueError):
            FuseCurve(name="bad", mm_points=((4.0, 8.0), (2.0, 2.0)),
                      tc_points=mm)
        with pytest.raises(ValueError):
            FuseCurve(name="bad", mm_points=((2.0, 2.0), (4.0, 8.0)),
                      tc_points=mm)
        # MM slower than TC is inconsistent
        with pytest.raises(ValueError):
            FuseCurve(name="bad", mm_points=((2.0, 9.0), (4.0, 3.0)),
                      tc_points=mm)


def _knots_and_neighbours(values) -> list[float]:
    out = []
    for v in values:
        out += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    return out


def _log_uniform(lo: float, hi: float, n: int, seed: int) -> list[float]:
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n)).tolist()


def _inverse_or_error(fn, curve, t):
    try:
        return fn(curve, t)
    except CurveRangeError as exc:
        return str(exc)


class TestFuseTablesMatchReference:
    """The stored-log lookups return the reference's value bit for bit."""

    SAMPLES = 100_000

    @pytest.mark.parametrize("name", sorted(FUSES))
    def test_fuse_time(self, name):
        fuse = FUSES[name]
        cur = [i for i, _ in fuse.mm_points]
        xs = (_knots_and_neighbours(cur)
              + [0.0, -1.0, math.inf, math.nan]
              + _log_uniform(cur[0] / 2, cur[-1] * 2, self.SAMPLES, 1))
        ref = [reference_fuse_time(fuse, i) for i in xs]
        new = [fuse_time(fuse, i) for i in xs]
        assert np.array_equal(ref, new, equal_nan=True)

    @pytest.mark.parametrize("name", sorted(FUSES))
    def test_fuse_inverse_current(self, name):
        fuse = FUSES[name]
        tim = [t for _, t in fuse.mm_points]
        ts = (_knots_and_neighbours(tim) + [0.0, math.inf]
              + _log_uniform(tim[-1] / 1.1, tim[0] * 1.1, self.SAMPLES, 2))
        ref = [_inverse_or_error(reference_fuse_inverse_current, fuse, t)
               for t in ts]
        new = [_inverse_or_error(fuse_inverse_current, fuse, t) for t in ts]
        assert ref == new
        # a nan target is out of band now; the reference ran off its loop
        with pytest.raises(AssertionError, match="unreachable"):
            reference_fuse_inverse_current(fuse, math.nan)
        with pytest.raises(CurveRangeError, match="time nan s outside"):
            fuse_inverse_current(fuse, math.nan)

    def test_mm_above_tc_still_rejected(self):
        # the MM-vs-TC check interpolates through the same routine
        mm = ((2.0, 8.0), (4.0, 3.0), (8.0, 1.0))
        tc = ((2.0, 9.0), (3.0, 2.9), (8.0, 1.5))
        assert reference_fuse_time(FuseCurve("tc", tc, tc), 4.0) < 3.0
        with pytest.raises(ValueError, match="MM above TC at current 4.0"):
            FuseCurve(name="bad", mm_points=mm, tc_points=tc)


class TestDataFiles:
    def test_families_load(self):
        families = FAMILIES
        assert {"moderately_inverse", "very_inverse",
                "extremely_inverse"} <= set(families)
        for consts in families.values():
            assert consts.a > 0 and consts.m > 0

    def test_fuses_load_and_mm_below_tc(self):
        fuses = FUSES
        assert len(fuses) >= 2
        for fuse in fuses.values():
            # a curve whose MM table is this fuse's TC table reads TC
            tc = FuseCurve(fuse.name, fuse.tc_points, fuse.tc_points)
            for i, _ in fuse.mm_points:
                t_mm = fuse_time(fuse, i)
                t_tc = fuse_time(tc, i)
                assert t_mm <= t_tc + 1e-12

    def test_unknown_keys_rejected(self, tmp_path):
        bad = tmp_path / "families.json"
        bad.write_text('{"version": 1, "families": {}, "extras": {}}')
        with pytest.raises(ValueError, match="unknown keys"):
            netfile._table(bad, "families", netfile._FAMILY)
        bad_fuse = tmp_path / "fuses.json"
        bad_fuse.write_text('{"version": 1, "fuses": {"fx": {"mm": [[1, 2], '
                            '[2, 1]], "tc": [[1, 3], [2, 2]], "melt": []}}}')
        with pytest.raises(ValueError, match="unknown keys"):
            netfile._table(bad_fuse, "fuses", netfile._FUSE)

    @pytest.mark.parametrize("key, entry, error", [
        ("families", {"a": 1, "b": 0, "c": 1, "m": 2},
         "families.x: missing keys ['K']"),
        ("families", {"a": "19.61", "b": 0, "c": 1, "m": 2, "K": 0},
         "families.x: a must be a number, got '19.61'"),
        ("families", {"a": -1, "b": 0, "c": 1, "m": 2, "K": 0},
         "families.x: curve constants require a > 0 and m > 0"),
        ("fuses", {"mm": [[1, 2], [2, 1]]}, "fuses.x: missing keys ['tc']"),
        ("fuses", {"mm": [[1, 2], [2, "1"]], "tc": [[1, 3], [2, 2]]},
         "fuses.x.mm[1]: must be a [current, time] pair of numbers, got "
         "[2, '1']"),
        ("fuses", {"mm": [[1, 2], [2, 1]], "tc": [[1, 3, 0], [2, 2]]},
         "fuses.x.tc[0]: must be a [current, time] pair of numbers, got "
         "[1, 3, 0]"),
        ("fuses", {"mm": [[1, 2]], "tc": [[1, 3], [2, 2]]},
         "fuses.x: fuse x: mm needs >= 2 points")])
    def test_malformed_entry_names_file_and_entry(self, tmp_path, key, entry,
                                                  error):
        # the input error the commands exit 2 on; a shipped table's is
        # raised on import
        bad = tmp_path / "table.json"
        bad.write_text(json.dumps({"version": 1, key: {"x": entry}}))
        with pytest.raises(netfile.NetworkFileError) as exc:
            netfile._table(bad, key, {"families": netfile._FAMILY,
                                      "fuses": netfile._FUSE}[key])
        assert str(exc.value) == f"{bad}:{error}"
