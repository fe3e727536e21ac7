"""Time-current characteristics for reclosers and fuses.

Recloser trip time follows the inverse-curve form

    T(I) = a*D / ((I/Ip)**m - c) + b*D + K

with the five constants taken from a named curve family.  Fuse
minimum-melting (MM) and total-clearing (TC) characteristics are
tabulated point lists interpolated piecewise-linearly in log-log space.

A device that does not operate at a given current returns the
``NO_OPERATION`` sentinel (positive infinity) rather than raising, so
callers can feed results straight into min/compare logic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field

NO_OPERATION = math.inf
TIME_DIAL_MIN = 0.1  # the time-dial range of every recloser setting
TIME_DIAL_MAX = 1.0


class CurveRangeError(ValueError):
    """Requested time or current is outside the curve's reachable range."""


@dataclass(frozen=True)
class TCIConstants:
    """Inverse-curve constants (a, b, c, m, K)."""

    a: float
    b: float
    c: float
    m: float
    K: float

    def __post_init__(self):
        if self.a <= 0 or self.m <= 0:
            raise ValueError("curve constants require a > 0 and m > 0")
        if self.c < 0 or self.K < 0 or self.b < 0:
            raise ValueError("curve constants require b, c, K >= 0")


@dataclass(frozen=True)
class RecloserSettings:
    """Pickup current (per-unit) and time-dial setting."""

    pickup: float
    time_dial: float

    def __post_init__(self):
        if not TIME_DIAL_MIN <= self.time_dial <= TIME_DIAL_MAX:
            raise ValueError(f"time_dial {self.time_dial} outside "
                             f"[{TIME_DIAL_MIN}, {TIME_DIAL_MAX}]")
        if not 0 < self.pickup < math.inf:
            raise ValueError("pickup must be finite and > 0, "
                             f"got {self.pickup!r}")


@dataclass(frozen=True)
class RecloserCurve:
    """One curve of a reclosing sequence, tagged fast or slow."""

    tag: str  # "fast" | "slow"
    constants: TCIConstants
    settings: RecloserSettings

    def __post_init__(self):
        if self.tag not in ("fast", "slow"):
            raise ValueError(f"curve tag must be fast or slow, got {self.tag!r}")

    def time_at(self, i_fault: float) -> float:
        return tci_time(self.constants, self.settings, i_fault)

    def times_at(self, currents: Iterable[float]) -> list[float]:
        return tci_times(self.constants, self.settings, currents)


@dataclass(frozen=True)
class ReclosingSequence:
    curves: tuple[RecloserCurve, ...]
    pattern: str  # e.g. "F-F-S"

    def __post_init__(self):
        if not self.curves:
            raise ValueError("reclosing sequence needs at least one curve")
        tags = tuple("F" if c.tag == "fast" else "S" for c in self.curves)
        if self.pattern != "-".join(tags):
            raise ValueError(
                f"pattern {self.pattern!r} does not match curve tags {tags}"
            )

    @property
    def coordinating_curve(self) -> RecloserCurve:
        """First fast curve if present, else the first curve (relay case)."""
        for c in self.curves:
            if c.tag == "fast":
                return c
        return self.curves[0]

    def has_fast(self) -> bool:
        return any(c.tag == "fast" for c in self.curves)

    def fast_above_slow(self) -> float | None:
        """First test current (1.5-20x the top pickup) at which a fast
        curve trips after a slow one, or None.  Each curve is read at most
        once, at all five currents."""
        top = max(c.settings.pickup for c in self.curves)
        currents = [top * m for m in (1.5, 2.0, 5.0, 10.0, 20.0)]
        fast = [c.times_at(currents) for c in self.curves if c.tag == "fast"]
        if not fast:  # no fast curve to trip after a slow one
            return None
        slow = [c.times_at(currents) for c in self.curves if c.tag == "slow"]
        for k, i in enumerate(currents):
            t_fast = max((t[k] for t in fast), default=math.inf)
            if math.isfinite(t_fast) and any(t[k] < t_fast for t in slow):
                return i
        return None


def tci_time(constants: TCIConstants, settings: RecloserSettings,
             i_fault: float) -> float:
    """Trip time in seconds, or NO_OPERATION below the pickup region.

    The device does not operate when the current multiple M = I/Ip is at
    or below max(1, c**(1/m)), where the curve's denominator vanishes.
    """
    return tci_times(constants, settings, (i_fault,))[0]


def tci_times(constants: TCIConstants, settings: RecloserSettings,
              currents: Iterable[float]) -> list[float]:
    """tci_time at each current, with the curve's terms read once."""
    m, c, k = constants.m, constants.c, constants.K
    pickup, d = settings.pickup, settings.time_dial
    ad, bd = constants.a * d, constants.b * d
    times = []
    for i in currents:
        mult = i / pickup
        try:  # no trip at a multiple at or below 1, nor at a current <= 0
            denom = mult ** m - c if mult > 1.0 else 0.0
        except OverflowError:  # a*D/denom is 0: the b*D + K asymptote
            denom = math.inf
        times.append(NO_OPERATION if denom <= 0.0 else ad / denom + bd + k)
    return times


def tci_asymptote(constants: TCIConstants, settings: RecloserSettings) -> float:
    """High-current limit of the trip time: b*D + K."""
    return constants.b * settings.time_dial + constants.K


def invert_tci_for_current(constants: TCIConstants, settings: RecloserSettings,
                           t_target: float) -> float:
    """Unique current with tci_time(current) == t_target, closed form.

    Raises CurveRangeError when t_target is at or below the b*D + K
    asymptote, where no current reaches the requested time.
    """
    floor = tci_asymptote(constants, settings)
    if t_target <= floor:
        raise CurveRangeError(
            f"target time {t_target} s at or below curve asymptote {floor} s"
        )
    d = settings.time_dial
    mult = (constants.c + constants.a * d / (t_target - floor)) ** (1.0 / constants.m)
    return mult * settings.pickup


@dataclass(frozen=True)
class FuseCurve:
    """Tabulated MM and TC points, (current, time), log-log interpolated.

    Coordination reads the MM table; the TC table is checked against it.
    """

    name: str
    mm_points: tuple[tuple[float, float], ...]
    tc_points: tuple[tuple[float, float], ...]
    # MM currents, negated times and the logs of both, for bisect lookups
    mm_logs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        logs = {}
        for label, pts in (("mm", self.mm_points), ("tc", self.tc_points)):
            if len(pts) < 2:
                raise ValueError(f"fuse {self.name}: {label} needs >= 2 points")
            cur = tuple(p[0] for p in pts)
            tim = tuple(p[1] for p in pts)
            if any(c <= 0 for c in cur) or any(t <= 0 for t in tim):
                raise ValueError(f"fuse {self.name}: {label} points must be positive")
            if any(b <= a for a, b in zip(cur, cur[1:])):
                raise ValueError(f"fuse {self.name}: {label} currents must increase")
            if any(b >= a for a, b in zip(tim, tim[1:])):
                raise ValueError(f"fuse {self.name}: {label} times must decrease")
            logs[label] = (cur, tuple(-t for t in tim),
                           tuple(map(math.log, cur)), tuple(map(math.log, tim)))
        object.__setattr__(self, "mm_logs", logs["mm"])
        # MM melts no later than TC clears wherever both are defined
        lo = max(self.mm_points[0][0], self.tc_points[0][0])
        hi = min(self.mm_points[-1][0], self.tc_points[-1][0])
        knots = [i for i, _ in self.mm_points if lo <= i <= hi]
        for i, t_mm, t_tc in zip(knots, _table_times(logs["mm"], knots),
                                 _table_times(logs["tc"], knots)):
            if t_mm > t_tc:
                raise ValueError(f"fuse {self.name}: MM above TC at current {i}")

    def time_at(self, i_fault: float) -> float:
        return fuse_time(self, i_fault)

    def times_at(self, currents: Iterable[float]) -> list[float]:
        """fuse_time at each of a run of non-decreasing currents."""
        return _table_times(self.mm_logs, currents)


def _interp(log_x, log_y, k: int, logx: float) -> float:
    """Log-log interpolation on segment k of a table, from knot k to knot
    k + 1.  Its callers pick k as bisect_left(keys, key, 1, len(keys) -
    1) - 1: the first segment whose right knot's key (ascending) is at or
    above ``key``, the last one past the table."""
    l0, l1 = log_x[k], log_x[k + 1]
    frac = (logx - l0) / (l1 - l0)
    return math.exp(log_y[k] + frac * (log_y[k + 1] - log_y[k]))


def fuse_time(curve: FuseCurve, i_fault: float) -> float:
    """Minimum-melt time in seconds, from the MM table.

    Below the first tabulated current the fuse does not melt and
    NO_OPERATION is returned.  Above the last point the time is clamped
    to the final tabulated value.
    """
    cur, _, log_i, log_t = curve.mm_logs
    if i_fault < cur[0]:
        return NO_OPERATION
    if i_fault > cur[-1]:
        return curve.mm_points[-1][1]
    k = bisect_left(cur, i_fault, 1, len(cur) - 1) - 1
    return _interp(log_i, log_t, k, math.log(i_fault))


def _table_times(table, currents: Iterable[float]) -> list[float]:
    """A table's time at each of a run of non-decreasing currents, as
    fuse_time reads its MM table, in one pass: the segment fuse_time's
    bisect picks only moves right as the currents rise, so a walk on from
    the previous current's segment finds it."""
    cur, neg_t, log_i, log_t = table
    first, last, tail = cur[0], cur[-1], -neg_t[-1]
    k, top = 0, len(cur) - 2
    times = []
    for i in currents:
        if i < first:
            times.append(NO_OPERATION)
        elif i > last:
            times.append(tail)
        else:
            while k < top and cur[k + 1] < i:
                k += 1
            times.append(_interp(log_i, log_t, k, math.log(i)))
    return times


def fuse_inverse_current(curve: FuseCurve, t_target: float) -> float:
    """Current at which the fuse's minimum-melt time equals t_target.

    Times are strictly decreasing in current, so the inverse is unique
    over the tabulated band.  Out-of-band targets raise CurveRangeError.
    """
    points = curve.mm_points
    if not points[-1][1] <= t_target <= points[0][1]:
        raise CurveRangeError(
            f"fuse {curve.name}: time {t_target} s outside tabulated band "
            f"[{points[-1][1]}, {points[0][1]}]"
        )
    _, neg_t, log_i, log_t = curve.mm_logs
    k = bisect_left(neg_t, -t_target, 1, len(neg_t) - 1) - 1
    return _interp(log_t, log_i, k, math.log(t_target))
