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
        curve trips after a slow one, or None."""
        top = max(c.settings.pickup for c in self.curves)
        for i in (top * m for m in (1.5, 2.0, 5.0, 10.0, 20.0)):
            t_fast = max((c.time_at(i) for c in self.curves
                          if c.tag == "fast"), default=math.inf)
            if math.isfinite(t_fast) and any(
                    c.time_at(i) < t_fast for c in self.curves
                    if c.tag == "slow"):
                return i
        return None


def tci_time(constants: TCIConstants, settings: RecloserSettings,
             i_fault: float) -> float:
    """Trip time in seconds, or NO_OPERATION below the pickup region.

    The device does not operate when the current multiple M = I/Ip is at
    or below max(1, c**(1/m)), where the curve's denominator vanishes.
    """
    if i_fault <= 0:
        return NO_OPERATION
    mult = i_fault / settings.pickup
    try:
        denom = mult ** constants.m - constants.c
    except OverflowError:  # a*D/denom is 0 to double precision
        return tci_asymptote(constants, settings)
    if mult <= 1.0 or denom <= 0.0:
        return NO_OPERATION
    d = settings.time_dial
    return constants.a * d / denom + constants.b * d + constants.K


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
        mm, tc = logs["mm"], logs["tc"]
        for i, _ in self.mm_points:
            if lo <= i <= hi:
                logi = math.log(i)
                if (_interp(mm[0], mm[2], mm[3], i, logi)
                        > _interp(tc[0], tc[2], tc[3], i, logi)):
                    raise ValueError(
                        f"fuse {self.name}: MM above TC at current {i}"
                    )

    def time_at(self, i_fault: float) -> float:
        return fuse_time(self, i_fault)


def _interp(keys, log_x, log_y, key, logx: float) -> float:
    """Log-log interpolation on the first segment whose right knot's key
    (ascending) is at or above ``key``, the last one past the table."""
    k = bisect_left(keys, key, 1, len(keys) - 1) - 1
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
    return _interp(cur, log_i, log_t, i_fault, math.log(i_fault))


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
    return _interp(neg_t, log_t, log_i, -t_target, math.log(t_target))
