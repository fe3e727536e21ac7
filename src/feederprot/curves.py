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

import json
import math
from dataclasses import dataclass
from importlib import resources

NO_OPERATION = math.inf

CURVE_DATA_FILE = "curve_families.json"


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
        if not 0.1 <= self.time_dial <= 1.0:
            raise ValueError(f"time_dial {self.time_dial} outside [0.1, 1.0]")
        if self.pickup <= 0:
            raise ValueError("pickup must be positive")


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


def tci_time(constants: TCIConstants, settings: RecloserSettings,
             i_fault: float) -> float:
    """Trip time in seconds, or NO_OPERATION below the pickup region.

    The device does not operate when the current multiple M = I/Ip is at
    or below max(1, c**(1/m)), where the curve's denominator vanishes.
    """
    if i_fault <= 0:
        return NO_OPERATION
    mult = i_fault / settings.pickup
    denom = mult ** constants.m - constants.c
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
    """Tabulated MM and TC points, (current, time), log-log interpolated."""

    name: str
    mm_points: tuple[tuple[float, float], ...]
    tc_points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for label, pts in (("mm", self.mm_points), ("tc", self.tc_points)):
            if len(pts) < 2:
                raise ValueError(f"fuse {self.name}: {label} needs >= 2 points")
            cur = [p[0] for p in pts]
            tim = [p[1] for p in pts]
            if any(c <= 0 for c in cur) or any(t <= 0 for t in tim):
                raise ValueError(f"fuse {self.name}: {label} points must be positive")
            if any(b <= a for a, b in zip(cur, cur[1:])):
                raise ValueError(f"fuse {self.name}: {label} currents must increase")
            if any(b >= a for a, b in zip(tim, tim[1:])):
                raise ValueError(f"fuse {self.name}: {label} times must decrease")
        # MM melts no later than TC clears wherever both are defined
        lo = max(self.mm_points[0][0], self.tc_points[0][0])
        hi = min(self.mm_points[-1][0], self.tc_points[-1][0])
        for i, _ in self.mm_points:
            if lo <= i <= hi:
                if _interp_loglog(self.mm_points, i) > _interp_loglog(self.tc_points, i):
                    raise ValueError(
                        f"fuse {self.name}: MM above TC at current {i}"
                    )


def _interp_loglog(points, i_fault: float) -> float:
    """Piecewise-linear interpolation in (log I, log t); no range checks."""
    logi = math.log(i_fault)
    for (i0, t0), (i1, t1) in zip(points, points[1:]):
        if i_fault <= i1 or (i1, t1) == points[-1]:
            l0, l1 = math.log(i0), math.log(i1)
            frac = (logi - l0) / (l1 - l0)
            return math.exp(math.log(t0) + frac * (math.log(t1) - math.log(t0)))
    raise AssertionError("unreachable")


def fuse_time(curve: FuseCurve, which: str, i_fault: float) -> float:
    """Melt/clear time in seconds.

    Below the first tabulated current the fuse does not melt and
    NO_OPERATION is returned.  Above the last point the time is clamped
    to the final tabulated value.
    """
    if which not in ("mm", "tc"):
        raise ValueError(f"fuse curve selector must be mm or tc, got {which!r}")
    points = curve.mm_points if which == "mm" else curve.tc_points
    if i_fault < points[0][0]:
        return NO_OPERATION
    if i_fault > points[-1][0]:
        return points[-1][1]
    return _interp_loglog(points, i_fault)


def fuse_inverse_current(curve: FuseCurve, which: str, t_target: float) -> float:
    """Current at which the fuse's tabulated time equals t_target.

    Times are strictly decreasing in current, so the inverse is unique
    over the tabulated band.  Out-of-band targets raise CurveRangeError.
    """
    points = curve.mm_points if which == "mm" else curve.tc_points
    if which not in ("mm", "tc"):
        raise ValueError(f"fuse curve selector must be mm or tc, got {which!r}")
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


def load_curve_families(path=None) -> dict[str, TCIConstants]:
    """Read the named curve-family constants from the versioned data file."""
    if path is None:
        raw = resources.files("feederprot.data").joinpath(CURVE_DATA_FILE).read_text()
    else:
        with open(path) as fh:
            raw = fh.read()
    doc = json.loads(raw)
    unknown = set(doc) - {"version", "families"}
    if unknown:
        raise ValueError(f"curve data file: unknown keys {sorted(unknown)}")
    families = {}
    for name, consts in doc["families"].items():
        extra = set(consts) - {"a", "b", "c", "m", "K"}
        if extra:
            raise ValueError(f"curve family {name}: unknown keys {sorted(extra)}")
        families[name] = TCIConstants(**consts)
    return families


def load_fuse_curves(path=None) -> dict[str, FuseCurve]:
    """Read the fuse table file (id -> MM/TC point lists)."""
    if path is None:
        raw = resources.files("feederprot.data").joinpath("fuse_curves.json").read_text()
    else:
        with open(path) as fh:
            raw = fh.read()
    doc = json.loads(raw)
    unknown = set(doc) - {"version", "fuses"}
    if unknown:
        raise ValueError(f"fuse data file: unknown keys {sorted(unknown)}")
    fuses = {}
    for name, spec in doc["fuses"].items():
        extra = set(spec) - {"mm", "tc"}
        if extra:
            raise ValueError(f"fuse {name}: unknown keys {sorted(extra)}")
        fuses[name] = FuseCurve(
            name=name,
            mm_points=tuple((float(i), float(t)) for i, t in spec["mm"]),
            tc_points=tuple((float(i), float(t)) for i, t in spec["tc"]),
        )
    return fuses
