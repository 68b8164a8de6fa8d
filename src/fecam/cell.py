"""2-FeFET CAM cell: analog match windows and digital 0/1/X storage.

One FeFET gates on the search line and sets the window upper bound with its
threshold; the other gates on the inverted search line and sets the lower
bound at vdd minus its threshold.  The cell conducts (discharging the match
line) only when the search voltage falls outside the stored window.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import device
from .device import DeviceParams, FeFetState
from .errors import (EmptyWindowError, InvalidParameterError, OutOfRangeError,
                     require_finite)


class CellMode(enum.Enum):
    ANALOG = "analog"
    DIGITAL = "digital"


class TernaryBit(enum.Enum):
    ZERO = "0"
    ONE = "1"
    DONT_CARE = "X"

    @classmethod
    def from_char(cls, char: str) -> "TernaryBit":
        try:
            return cls(char.upper())
        except ValueError:
            raise InvalidParameterError(f"not a ternary bit: {char!r}") from None


def _default_level_bounds() -> tuple:
    return tuple(round(0.1 + 0.1 * k, 10) for k in range(9))


@dataclass(frozen=True)
class CellConfig:
    """Cell-level electrical configuration.

    level_bounds are the fence-posts b_0 < ... < b_L of the quantized match
    windows (L = level_count); digital_margin sets the closed edge of the
    digital one/zero windows so the 0 V / vdd query voltages sit well inside
    or outside them.  inverter_gain selects an optional smooth inverted-SL
    transfer curve; the default None is the ideal complement vdd - v_sl.
    """

    vdd: float = 1.0
    level_count: int = 8
    level_bounds: tuple = field(default_factory=_default_level_bounds)
    digital_margin: float = 0.3
    inverter_gain: float | None = None

    def __post_init__(self):
        bounds = tuple(float(b) for b in self.level_bounds)
        object.__setattr__(self, "level_bounds", bounds)
        require_finite(self)
        if self.vdd <= 0:
            raise InvalidParameterError("vdd must be positive")
        if len(bounds) != self.level_count + 1:
            raise InvalidParameterError(
                f"need {self.level_count + 1} level bounds, got {len(bounds)}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvalidParameterError("level bounds must be strictly increasing")
        if bounds[0] < 0 or bounds[-1] > self.vdd:
            raise InvalidParameterError("level bounds must lie within [0, vdd]")
        if not 0 < self.digital_margin < self.vdd / 2:
            raise InvalidParameterError("digital_margin must be in (0, vdd/2)")
        if self.inverter_gain is not None and not self.inverter_gain > 0:
            raise InvalidParameterError(
                f"inverter_gain must be positive, got {self.inverter_gain}")


@dataclass(frozen=True)
class FecamCell:
    """A pair of FeFET states plus the operating mode they encode."""

    upper_fet: FeFetState  # gate on SL, threshold = window upper bound
    lower_fet: FeFetState  # gate on inverted SL, threshold = vdd - lower bound
    mode: CellMode = CellMode.ANALOG


def inverter(v_sl, cfg: CellConfig):
    """Inverted search-line voltage.

    Ideal complement by default; with inverter_gain set, a smooth monotone
    curve with the same endpoints (steeper around vdd/2 for higher gain).
    """
    v = np.asarray(v_sl, dtype=float)
    if cfg.inverter_gain is None:
        out = cfg.vdd - v
    else:
        g = cfg.inverter_gain
        half = cfg.vdd / 2.0
        out = half - half * np.tanh(g * (v - half)) / np.tanh(g * half)
    if np.ndim(v_sl) == 0:
        return float(out)
    return out


def program_analog(lower: float, upper: float, cfg: CellConfig,
                   params: DeviceParams) -> FecamCell:
    """Cell matching exactly the window [lower, upper] of search voltages."""
    if not (0.0 <= lower and upper <= cfg.vdd):
        raise OutOfRangeError(
            f"window [{lower}, {upper}] V outside search range [0, {cfg.vdd}] V")
    if lower >= upper:
        raise EmptyWindowError(f"empty window: lower {lower} V >= upper {upper} V")
    try:
        upper_fet = device.state_for_vth(params, upper)
        lower_fet = device.state_for_vth(params, cfg.vdd - lower)
    except OutOfRangeError as exc:
        raise OutOfRangeError(f"window [{lower}, {upper}] V not programmable: {exc}")
    return FecamCell(upper_fet=upper_fet, lower_fet=lower_fet, mode=CellMode.ANALOG)


def program_digital(bit: TernaryBit, cfg: CellConfig,
                    params: DeviceParams) -> FecamCell:
    """Cell storing a digital 0/1/X for query voltages {0, vdd}.

    The blocking FeFET of a one/zero is programmed to the digital boundary
    level (digital_margin); the open side stays erased so the matching query
    voltage sits strictly inside the window.  Don't-care leaves both erased.
    """
    boundary = device.state_for_vth(params, cfg.digital_margin)
    erased = device.state_for_vth(params, params.vth_high)
    if bit is TernaryBit.ONE:
        upper_fet, lower_fet = erased, boundary   # window [vdd - margin, open)
    elif bit is TernaryBit.ZERO:
        upper_fet, lower_fet = boundary, erased   # window (open, margin]
    else:
        upper_fet = lower_fet = erased            # matches the full query range
    return FecamCell(upper_fet=upper_fet, lower_fet=lower_fet, mode=CellMode.DIGITAL)


def digital_query_voltage(bit: TernaryBit, cfg: CellConfig) -> float:
    """Search voltage encoding a digital query bit."""
    if bit is TernaryBit.ONE:
        return cfg.vdd
    if bit is TernaryBit.ZERO:
        return 0.0
    raise InvalidParameterError("queries carry only 0/1, not don't-care")


def cell_current(cell: FecamCell, v_sl, v_ml, cfg: CellConfig,
                 params: DeviceParams):
    """Total match-line discharge current drawn by the cell."""
    return (device.drain_current(params, v_sl, v_ml, cell.upper_fet.vth)
            + device.drain_current(params, inverter(v_sl, cfg), v_ml,
                                   cell.lower_fet.vth))


def window_lower(cell: FecamCell, cfg: CellConfig) -> float:
    return cfg.vdd - cell.lower_fet.vth


def window_upper(cell: FecamCell) -> float:
    return cell.upper_fet.vth


def match_window(cell: FecamCell, cfg: CellConfig, params: DeviceParams,
                 resolution: float = 1e-3):
    """Measured matching interval: v_sl where the cell current stays below
    the turn-on criterion at full match-line voltage.

    Scans the search range, then bisects each edge down to the resolution.
    Returns (lower, upper) in volts, or None when no search voltage matches
    (a valid outcome for degenerate programming).
    """
    if not 0.0 < resolution < np.inf:
        raise InvalidParameterError(f"resolution must be positive, got {resolution}")
    grid = np.arange(0.0, cfg.vdd + resolution / 2, 2e-3)
    currents = cell_current(cell, grid, cfg.vdd, cfg, params)
    matching = np.flatnonzero(currents < params.i_threshold)
    if matching.size == 0:
        return None

    def matches(v):
        return cell_current(cell, v, cfg.vdd, cfg, params) < params.i_threshold

    def bisect(lo, hi, want_inside_high):
        # invariant: exactly one endpoint matches; shrink to the resolution
        while hi - lo > resolution / 2:
            mid = 0.5 * (lo + hi)
            if matches(mid) == want_inside_high:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    first, last = grid[matching[0]], grid[matching[-1]]
    lower = 0.0 if matches(0.0) else bisect(max(first - 2e-3, 0.0), first, True)
    upper = (cfg.vdd if matches(cfg.vdd)
             else bisect(last, min(last + 2e-3, cfg.vdd), False))
    return lower, upper


def quantized_levels(cfg: CellConfig):
    """The adjacent level windows [b_k, b_{k+1}) defined by the fence-posts."""
    b = cfg.level_bounds
    return [(b[k], b[k + 1]) for k in range(cfg.level_count)]


def level_center(level: int, cfg: CellConfig) -> float:
    """Search voltage encoding a quantized level (window midpoint)."""
    if not 0 <= level < cfg.level_count:
        raise OutOfRangeError(
            f"level {level} outside [0, {cfg.level_count - 1}]")
    b = cfg.level_bounds
    return 0.5 * (b[level] + b[level + 1])


def program_level_window(lo_level: int, hi_level: int, cfg: CellConfig,
                         params: DeviceParams) -> FecamCell:
    """Cell matching the quantized levels lo_level..hi_level inclusive."""
    if not (0 <= lo_level <= hi_level < cfg.level_count):
        raise OutOfRangeError(
            f"level range [{lo_level}, {hi_level}] outside "
            f"[0, {cfg.level_count - 1}]")
    b = cfg.level_bounds
    return program_analog(b[lo_level], b[hi_level + 1], cfg, params)
