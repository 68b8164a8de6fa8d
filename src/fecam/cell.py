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
                     check_int, check_real, require_finite)

MIN_RESOLUTION = 1e-12  # of vdd: far above the float spacing a bisection reaches


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
    windows, at least two, so L = level_count = len(level_bounds) - 1.  vdd is
    the one supply: search lines and match-line precharge.  digital_margin
    sets the closed edge of the digital one/zero windows so the 0 V / vdd
    query voltages sit well inside or outside them.  inverter_gain selects an optional smooth inverted-SL
    transfer curve; the default None is the ideal complement vdd - v_sl.
    """

    vdd: float = 1.0
    level_bounds: tuple = field(default_factory=_default_level_bounds)
    digital_margin: float = 0.3
    inverter_gain: float | None = None

    def __post_init__(self):
        try:
            bounds = tuple(float(b) for b in self.level_bounds)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"level_bounds must be numbers: {exc}") from None
        object.__setattr__(self, "level_bounds", bounds)
        require_finite(self)
        check_real(self.vdd, "vdd", 0, open=True)
        if len(bounds) < 2:
            raise InvalidParameterError(f"need at least 2 level bounds, got {len(bounds)}")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvalidParameterError("level bounds must be strictly increasing")
        for end in (bounds[0], bounds[-1]):
            check_real(end, "level bounds", 0, self.vdd)
        check_real(self.digital_margin, "digital_margin", 0, self.vdd / 2, open=True)
        if self.inverter_gain is not None:
            check_real(self.inverter_gain, "inverter_gain", 0, open=True)

    @property
    def level_count(self) -> int:
        return len(self.level_bounds) - 1


@dataclass(frozen=True)
class FecamCell:
    """A pair of FeFET states; analog and digital cells differ only in them."""

    upper_fet: FeFetState  # gate on SL, threshold = window upper bound
    lower_fet: FeFetState  # gate on inverted SL, threshold = vdd - lower bound


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
    check_real(lower, "window lower end", 0.0, np.inf, OutOfRangeError)
    check_real(upper, "window upper end", -np.inf, cfg.vdd, OutOfRangeError)
    if lower >= upper:
        raise EmptyWindowError(f"empty window: lower {lower} V >= upper {upper} V")
    try:
        upper_fet = device.state_for_vth(params, upper)
        lower_fet = device.state_for_vth(params, cfg.vdd - lower)
    except OutOfRangeError as exc:
        raise OutOfRangeError(f"window [{lower}, {upper}] V not programmable: {exc}")
    return FecamCell(upper_fet=upper_fet, lower_fet=lower_fet)


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
    return FecamCell(upper_fet=upper_fet, lower_fet=lower_fet)


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


def match_window(cell: FecamCell, cfg: CellConfig, params: DeviceParams,
                 resolution: float = 1e-3):
    """Measured matching interval: v_sl where the cell current stays below
    the turn-on criterion at full match-line voltage.

    Scans the search range, then bisects each edge down to the resolution,
    from MIN_RESOLUTION * vdd to vdd.  Returns (lower, upper) in volts, or
    None when no search voltage matches (a valid outcome for degenerate
    programming).
    """
    check_real(resolution, "resolution", MIN_RESOLUTION * cfg.vdd, cfg.vdd)
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
    level = check_int(level, "level", 0, cfg.level_count - 1, OutOfRangeError)
    b = cfg.level_bounds
    return 0.5 * (b[level] + b[level + 1])


def program_level_window(lo_level: int, hi_level: int, cfg: CellConfig,
                         params: DeviceParams) -> FecamCell:
    """Cell matching the quantized levels lo_level..hi_level inclusive."""
    top = cfg.level_count - 1
    lo_level = check_int(lo_level, "lo_level", 0, top, OutOfRangeError)
    hi_level = check_int(hi_level, "hi_level", lo_level, top, OutOfRangeError)
    b = cfg.level_bounds
    return program_analog(b[lo_level], b[hi_level + 1], cfg, params)
