"""2-FeFET CAM cell: analog match windows and digital 0/1/X storage.

One FeFET gates on the search line and sets the window upper bound with its
threshold; the other gates on the inverted search line and sets the lower
bound at vdd minus its threshold.  The cell conducts (discharging the match
line) only when the search voltage falls outside the stored window.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import device
from .device import DeviceParams, FeFetState
from .errors import (EmptyWindowError, InvalidParameterError, OutOfRangeError,
                     check_int, check_real, real_array)


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
    query voltages sit well inside or outside them.  The inverted search line
    is the ideal complement vdd - v_sl, as program_analog assumes.
    """

    vdd: float = 1.0
    level_bounds: tuple = field(default_factory=_default_level_bounds)
    digital_margin: float = 0.3

    def __post_init__(self):
        check_real(self.vdd, "vdd", 0, open=True)
        try:  # text would be walked one character at a time
            if isinstance(self.level_bounds, (str, bytes)):
                raise TypeError
            bounds = tuple(self.level_bounds)
        except TypeError:
            raise InvalidParameterError(
                f"level_bounds must be a sequence of numbers, got {self.level_bounds!r}") from None
        if len(bounds) < 2:
            raise InvalidParameterError(f"need at least 2 level bounds, got {len(bounds)}")
        bounds = tuple(float(check_real(b, f"level_bounds[{i}]", 0, self.vdd))
                       for i, b in enumerate(bounds))
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise InvalidParameterError("level bounds must be strictly increasing")
        object.__setattr__(self, "level_bounds", bounds)
        check_real(self.digital_margin, "digital_margin", 0, self.vdd / 2, open=True)

    @property
    def level_count(self) -> int:
        return len(self.level_bounds) - 1


@dataclass(frozen=True)
class FecamCell:
    """A pair of FeFET states; analog and digital cells differ only in them."""

    upper_fet: FeFetState  # gate on SL, threshold = window upper bound
    lower_fet: FeFetState  # gate on inverted SL, threshold = vdd - lower bound


def inverter(v_sl, cfg: CellConfig):
    """Inverted search-line voltage: the ideal complement vdd - v_sl."""
    out = cfg.vdd - real_array(v_sl, "search-line voltages")
    return float(out) if out.ndim == 0 else out


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
    if not isinstance(bit, TernaryBit):  # a "1" would read as don't-care
        raise InvalidParameterError(f"not a TernaryBit: {bit!r}")
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
    if not isinstance(bit, TernaryBit):
        raise InvalidParameterError(f"not a TernaryBit: {bit!r}")
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


def match_window(cell: FecamCell, cfg: CellConfig, params: DeviceParams):
    """Measured matching interval: the span of the search voltages where the
    cell current at full match-line voltage stays below i_threshold.

    In x = 10**((v_sl - u) / S), u the upper threshold and S the slope, the
    cell matches where min(x, X) + min(c / x, X) < a: c = 10**((w - u) / S)
    with w = vdd - the lower threshold, X the on-current clamp in x, and
    a = 1 / vds_factor(vdd) - 2 i_off / i_threshold.  Every edge is a root of
    one branch of that sum (x**2 - a x + c = 0, x = X, c / x = X, x = a - X,
    c / x = a - X), so the law is read once between consecutive roots.
    Returns (lower, upper) in volts, the ends of the first and last pieces
    that match, or None when none does (a valid outcome for degenerate
    programming).
    """
    u, s, vdd = cell.upper_fet.vth, params.subthreshold_slope, cfg.vdd
    a = max(params.v_dsat / vdd, 1.0) - 2.0 * params.i_off / params.i_threshold
    clamp = (params.i_on - params.i_off) / params.i_threshold  # X
    # a - X exactly: near a = X their float difference cancels, and a 0 there
    # would drop the whole quiet piece below x = a - X
    v_dsat, v_dd, i_on, i_off, i_t = (Fraction(float(x)) for x in (
        params.v_dsat, vdd, params.i_on, params.i_off, params.i_threshold))
    gap = max(v_dsat / v_dd, 1) - (i_on + i_off) / i_t
    with np.errstate(all="ignore"):  # roots past the float range fall outside [0, vdd]
        log_c = np.float64(vdd - cell.lower_fet.vth - u) / s
        log_x = [np.log10(clamp)]
        if gap > 0:  # x + X = a; its log from integers, as its float can overflow
            log_x.append(math.log10(gap.numerator) - math.log10(gap.denominator))
        if a > 0 and log_c <= 2.0 * np.log10(a / 2.0):  # x**2 - a x + c has real roots
            log_x.append(np.log10((a + np.sqrt(a * a - 4.0 * 10.0 ** log_c)) / 2.0))
        log_x += [log_c - t for t in log_x]  # the same branches in c / x
        roots = u + s * np.array(log_x)
    edges = np.unique(np.concatenate(([0.0, vdd], np.clip(roots[~np.isnan(roots)], 0.0, vdd))))
    middles = (edges[:-1] + edges[1:]) / 2.0
    quiet = np.flatnonzero(cell_current(cell, middles, vdd, cfg, params) < params.i_threshold)
    if quiet.size == 0:
        return None
    return float(edges[quiet[0]]), float(edges[quiet[-1] + 1])


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
