"""R x C CAM array: row-wise writes with half-voltage inhibition, precharge
plus match-line discharge, sensing, and column-adapted search time.

The match line of each row is modeled as a lumped capacitance discharged by
the sum of its cells' currents.  Because both FeFETs of a cell share the
match-line voltage as their drain voltage, the row current factors into a
query-dependent static part times a common drain-saturation factor
min(V / v_dsat, 1).  The discharge then has an exact closed form, a linear
fall to the saturation knee followed by an exponential decay, so identical
inputs give bit-identical results.

The static part is factored: a subthreshold term i_th 10^((v - vth)/S) is
(i_th e^(k v)) e^(-k vth) with k = ln10/S, so each array keeps its threshold
factors e^(-k vth) and each query takes one factor per search line, leaving
one product per FeFET.  Queries go through in blocks of about BLOCK_CELLS
FeFET currents in one reused buffer, so a batch search needs memory that
grows with queries x (rows + cols), not queries x rows x cols.  Where a
factor could overflow exp (slopes of a few mV/decade), the same blocks take
the direct form e^(k (v - vth)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import device
from .cell import CellConfig, CellMode, FecamCell, inverter
from .device import DeviceParams, WritePulse
from .errors import (DimensionMismatchError, DisturbViolationError,
                     InvalidParameterError, OutOfRangeError, require_finite)

TRACE_POINTS = 1001       # samples of a recorded match-line transient
BLOCK_CELLS = 1 << 14     # FeFET currents per block of a batch search (128 KB)
EXP_LIMIT = 700.0         # largest exponent the factored kernel may form
SIZE_GUIDELINE = 64       # beyond this, drivers need resizing; warn only
DISTURB_LIMIT = 2.0       # V, max tolerable unselected gate-source magnitude


@dataclass(frozen=True)
class MatchLineParams:
    """Match-line electrical parameters.

    Capacitance defaults are back-solved so a single-column line discharges
    through the sense boundary in 10 ns at the 25 nA average cell current.
    """

    c_pmos: float = 0.10e-15       # F, precharge transistor drain capacitance
    c_drain: float = 0.35e-15      # F, per-cell total drain capacitance
    c_parasitic: float = 0.05e-15  # F, per-cell interconnect capacitance
    delta_v_ml: float = 0.5        # V, sense boundary drop
    i_discharge_avg: float = 25e-9 # A, average per-cell discharge current
    vdd: float = 1.0               # V, precharge level

    def __post_init__(self):
        require_finite(self)
        if min(self.c_pmos, self.c_drain, self.c_parasitic) <= 0:
            raise InvalidParameterError("capacitances must be positive")
        if not 0 < self.delta_v_ml < self.vdd:
            raise InvalidParameterError("delta_v_ml must be in (0, vdd)")
        if self.i_discharge_avg <= 0:
            raise InvalidParameterError("i_discharge_avg must be positive")


def ml_capacitance(p: MatchLineParams, n_cols: int) -> float:
    """Lumped match-line capacitance of a row with n_cols cells."""
    if n_cols < 0:
        raise InvalidParameterError("n_cols must be >= 0")
    return p.c_pmos + n_cols * (p.c_drain + p.c_parasitic)


def discharge_time(p: MatchLineParams, n_cols: int) -> float:
    """Time for the match line to drop by the sense boundary when all n_cols
    cells discharge at the average current; used as the auto search time."""
    if n_cols < 1:
        raise InvalidParameterError("n_cols must be >= 1")
    return ml_capacitance(p, n_cols) * p.delta_v_ml / (n_cols * p.i_discharge_avg)


def sense(v_ml_at_t: float, p: MatchLineParams) -> bool:
    """Threshold-comparator sense amplifier; boundary equality is a mismatch.
    Applies elementwise to an array of voltages."""
    return v_ml_at_t > p.vdd - p.delta_v_ml


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one array search: per-row match flags and ML transients."""

    matches: tuple            # one bool per row
    sense_time: float         # s
    times: np.ndarray         # (n_points,) s
    ml_voltages: np.ndarray   # (n_points, rows) V

    def row_trace(self, row: int):
        return list(zip(self.times.tolist(), self.ml_voltages[:, row].tolist()))


@dataclass(frozen=True)
class DisturbReport:
    """Worst gate-source magnitude seen by each unselected cell during a write."""

    target_row: int
    magnitudes: np.ndarray    # (rows, cols) V, nan on the selected row

    @property
    def max_unselected(self) -> float:
        if np.all(np.isnan(self.magnitudes)):
            return 0.0
        return float(np.nanmax(self.magnitudes))

    @property
    def ok(self) -> bool:
        return self.max_unselected <= DISTURB_LIMIT + 1e-12


@dataclass(frozen=True)
class WritePlan:
    """One row-wise write phase.

    Each column carries an optional pulse for the SL-gated FeFET and one for
    the inverted-SL-gated FeFET (None leaves that device untouched).  The
    selected row's sources are grounded; unselected rows are inhibited at
    plus or minus half the maximum write voltage.
    """

    target_row: int
    sl_pulses: tuple          # per column, WritePulse or None
    isl_pulses: tuple         # per column, WritePulse or None
    source_bias: tuple        # per row, V; 0 on the target row

    def __post_init__(self):
        object.__setattr__(self, "sl_pulses", tuple(self.sl_pulses))
        object.__setattr__(self, "isl_pulses", tuple(self.isl_pulses))
        object.__setattr__(self, "source_bias", tuple(float(b) for b in self.source_bias))
        if len(self.sl_pulses) != len(self.isl_pulses):
            raise DimensionMismatchError(
                f"{len(self.sl_pulses)} SL pulses vs {len(self.isl_pulses)} "
                "inverted-SL pulses")
        for pulse in (*self.sl_pulses, *self.isl_pulses):
            if pulse is not None and abs(pulse.amplitude) > 4.0 + 1e-12:
                raise InvalidParameterError(
                    f"write pulse amplitude {pulse.amplitude} V exceeds 4 V")
        for row, bias in enumerate(self.source_bias):
            if row == self.target_row:
                if bias != 0.0:
                    raise InvalidParameterError("selected row source must be grounded")
            elif bias not in (DISTURB_LIMIT, -DISTURB_LIMIT, 0.0):
                raise InvalidParameterError(
                    f"unselected source bias must be 0 or +-{DISTURB_LIMIT} V, "
                    f"got {bias} V")


@dataclass(frozen=True)
class FecamArray:
    """Grid of cells plus the electrical context shared by every row."""

    cells: tuple              # rows x cols of FecamCell
    ml_params: MatchLineParams
    cfg: CellConfig
    params: DeviceParams

    def __post_init__(self):
        grid = tuple(tuple(row) for row in self.cells)
        object.__setattr__(self, "cells", grid)
        if len(grid) < 1 or len(grid[0]) < 1:
            raise InvalidParameterError("array needs at least 1 row and 1 column")
        if any(len(row) != len(grid[0]) for row in grid):
            raise InvalidParameterError("ragged cell grid")
        if abs(self.cfg.vdd - self.ml_params.vdd) > 1e-12:
            raise InvalidParameterError(
                "cell and match-line supplies differ "
                f"({self.cfg.vdd} V vs {self.ml_params.vdd} V)")
        if len(grid) > SIZE_GUIDELINE:
            warnings.warn(
                f"{len(grid)} rows exceeds {SIZE_GUIDELINE}; search-line "
                "parasitics would demand stronger drivers", RuntimeWarning)
        if len(grid[0]) > SIZE_GUIDELINE:
            warnings.warn(
                f"{len(grid[0])} columns exceeds {SIZE_GUIDELINE}; precharging "
                "the match line would demand a stronger driver", RuntimeWarning)

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @classmethod
    def filled(cls, rows: int, cols: int, cell: FecamCell,
               ml_params: MatchLineParams, cfg: CellConfig,
               params: DeviceParams) -> "FecamArray":
        grid = tuple(tuple(cell for _ in range(cols)) for _ in range(rows))
        return cls(cells=grid, ml_params=ml_params, cfg=cfg, params=params)

    def auto_sense_time(self) -> float:
        return discharge_time(self.ml_params, self.cols)

    @cached_property
    def _thresholds(self):
        """Current-kernel operands, gathered once (the array is frozen and
        writes build a new one, so they cannot go stale): the thresholds,
        (rows, 2 cols), each row's upper FeFETs then its lower ones, and
        their factors from `_threshold_factors`."""
        vth = np.array([[c.upper_fet.vth for c in row] + [c.lower_fet.vth for c in row]
                        for row in self.cells])
        return vth, _threshold_factors(vth, self.params, self.cfg.vdd)


def _threshold_factors(vth: np.ndarray, params: DeviceParams, vdd: float):
    """e^(-k vth) with k = ln10 / subthreshold slope, or None when a factor
    or the product of one with a query factor e^(k v), 0 <= v <= vdd, could
    overflow exp; the kernel then takes the direct form."""
    k = np.log(10.0) / params.subthreshold_slope
    if not k * (vdd + np.abs(vth).max()) < EXP_LIMIT:
        return None
    return np.exp(-k * vth)


def _static_row_currents(vth: np.ndarray, factors, cfg: CellConfig,
                         params: DeviceParams, queries: np.ndarray) -> np.ndarray:
    """Summed full-drive cell currents per (query, row); shape (S, R).

    vth and factors are as in `FecamArray._thresholds`.  Each FeFET adds
    i_off + min(i_th e^(k (v - vth)), i_on - i_off), which is
    `device.saturated_current`; the queries go through in blocks of about
    BLOCK_CELLS FeFET currents, at least one query each.
    """
    k = np.log(10.0) / params.subthreshold_slope
    cap = params.i_on - params.i_off
    rows, fets = vth.shape
    block = max(1, BLOCK_CELLS // (rows * fets))
    buf = np.empty((min(block, len(queries)), rows, fets))
    out = np.empty((len(queries), rows))
    ones = np.ones(fets)
    for start in range(0, len(queries), block):
        q = queries[start:start + block]
        v = np.concatenate((q, inverter(q, cfg)), axis=1)[:, None, :]
        cells = buf[:len(q)]
        if factors is not None:
            np.multiply(params.i_threshold * np.exp(k * v), factors, out=cells)
        else:  # exponent clamped at the on-current, so exp cannot overflow
            np.subtract(v, vth, out=cells)
            cells *= k
            np.minimum(cells, np.log(cap / params.i_threshold), out=cells)
            np.exp(cells, out=cells)
            cells *= params.i_threshold
        np.minimum(cells, cap, out=cells)
        np.matmul(cells, ones, out=out[start:start + len(q)])
    out += fets * params.i_off
    return out


def _ml_voltage(p: MatchLineParams, v_dsat: float, n_cols: int,
                static_currents: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact V_ML(times) for C_ML dV/dt = -I_static min(V/v_dsat, 1), V(0) = vdd,
    shaped times.shape + static_currents.shape.  Nothing divides by the
    current, so a row whose current underflows to 0 stays at vdd.

    With lin = vdd - I t / C the linear fall, the line past the knee is
    knee e^((lin - knee)/v_dsat).  Before the knee (lin >= knee) that term,
    exponent capped at 0, is knee <= lin; past it, e^x >= 1 + x and
    knee <= v_dsat keep it at or above lin.  So the larger of the two is the
    solution on both branches."""
    lin = np.multiply.outer(times, static_currents / ml_capacitance(p, n_cols))
    np.subtract(p.vdd, lin, out=lin)
    knee = min(p.vdd, v_dsat)
    decayed = lin - knee
    np.minimum(decayed, 0.0, out=decayed)
    decayed /= v_dsat
    np.exp(decayed, out=decayed)
    decayed *= knee
    return np.maximum(lin, decayed, out=lin)


def _checked(arr: FecamArray, queries, t_sense):
    """Validated (n_queries, cols) voltages and sense time; t_sense None
    selects the column-adapted auto time."""
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != arr.cols:
        raise DimensionMismatchError(
            f"queries of shape {q.shape} do not match {arr.cols} columns")
    if not ((q >= 0.0) & (q <= arr.cfg.vdd)).all():  # NaN fails as well
        raise OutOfRangeError(f"query voltages must lie in [0, {arr.cfg.vdd}] V")
    t = arr.auto_sense_time() if t_sense is None else float(t_sense)
    if not 0.0 < t < np.inf:
        raise InvalidParameterError(f"t_sense must be positive and finite, got {t}")
    return q, t


def _search_rows(arr: FecamArray, queries, t_sense, rows=slice(None), trace=False):
    """The one search path: validate, solve the match lines of the rows that
    rows selects (all by default) up to t_sense and sense them there.  Returns
    the flags (S, R), t_sense, the times and V_ML (T, S, R); the times are
    TRACE_POINTS samples from 0 when trace is set, else t_sense alone."""
    q, t = _checked(arr, queries, t_sense)
    vth, factors = arr._thresholds
    static = _static_row_currents(vth[rows], None if factors is None else factors[rows],
                                  arr.cfg, arr.params, q)
    times = np.linspace(0.0, t, TRACE_POINTS) if trace else np.array([t])
    v = _ml_voltage(arr.ml_params, arr.params.v_dsat, arr.cols, static, times)
    return sense(v[-1], arr.ml_params), t, times, v


def search(arr: FecamArray, query, t_sense: float | None = None) -> SearchResult:
    """Precharge-and-discharge search of all rows against one query vector.

    t_sense None selects the column-adapted auto time.  A row matches when
    its match line is still above the sense boundary at t_sense.
    """
    matches, t, times, v = _search_rows(arr, [query], t_sense, trace=True)
    return SearchResult(matches=tuple(matches[0].tolist()), sense_time=t,
                        times=times, ml_voltages=v[:, 0])


def batch_search(arr: FecamArray, queries, t_sense: float | None = None):
    """Match flags for many query vectors at once; shape (n_queries, rows).

    Same numerics as search() without trace recording.
    """
    return _search_rows(arr, queries, t_sense)[0]


def measure_bounds(arr: FecamArray, row: int, t_sense: float | None = None,
                   resolution: float = 1e-3):
    """Matching-window edges of one row under a common search voltage sweep.

    Sweeps v_sl applied to every column and returns the edges of the maximal
    contiguous matching run, or None when nothing matches.
    """
    if not 0 <= row < arr.rows:
        raise OutOfRangeError(f"row {row} outside [0, {arr.rows - 1}]")
    if not 0.0 < resolution < np.inf:
        raise InvalidParameterError(f"resolution must be positive, got {resolution}")
    vdd = arr.cfg.vdd
    # arange can overshoot vdd by an ulp
    grid = np.minimum(np.arange(0.0, vdd + resolution / 2, resolution), vdd)
    queries = np.repeat(grid[:, None], arr.cols, axis=1)
    matching = _search_rows(arr, queries, t_sense, rows=[row])[0][:, 0]
    if not matching.any():
        return None
    # longest contiguous run of matches
    edges = np.diff(np.concatenate(([0], matching.astype(int), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    longest = int(np.argmax(ends - starts))
    return float(grid[starts[longest]]), float(grid[ends[longest]])


def single_mismatch_sense_time(p: MatchLineParams, params: DeviceParams,
                               cfg: CellConfig, n_cols: int) -> float:
    """Sense time that still catches one mismatching cell in a quiet row.

    The column-adapted auto time assumes every cell discharges at the average
    current; a row that fails in a single quantized digit discharges through
    one device only.  This picks the sense current at the geometric mean of
    the worst all-cells-just-inside row current and the single
    one-level-outside cell current, and errors out when those overlap.
    """
    half_width = min(b2 - b1 for b1, b2 in
                     zip(cfg.level_bounds, cfg.level_bounds[1:])) / 2.0
    # narrowest case: a single-level window queried at its center leaves both
    # FETs only half a level-width below threshold
    i_inside = 2.0 * float(device.saturated_current(params, -half_width, 0.0))
    i_outside = float(device.saturated_current(params, half_width, 0.0))
    worst_match = n_cols * i_inside
    if worst_match >= i_outside:
        raise InvalidParameterError(
            f"{n_cols} columns: accumulated in-window leakage "
            f"({worst_match:.3g} A) masks a single mismatch ({i_outside:.3g} A)")
    i_sense = (worst_match * i_outside) ** 0.5
    return ml_capacitance(p, n_cols) * p.delta_v_ml / i_sense


def _disturb_report(plan: WritePlan) -> DisturbReport:
    gates = np.array([[0.0 if p is None else p.amplitude for p in pulses]
                      for pulses in (plan.sl_pulses, plan.isl_pulses)])  # (2, C)
    bias = np.array(plan.source_bias)[:, None]                           # (R, 1)
    magnitudes = np.abs(gates[:, None, :] - bias).max(axis=0)
    magnitudes[plan.target_row] = np.nan
    return DisturbReport(target_row=plan.target_row, magnitudes=magnitudes)


def write_row(arr: FecamArray, plan: WritePlan):
    """Apply one write phase to the selected row.

    Returns the updated array and the disturb report for the unselected
    cells; rejects the write when any unselected device would see more than
    half the maximum write voltage between gate and source.
    """
    if not 0 <= plan.target_row < arr.rows:
        raise OutOfRangeError(f"target row {plan.target_row} outside array")
    if len(plan.sl_pulses) != arr.cols:
        raise DimensionMismatchError(
            f"{len(plan.sl_pulses)} pulse columns vs {arr.cols} array columns")
    if len(plan.source_bias) != arr.rows:
        raise DimensionMismatchError(
            f"{len(plan.source_bias)} bias rows vs {arr.rows} array rows")
    report = _disturb_report(plan)
    if not report.ok:
        raise DisturbViolationError(
            f"unselected gate-source magnitude {report.max_unselected:.3g} V "
            f"exceeds {DISTURB_LIMIT} V; write rejected", report=report)

    new_row = []
    for c, old in enumerate(arr.cells[plan.target_row]):
        upper = (device.state_from_pulse(arr.params, plan.sl_pulses[c])
                 if plan.sl_pulses[c] is not None else old.upper_fet)
        lower = (device.state_from_pulse(arr.params, plan.isl_pulses[c])
                 if plan.isl_pulses[c] is not None else old.lower_fet)
        if plan.sl_pulses[c] is None and plan.isl_pulses[c] is None:
            new_row.append(old)
        else:
            new_row.append(FecamCell(upper_fet=upper, lower_fet=lower,
                                     mode=CellMode.ANALOG))
    grid = tuple(tuple(new_row) if r == plan.target_row else arr.cells[r]
                 for r in range(arr.rows))
    return replace(arr, cells=grid), report


def inhibition_plans(arr: FecamArray, target_row: int, cells) -> list:
    """Erase and program phases that write the given cells into a row.

    Phase one erases every device in the row (negative pulses, negative
    inhibition bias); phase two programs the devices that need a threshold
    below the erased level (positive pulses, positive inhibition bias), so
    each phase keeps every unselected device at or below half the write
    voltage.
    """
    cells = tuple(cells)
    if len(cells) != arr.cols:
        raise DimensionMismatchError(
            f"{len(cells)} cells vs {arr.cols} array columns")
    params = arr.params
    erase = WritePulse(params.v_erase)
    erase_plan = WritePlan(
        target_row=target_row,
        sl_pulses=(erase,) * arr.cols,
        isl_pulses=(erase,) * arr.cols,
        source_bias=tuple(0.0 if r == target_row else -DISTURB_LIMIT
                          for r in range(arr.rows)))

    def program_pulse(state):
        if abs(state.vth - params.vth_high) <= device.VTH_SOLVE_TOLERANCE:
            return None  # stays erased
        return device.pulse_for_vth(params, state.vth)

    program_plan = WritePlan(
        target_row=target_row,
        sl_pulses=tuple(program_pulse(c.upper_fet) for c in cells),
        isl_pulses=tuple(program_pulse(c.lower_fet) for c in cells),
        source_bias=tuple(0.0 if r == target_row else DISTURB_LIMIT
                          for r in range(arr.rows)))
    return [erase_plan, program_plan]


def write_cells(arr: FecamArray, target_row: int, cells):
    """Erase-then-program a full row of target cells; returns the new array
    and the disturb reports of both phases."""
    reports = []
    for plan in inhibition_plans(arr, target_row, cells):
        arr, report = write_row(arr, plan)
        reports.append(report)
    return arr, reports
