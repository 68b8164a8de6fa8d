"""R x C CAM array held as one (R, 2C) array of FeFET thresholds: row-wise
writes that replace a row, with half-voltage inhibition, precharge plus
match-line discharge, sensing, and column-adapted search time.  Every
array, built or written, comes from `FecamArray.from_vth`, the one place
that checks the thresholds' shape, size and range.

The match line of each row is modeled as a lumped capacitance discharged by
the sum of its cells' currents.  Because both FeFETs of a cell share the
match-line voltage as their drain voltage, the row current factors into a
query-dependent static part times a common drain-saturation factor
min(V / v_dsat, 1).  The discharge then has an exact closed form, a linear
fall to the saturation knee followed by an exponential decay, so identical
inputs give bit-identical results.

Rows that hold the same thresholds draw the same current under any query, so
every search, traced or not, solves each distinct row once and gives each row
the flags and trace of its distinct row.  The distinct rows are found from
the threshold bytes of each row on an array's first search and cached with
the array; a write returns a new array, which finds its own.

A search sums the distinct rows' currents in one of two forms.  The direct
form takes one clamped current per (query, distinct row, FeFET) and sums
each row in a matmul.  As a FeFET's current depends only on its column's
search line and its threshold, the table form takes one per query and
distinct (FeFET column, threshold) pair, and a matmul with a 0/1 matrix of
(pairs, distinct rows) sums the pairs into rows.  Per query they cost about
R_d 2C and P (1 + R_d / BLAS_GAIN) elementwise currents, for P pairs and
R_d distinct rows of 2C FeFETs; the first search takes the cheaper form,
the table one only while its matrix fits TABLE_ENTRIES.  Banks of quantized
windows or ternary bits take the table form; one distinct row, a few rows
of many levels, or rows after `apply_variation` do not.  BLAS sums a
product in an order set by its shape, so each product has one shape
whatever the batch, one query in the direct form and GEMM_GROUP queries in
the table form: a query reads the same alone as in any batch.  But the
order also follows the number of distinct rows, and the forms add in
different orders: a row's current can differ in the last bits with the
number of distinct rows and with the form, and so can its flag at an exact
sense tie.

`measure_bounds` applies one voltage to every column, so it sums each
distinct cell's current once, times the cell's count.  That sum rounds
differently from a per-column one, so a sweep point whose line ends within a
few ulps of the sense boundary may settle differently than in
`batch_search`.  At an exact tie, where each boundary FeFET draws exactly
i_threshold at the auto time, the weighted sum ends on the boundary, which
`sense` reads as a mismatch.

The static part is factored: a subthreshold term i_th 10^((v - vth)/S) is
(i_th e^(k v)) e^(-k vth) with k = ln10/S, so each array computes the
threshold factors e^(-k vth) on its first search, for the thresholds its
search sums, and keeps them, and each query takes one factor per search
line, leaving one product per FeFET.  Queries go through in blocks of about
BLOCK_CELLS FeFET currents in one reused buffer, so a batch search needs
memory that grows with queries x (rows + cols), not queries x rows x cols.
Where a factor of a threshold in the device range could overflow exp, the
same blocks evaluate `device.saturated_current` per FeFET, the law the
factored form reproduces.  The range, not the thresholds held, sets that
edge, so a search and `measure_bounds` of one array take the same branch:
at the default range and vdd it lies near 6.9 mV/decade for every array,
also one whose thresholds stay at or below 0.9 V, such as a bank of level
rows, whose own thresholds would allow factors down to 6.25 mV/decade.
"""

from __future__ import annotations

import warnings
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from . import device
from .cell import CellConfig, FecamCell, inverter
from .device import DeviceParams, FeFetState, WritePulse
from .errors import (DimensionMismatchError, DisturbViolationError,
                     InvalidParameterError, OutOfRangeError, check_int, check_real,
                     require_finite)

TRACE_POINTS = 1001       # samples of a recorded match-line transient
BLOCK_CELLS = 1 << 14     # FeFET currents per block of a batch search (128 KB)
EXP_LIMIT = 700.0         # largest exponent the factored kernel may form
SIZE_GUIDELINE = 64       # beyond this, drivers need resizing; warn only
MAX_CELLS = 1 << 20       # largest array built, checked before the grid exists
MAX_SWEEP_STEPS = 1 << 20 # most resolution steps of vdd a measure_bounds sweep takes
TABLE_ENTRIES = 1 << 18   # most entries of a cached pair-to-row matrix (2 MB)
BLAS_GAIN = 16            # BLAS multiply-adds that cost one elementwise current
GEMM_GROUP = 2            # queries per matrix product of the table form
DISTURB_LIMIT = 2.0       # V, max tolerable unselected gate-source magnitude


@dataclass(frozen=True)
class MatchLineParams:
    """Match-line electrical parameters.

    Capacitance defaults are back-solved so a single-column line discharges
    through the sense boundary in 10 ns at the 25 nA average cell current.
    The line precharges to the cell supply, `CellConfig.vdd`.
    """

    c_pmos: float = 0.10e-15       # F, precharge transistor drain capacitance
    c_drain: float = 0.35e-15      # F, per-cell total drain capacitance
    c_parasitic: float = 0.05e-15  # F, per-cell interconnect capacitance
    delta_v_ml: float = 0.5        # V, sense boundary drop
    i_discharge_avg: float = 25e-9 # A, average per-cell discharge current

    def __post_init__(self):
        require_finite(self)
        for f in fields(self):
            check_real(getattr(self, f.name), f.name, 0, open=True)
        for name in ("c_pmos", "c_drain", "c_parasitic"):  # a subnormal one overflows I / C
            check_real(getattr(self, name), name, np.finfo(float).tiny)

    def check_swing(self, vdd: float) -> None:
        """Refuse a sense boundary vdd - delta_v_ml at or below 0 V."""
        check_real(self.delta_v_ml, "delta_v_ml, the drop from vdd,", 0, vdd, open=True)


def ml_capacitance(p: MatchLineParams, n_cols: int) -> float:
    """Lumped match-line capacitance of a row with n_cols cells."""
    n_cols = check_int(n_cols, "n_cols", 0, MAX_CELLS)
    return p.c_pmos + n_cols * (p.c_drain + p.c_parasitic)


def discharge_time(p: MatchLineParams, n_cols: int) -> float:
    """Time for the match line to drop by the sense boundary when all n_cols
    cells discharge at the average current; used as the auto search time."""
    n_cols = check_int(n_cols, "n_cols", 1, MAX_CELLS)
    t = ml_capacitance(p, n_cols) * p.delta_v_ml / (n_cols * p.i_discharge_avg)
    # extreme parameters over- or underflow the quotient
    return check_real(t, "the auto sense time of the [matchline] parameters", 0, open=True)


def sense(v_ml_at_t: float, p: MatchLineParams, vdd: float) -> bool:
    """Threshold-comparator sense amplifier on a line precharged to vdd;
    boundary equality is a mismatch.  Applies elementwise to an array of
    voltages."""
    return v_ml_at_t > vdd - p.delta_v_ml


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one array search: per-row match flags and ML transients."""

    matches: tuple            # one bool per row
    sense_time: float         # s
    times: np.ndarray         # (n_points,) s
    ml_voltages: np.ndarray   # (n_points, rows) V


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
        object.__setattr__(self, "target_row", check_int(
            self.target_row, "target row", 0, len(self.source_bias) - 1, OutOfRangeError))
        if len(self.sl_pulses) != len(self.isl_pulses):
            raise DimensionMismatchError(
                f"{len(self.sl_pulses)} SL pulses vs {len(self.isl_pulses)} "
                "inverted-SL pulses")
        for row, bias in enumerate(self.source_bias):
            if row == self.target_row:
                if bias != 0.0:
                    raise InvalidParameterError("selected row source must be grounded")
            elif bias not in (DISTURB_LIMIT, -DISTURB_LIMIT, 0.0):
                raise InvalidParameterError(
                    f"unselected source bias must be 0 or +-{DISTURB_LIMIT} V, "
                    f"got {bias} V")


def _check_size(rows: int, cols: int) -> None:
    """Reject an array without cells or with more than MAX_CELLS of them."""
    of_array = f"of an array of at most {MAX_CELLS} cells"
    rows = check_int(rows, f"rows {of_array}", 1, MAX_CELLS)
    check_int(cols, f"cols {of_array}", 1, MAX_CELLS // rows)


@dataclass(frozen=True, init=False, eq=False)
class FecamArray:
    """R x C cells as one state, `vth`, plus the electrical context shared by
    every row.  `vth` is read-only, (rows, 2 cols): each row's upper FeFET
    thresholds, then its lower ones, the current kernel's layout; the first
    search builds the `_row_terms` of its distinct rows.  `from_vth` is the
    one constructor that checks and holds this state: `FecamArray(cells=...)`
    gathers a FecamCell grid's thresholds into it, `filled` repeats one
    cell's pair, and a write passes its new copy, so a write into an array
    past SIZE_GUIDELINE warns as building it does.  `.cells` views the
    thresholds back as cells."""

    vth: np.ndarray           # (rows, 2 cols) V, read-only
    ml_params: MatchLineParams
    cfg: CellConfig
    params: DeviceParams

    def __init__(self, cells, ml_params, cfg, params):
        grid = [tuple(row) for row in cells]
        cols = len(grid[0]) if grid else 0
        if any(len(row) != cols for row in grid):
            raise InvalidParameterError("ragged cell grid")
        vth = [[c.upper_fet.vth for c in row] + [c.lower_fet.vth for c in row] for row in grid]
        vars(self).update(vars(self.from_vth(np.reshape(vth, (len(grid), 2 * cols)),
                                             ml_params, cfg, params)))

    @classmethod
    def from_vth(cls, vth, ml_params: MatchLineParams, cfg: CellConfig,
                 params: DeviceParams) -> "FecamArray":
        """The one checked constructor: an array holding a read-only copy of
        vth, (rows, 2 cols) V.  Checks the shape and size, the sense swing
        against the supply and every threshold against the device range, and
        warns past SIZE_GUIDELINE rows or cols."""
        try:
            vth = np.array(vth, dtype=float, order="C")
        except (TypeError, ValueError) as exc:  # not numbers, or ragged
            raise InvalidParameterError(f"thresholds must be numbers: {exc}") from None
        if vth.ndim != 2 or vth.shape[1] % 2:
            raise DimensionMismatchError(
                f"thresholds of shape {vth.shape}, not (rows, 2 cols)")
        rows, cols = vth.shape[0], vth.shape[1] // 2
        _check_size(rows, cols)
        ml_params.check_swing(cfg.vdd)
        if rows > SIZE_GUIDELINE:
            warnings.warn(
                f"{rows} rows exceeds {SIZE_GUIDELINE}; search-line "
                "parasitics would demand stronger drivers", RuntimeWarning)
        if cols > SIZE_GUIDELINE:
            warnings.warn(
                f"{cols} columns exceeds {SIZE_GUIDELINE}; precharging "
                "the match line would demand a stronger driver", RuntimeWarning)
        if not ((vth >= params.vth_low) & (vth <= params.vth_high)).all():  # NaN fails too
            raise OutOfRangeError(
                f"cell thresholds must lie in [{params.vth_low}, {params.vth_high}] V")
        vth.flags.writeable = False
        arr = object.__new__(cls)
        vars(arr).update(vth=vth, ml_params=ml_params, cfg=cfg, params=params)
        return arr

    @property
    def rows(self) -> int:
        return self.vth.shape[0]

    @property
    def cols(self) -> int:
        return self.vth.shape[1] // 2

    @cached_property
    def cells(self) -> tuple:
        """rows x cols of FecamCell, each FeFET FeFetState(v) of its threshold;
        built once per distinct threshold pair, so equal cells are one object."""
        rows = [list(zip(row[:self.cols], row[self.cols:])) for row in self.vth.tolist()]
        made = {pair: FecamCell(*map(FeFetState, pair)) for pair in set().union(*rows)}
        return tuple(tuple(map(made.__getitem__, row)) for row in rows)

    @cached_property
    def _distinct_rows(self):
        """(first, rows): the first row of each distinct row of `vth`, keyed on
        its bytes, and each row's index into them; None when every row is
        distinct.  A wrapping sum of each row's threshold bits, each times a
        fixed odd multiplier, is equal for equal rows and settles that when no
        two sums collide; else the rows' bytes are sorted.  Computed on the
        first search, once per array."""
        bits = self.vth.view(np.uint64)
        odd = np.arange(1, 2 * bits.shape[1], 2, dtype=np.uint64)
        sums = np.sort(bits @ (odd * np.uint64(0x9E3779B97F4A7C15)))
        if (sums[1:] != sums[:-1]).all():
            return None
        keys = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1])))[:, 0]
        _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
        return None if len(first) == self.rows else (first, rows)

    @cached_property
    def _terms(self):
        """`_row_terms` of the distinct rows: built on the first search, once
        per array, so a write, which returns a new array, builds none."""
        first = self._distinct_rows[0] if self._distinct_rows else slice(None)
        return _row_terms(self.vth[first], self.params, self.cfg.vdd)

    @classmethod
    def filled(cls, rows: int, cols: int, cell: FecamCell,
               ml_params: MatchLineParams, cfg: CellConfig,
               params: DeviceParams) -> "FecamArray":
        _check_size(rows, cols)
        pair = np.repeat([cell.upper_fet.vth, cell.lower_fet.vth], cols)
        return cls.from_vth(np.broadcast_to(pair, (rows, 2 * cols)), ml_params, cfg, params)

    def auto_sense_time(self) -> float:
        return discharge_time(self.ml_params, self.cols)

    @cached_property
    def _quiet_time(self) -> float:
        """Sense times below this cannot overflow the match-line solve: no row
        draws more than 2 cols i_on, and the solve divides by v_dsat."""
        room = 1e300 * min(self.params.v_dsat, 1.0) - 2 * self.cfg.vdd
        rate = 2 * self.cols * self.params.i_on / ml_capacitance(self.ml_params, self.cols)
        return room / rate if rate < 1e300 else 0.0  # 0 where the rate may overflow


def _threshold_factors(vth: np.ndarray, params: DeviceParams, vdd: float):
    """e^(-k vth) with k = ln10 / subthreshold slope, or None when, for some
    threshold of the device range, a factor or the product of one with a
    query term i_th e^(k v), 0 <= v <= vdd, could overflow; the kernel then
    evaluates `device.saturated_current`.  The range, not vth, decides, so
    every sum over an array's thresholds takes the same branch."""
    k = np.log(10.0) / params.subthreshold_slope
    reach = k * (vdd + max(abs(params.vth_low), abs(params.vth_high)))
    if not reach + max(np.log(params.i_threshold), 0.0) < EXP_LIMIT:
        return None
    return np.exp(-k * vth)


def _pair_tables(vth: np.ndarray, weights: np.ndarray, max_pairs: int):
    """The table form of the rows vth (R, 2C), or None when they hold more
    than max_pairs distinct (FeFET column, threshold) pairs: the pairs'
    thresholds, their search lines, and the (pairs, R) matrix that holds, at
    the pair each row holds in each column, that column's weight."""
    rows, fets = vth.shape
    if max_pairs < fets:  # every column holds at least one pair
        return None
    # each column sorted, as row and flat indices; a new pair where it steps
    order = np.argsort(vth.T, axis=1)
    held = vth.ravel()[order * fets + np.arange(fets)[:, None]]
    new = np.empty(held.shape, bool)
    new[:, 0] = True
    np.not_equal(held[:, 1:], held[:, :-1], out=new[:, 1:])
    n_pairs = np.count_nonzero(new)
    if n_pairs > max_pairs:
        return None
    matrix = np.zeros((n_pairs, rows))
    matrix[np.cumsum(new, dtype=np.intp).reshape(new.shape) - 1, order] = weights[:, None]
    return held[new], np.nonzero(new)[0], matrix


def _row_terms(vth: np.ndarray, params: DeviceParams, vdd: float, counts=None):
    """What `_summed_currents` sums into the rows vth (R, 2C), each FeFET
    weighted by its column's entry of counts, all ones by default.  The table
    form where it costs less than the direct one and its matrix fits
    TABLE_ENTRIES, which it never does for one row, else the direct form;
    either carries the `_threshold_factors` of just the thresholds it reads."""
    rows, fets = vth.shape
    weights = np.ones(fets) if counts is None else np.concatenate((counts, counts), dtype=float)
    # per query the table form costs about pairs (1 + rows / BLAS_GAIN)
    # elementwise currents and the direct form rows x fets
    pays = BLAS_GAIN * rows * fets // (BLAS_GAIN + rows)
    tables = _pair_tables(vth, weights, min(pays, TABLE_ENTRIES // rows))
    n_fets = weights.sum()
    held, lines, weights = (vth, None, weights) if tables is None else tables
    return held, _threshold_factors(held, params, vdd), lines, weights, n_fets


def _summed_currents(vth: np.ndarray, factors, lines, weights: np.ndarray, n_fets,
                     cfg: CellConfig, params: DeviceParams,
                     queries: np.ndarray) -> np.ndarray:
    """Weighted sums of full-drive FeFET currents per query; shape (S, R).

    Each FeFET of vth (..., F), at the search line that `lines` picks from a
    query's 2C, draws its `device.saturated_current`: the product of its
    factor and the line's, clamped, or, where factors is None, the law
    itself.  The clamped terms meet the weights in a matmul, plus n_fets
    i_off floors a row.  `_row_terms` builds the first five arguments: in
    the direct form vth (R, 2C), lines None (all 2C, in order) and weights
    (2C,); in the table form the pairs of `_pair_tables`.
    The queries go through in blocks of about BLOCK_CELLS FeFET currents,
    at least one query each; the matmul takes one query at a time in the
    direct form and GEMM_GROUP in the table form, the last group padded.
    """
    k = np.log(10.0) / params.subthreshold_slope
    cap = params.i_on - params.i_off
    group = 1 if weights.ndim == 1 else GEMM_GROUP
    block = group * max(1, BLOCK_CELLS // (group * vth.size))
    padded = -(-len(queries) // group) * group
    # the padding rows of a last group must hold finite currents
    buf = (np.empty if group == 1 else np.zeros)((min(block, padded),) + vth.shape)
    out = np.empty((padded,) + vth.shape[:-1] + weights.shape[1:])
    buf_groups = buf.reshape((-1, group) + vth.shape)
    out_groups = out.reshape((-1, group) + out.shape[1:])
    # no row draws more than n_fets i_on; past the float range it draws inf
    with np.errstate(over="ignore") if params.i_on >= 1e300 / n_fets else nullcontext():
        for start in range(0, len(queries), block):
            q = queries[start:start + block]
            v = np.concatenate((q, inverter(q, cfg)), axis=1)
            cells = buf[:len(q)]
            if factors is not None:
                np.multiply((params.i_threshold * np.exp(k * v))[:, lines], factors, out=cells)
            else:
                np.subtract(device.saturated_current(params, v[:, lines], vth), params.i_off,
                            out=cells)
            np.minimum(cells, cap, out=cells)
            first, n = start // group, -(-len(q) // group)
            np.matmul(buf_groups[:n], weights, out=out_groups[first:first + n])
        out = out[:len(queries)]
        out += n_fets * params.i_off
    return out


def _ml_voltage(p: MatchLineParams, vdd: float, v_dsat: float, n_cols: int,
                static_currents: np.ndarray, times: np.ndarray, quiet=True) -> np.ndarray:
    """Exact V_ML(times) for C_ML dV/dt = -I_static min(V/v_dsat, 1), V(0) = vdd,
    shaped times.shape + static_currents.shape.  Nothing divides by the
    current, so a row whose current underflows to 0 stays at vdd.

    With lin = vdd - I t / C the linear fall, the line past the knee is
    knee e^((lin - knee)/v_dsat).  Before the knee (lin >= knee) that term,
    exponent capped at 0, is knee <= lin; past it, e^x >= 1 + x and
    knee <= v_dsat keep it at or above lin.  So the larger of the two is the
    solution on both branches.

    Unless quiet (the caller silences overflow and 0 inf), a row whose I / C
    overflows falls by (I t) / C, and an inf current too starts at vdd."""
    c_ml = ml_capacitance(p, n_cols)
    lin = np.multiply.outer(times, static_currents / c_ml)
    if not quiet:
        fast = np.isinf(static_currents / c_ml)
        lin[:, fast] = np.multiply.outer(times, static_currents[fast]) / c_ml
        lin[times == 0.0] = 0.0
    np.subtract(vdd, lin, out=lin)
    knee = min(vdd, v_dsat)
    decayed = lin - knee
    np.minimum(decayed, 0.0, out=decayed)
    decayed /= v_dsat
    np.exp(decayed, out=decayed)
    decayed *= knee
    return np.maximum(lin, decayed, out=lin)


def _checked(arr: FecamArray, queries, t_sense):
    """Validated (n_queries, cols) voltages and sense time."""
    q = np.asarray(queries, dtype=float)
    if q.ndim != 2 or q.shape[1] != arr.cols:
        raise DimensionMismatchError(
            f"queries of shape {q.shape} do not match {arr.cols} columns")
    if not ((q >= 0.0) & (q <= arr.cfg.vdd)).all():  # NaN fails as well
        raise OutOfRangeError(f"query voltages must lie in [0, {arr.cfg.vdd}] V")
    return q, _sense_time(arr, t_sense)


def _sense_time(arr: FecamArray, t_sense) -> float:
    """Validated sense time; None selects the column-adapted auto time."""
    if t_sense is None:
        return arr.auto_sense_time()
    return float(check_real(t_sense, "t_sense", 0, open=True))


def _solve_and_sense(arr: FecamArray, static: np.ndarray, t: float, trace=False):
    """Solve up to t the match lines, each of a full row of `arr`, that draw
    the static currents (S, R), and sense them there.  Returns the flags
    (S, R), the times and V_ML (T, S, R); the times are TRACE_POINTS samples
    from 0 when trace is set, else t alone."""
    times = np.linspace(0.0, t, TRACE_POINTS) if trace else np.array([t])
    vdd = arr.cfg.vdd
    solve = (arr.ml_params, vdd, arr.params.v_dsat, arr.cols, static, times)
    if t < arr._quiet_time:
        v = _ml_voltage(*solve)
    else:  # the line discharges fully, and rightly, but numpy warns of the overflow
        with np.errstate(over="ignore", invalid="ignore"):
            v = _ml_voltage(*solve, quiet=False)
    return sense(v[-1], arr.ml_params, vdd), times, v


def _search_rows(arr: FecamArray, queries, t_sense, trace=False):
    """The one search path: validate, then solve each distinct row's match
    line up to t_sense, sense it there and give every row its distinct row's
    answer.  Returns the flags (S, R), t_sense, the times as
    `_solve_and_sense`, and V_ML (T, S, R) when trace is set, else None."""
    q, t = _checked(arr, queries, t_sense)
    rows = arr._distinct_rows[1] if arr._distinct_rows else slice(None)
    static = _summed_currents(*arr._terms, arr.cfg, arr.params, q)
    flags, times, v = _solve_and_sense(arr, static, t, trace)
    return flags[:, rows], t, times, v[..., rows] if trace else None


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

    Sweeps v_sl applied to every column, in steps of the resolution, at
    least vdd / MAX_SWEEP_STEPS, and returns the edges of the maximal
    contiguous matching run, or None when nothing matches.  Cells of the row
    that hold the same thresholds draw the same current at every sweep
    point, so each distinct cell is solved once and weighted by its count;
    the line keeps the full row's capacitance and sense time.  Within a few
    ulps of the sense boundary, a sweep point may settle differently than in
    `batch_search` of the same voltages (see the module docstring).
    """
    row = check_int(row, "row", 0, arr.rows - 1, OutOfRangeError)
    vdd = arr.cfg.vdd
    check_real(resolution, "resolution", vdd / MAX_SWEEP_STEPS)
    t = _sense_time(arr, t_sense)
    # arange can overshoot vdd by an ulp
    grid = np.minimum(np.arange(0.0, vdd + resolution / 2, resolution), vdd)
    upper, lower = arr.vth[row, :arr.cols], arr.vth[row, arr.cols:]
    _, first, counts = np.unique(upper + 1j * lower, return_index=True, return_counts=True)
    fets = np.concatenate((first, arr.cols + first))
    terms = _row_terms(arr.vth[row, fets][None], arr.params, vdd, counts)
    static = _summed_currents(*terms, arr.cfg, arr.params,
                              np.broadcast_to(grid[:, None], (len(grid), len(first))))
    matching = _solve_and_sense(arr, static, t)[0][:, 0]
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
    n_cols = check_int(n_cols, "n_cols", 1, MAX_CELLS)
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
    t = ml_capacitance(p, n_cols) * p.delta_v_ml / i_sense if i_sense else np.inf
    # extreme parameters over- or underflow the quotient
    return check_real(t, "the single-mismatch sense time of the [matchline] and [device] "
                      "parameters", 0, open=True)


def _disturb_report(plan: WritePlan) -> DisturbReport:
    gates = np.array([[0.0 if p is None else p.amplitude for p in pulses]
                      for pulses in (plan.sl_pulses, plan.isl_pulses)])  # (2, C)
    bias = np.array(plan.source_bias)[:, None]                           # (R, 1)
    magnitudes = np.abs(gates[:, None, :] - bias).max(axis=0)
    magnitudes[plan.target_row] = np.nan
    return DisturbReport(target_row=plan.target_row, magnitudes=magnitudes)


def write_row(arr: FecamArray, plan: WritePlan):
    """Apply one write phase to the selected row of a copy of `arr.vth`.

    Returns the new array and the disturb report for the unselected
    cells; rejects the write when any unselected device would see more than
    half the maximum write voltage between gate and source.
    """
    check_int(plan.target_row, "target row", 0, arr.rows - 1, OutOfRangeError)
    if len(plan.sl_pulses) != arr.cols:
        raise DimensionMismatchError(
            f"{len(plan.sl_pulses)} pulse columns vs {arr.cols} array columns")
    if len(plan.source_bias) != arr.rows:
        raise DimensionMismatchError(
            f"{len(plan.source_bias)} bias rows vs {arr.rows} array rows")
    vth = arr.vth.copy()
    for col, pulse in enumerate(plan.sl_pulses + plan.isl_pulses):
        if pulse is not None:
            vth[plan.target_row, col] = device.vth_from_pulse(arr.params, pulse)
    report = _disturb_report(plan)
    if not report.ok:
        raise DisturbViolationError(
            f"unselected gate-source magnitude {report.max_unselected:.3g} V "
            f"exceeds {DISTURB_LIMIT} V; write rejected", report=report)
    return FecamArray.from_vth(vth, arr.ml_params, arr.cfg, arr.params), report


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
