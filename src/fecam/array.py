"""R x C CAM array held as one (R, 2C) array of FeFET thresholds: row-wise
writes that replace a row, with half-voltage inhibition, precharge plus
match-line discharge, sensing, and column-adapted search time.  Every
built array comes from `FecamArray.from_vth`, the one place that checks the
thresholds' shape, size and range.  A write replaces one row of a copy and
checks only that row's range, as the other rows were checked when the array
was built; an array past SIZE_GUIDELINE still warns on each write.  Both
phases of `write_cells` go through the one write path of `write_row`, on
one row, and solve each distinct threshold and pulse once.

The match line of each row is modeled as a lumped capacitance discharged by
the sum of its cells' currents.  Because both FeFETs of a cell share the
match-line voltage as their drain voltage, the row current factors into a
query-dependent static part times a common drain-saturation factor
min(V / v_dsat, 1).  The discharge then has an exact closed form, a linear
fall to the saturation knee followed by an exponential decay, so identical
inputs give bit-identical results.  `_ml_voltage` is the one solve, of a
trace and of the top current, and it guards its own overflow.

Rows that hold the same thresholds draw the same current under any query, so
every search, traced or not, sums each distinct row's current once and gives
each row the flag and trace of its distinct row.  The distinct rows are found
from the threshold bytes of each row on an array's first search and cached
with the array; a write returns a new array, which finds its own.

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
of many levels, or rows after `apply_variation` do not.  Each block of
queries takes one product: a matmul with the matrix in the table form, one
matrix-vector product over all its (query, row) pairs in the direct form.

At a fixed sense time a match line ends lower the more static current its
row draws, so a search reads each flag without solving a line: a row
matches when its current is at most the top current, the largest float
current whose line, solved as a traced search solves it, still reads a
match.  The top current is bisected once per sense time over the floats'
bit patterns and kept in the dict `_top_currents` that an array is made
with; a write makes its array with the same dict, as it changes no line,
cell or device parameter.  BLAS sums a product in an order set by its
shape, so a row's current can differ in its last bits with the batch, the
form, the number of distinct rows, or the count weights of
`measure_bounds`, which applies one voltage to every column and sums each
distinct cell once.  A sum of a row's 2C FeFET terms and its floor
rounds by less than (2C + 2) 2^-53 of itself; where a current lies within
twice that of the top current, `math.fsum` compares its per-column terms,
its n_fets i_off floor and the top current exactly.  So a row's flag depends
on the row and the query alone, and a sweep point of `measure_bounds` reads
as `batch_search` of the same voltages; only the last bits of a trace may
differ.

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

import math
import sys
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from . import device
from .cell import CellConfig, FecamCell, inverter
from .device import DeviceParams, FeFetState, WritePulse
from .errors import (DimensionMismatchError, DisturbViolationError,
                     InvalidParameterError, OutOfRangeError, check_int, check_real,
                     real_array)

TRACE_POINTS = 1001       # samples of a recorded match-line transient
BLOCK_CELLS = 1 << 14     # FeFET currents per block of a batch search (128 KB)
EXP_LIMIT = 700.0         # largest exponent the factored kernel may form
SIZE_GUIDELINE = 64       # beyond this, drivers need resizing; warn only
MAX_CELLS = 1 << 20       # largest array built, checked before the grid exists
MAX_SWEEP_STEPS = 1 << 20 # most steps of vdd a search-voltage sweep takes
TABLE_ENTRIES = 1 << 18   # most entries of a cached pair-to-row matrix (2 MB)
BLAS_GAIN = 16            # BLAS multiply-adds that cost one elementwise current
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
        for name in ("c_pmos", "c_drain", "c_parasitic"):  # a subnormal one overflows I / C
            check_real(getattr(self, name), name, np.finfo(float).tiny)
        for name in ("delta_v_ml", "i_discharge_avg"):
            check_real(getattr(self, name), name, 0, open=True)

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
        # fmax skips the selected row's nan; 0 when nothing else is left
        top = np.fmax.reduce(self.magnitudes, axis=None, initial=np.nan)
        return 0.0 if np.isnan(top) else float(top)

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
        try:
            object.__setattr__(self, "sl_pulses", tuple(self.sl_pulses))
            object.__setattr__(self, "isl_pulses", tuple(self.isl_pulses))
        except TypeError:
            raise InvalidParameterError("pulse columns must be sequences of WritePulse or None, "
                                        f"got {self.sl_pulses!r}, {self.isl_pulses!r}") from None
        bias = real_array(self.source_bias, "source bias")
        if bias.ndim != 1:
            raise InvalidParameterError(f"source bias must be one number per row, "
                                        f"got shape {bias.shape}")
        object.__setattr__(self, "source_bias", tuple(bias.tolist()))
        target = check_int(self.target_row, "target row", 0, len(bias) - 1, OutOfRangeError)
        object.__setattr__(self, "target_row", target)
        if len(self.sl_pulses) != len(self.isl_pulses):
            raise DimensionMismatchError(
                f"{len(self.sl_pulses)} SL pulses vs {len(self.isl_pulses)} "
                "inverted-SL pulses")
        allowed = (bias == 0.0) | (np.abs(bias) == DISTURB_LIMIT)  # NaN is not
        allowed[target] = bias[target] == 0.0
        row = int(np.argmin(allowed))  # the first refused row, if any
        if not allowed[row]:
            if row == target:
                raise InvalidParameterError("selected row source must be grounded")
            raise InvalidParameterError(
                f"unselected source bias must be 0 or +-{DISTURB_LIMIT} V, "
                f"got {self.source_bias[row]} V")


def _check_size(rows: int, cols: int) -> None:
    """Reject an array without cells or with more than MAX_CELLS of them."""
    of_array = f"of an array of at most {MAX_CELLS} cells"
    rows = check_int(rows, f"rows {of_array}", 1, MAX_CELLS)
    check_int(cols, f"cols {of_array}", 1, MAX_CELLS // rows)


def _check_thresholds(vth: np.ndarray, rows: int, cols: int, params: DeviceParams) -> None:
    """Warn past SIZE_GUIDELINE rows or cols of a rows x cols array, then
    refuse any of its thresholds vth, all of them or the one row a write
    replaces, outside the device range."""
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


@dataclass(frozen=True, init=False, eq=False)
class FecamArray:
    """R x C cells as one state, `vth`, plus the electrical context shared by
    every row.  `vth` is read-only, (rows, 2 cols): each row's upper FeFET
    thresholds, then its lower ones, the current kernel's layout.  An array
    is made with its line's `_top_currents`; its first search adds its one
    `_search_state`: the row map, the distinct rows and their `_row_terms`.
    `from_vth` is the one constructor that checks this state;
    `FecamArray(cells=...)` and `filled` take cells through `_gathered`.  A
    write holds a copy with one row replaced and checks only that row, so a
    write into an array past SIZE_GUIDELINE warns as building it does.
    `.cells` views the thresholds back as cells."""

    vth: np.ndarray           # (rows, 2 cols) V, read-only
    ml_params: MatchLineParams
    cfg: CellConfig
    params: DeviceParams

    def __init__(self, cells, ml_params, cfg, params):
        vars(self).update(vars(self.from_vth(self._gathered(cells), ml_params, cfg, params)))

    @classmethod
    def from_vth(cls, vth, ml_params: MatchLineParams, cfg: CellConfig,
                 params: DeviceParams) -> "FecamArray":
        """The one checked constructor: an array holding a read-only copy of
        vth, (rows, 2 cols) V.  Checks the shape and size, the sense swing
        against the supply and every threshold against the device range, and
        warns past SIZE_GUIDELINE rows or cols."""
        vth = np.array(real_array(vth, "thresholds"), order="C")
        if vth.ndim != 2 or vth.shape[1] % 2:
            raise DimensionMismatchError(
                f"thresholds of shape {vth.shape}, not (rows, 2 cols)")
        rows, cols = vth.shape[0], vth.shape[1] // 2
        _check_size(rows, cols)
        ml_params.check_swing(cfg.vdd)
        _check_thresholds(vth, rows, cols, params)
        return cls._holding(vth, ml_params, cfg, params)

    @classmethod
    def _holding(cls, vth: np.ndarray, ml_params: MatchLineParams, cfg: CellConfig,
                 params: DeviceParams, top_currents=None) -> "FecamArray":
        """An array holding vth, a checked C-order float array of its own, as
        its read-only state, and as `_top_currents` a new dict or top_currents."""
        vth.flags.writeable = False
        arr = object.__new__(cls)
        vars(arr).update(vth=vth, ml_params=ml_params, cfg=cfg, params=params,
                         _top_currents={} if top_currents is None else top_currents)
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

    @staticmethod
    def _gathered(cells) -> np.ndarray:
        """The thresholds of cells, equal rows of FecamCells holding FeFetStates,
        as (rows, 2 cols), the inverse of `.cells`; else InvalidParameterError.
        The one way cells enter an array."""
        try:
            grid = [tuple(row) for row in cells]
        except TypeError as exc:  # not rows
            raise InvalidParameterError(f"cells must be rows of FecamCells: {exc}") from None
        cols = len(grid[0]) if grid else 0
        if any(len(row) != cols for row in grid):
            raise InvalidParameterError("ragged cell grid")
        flat = [c for row in grid for c in row]
        if all(map(isinstance, flat, repeat(FecamCell))):
            fets = [c.upper_fet for c in flat] + [c.lower_fet for c in flat]
            if all(map(isinstance, fets, repeat(FeFetState))):
                vth = real_array([f.vth for f in fets], "cell thresholds")
                return vth.reshape(2, len(grid), cols).swapaxes(0, 1).reshape(len(grid), 2 * cols)
        raise InvalidParameterError("cells must be FecamCells holding FeFetStates")

    @cached_property
    def _search_state(self) -> tuple:
        """(rows, vth, terms), built by the first search, once per array, so a
        write, which returns a new array, builds none: each row's index into
        the distinct rows vth, keyed on their bytes, or slice(None) when every
        row is distinct, and the `_row_terms` of vth.  Equal rows give equal
        wrapping sums of their bits, each times a fixed odd multiplier, so the
        rows are all distinct when no two sums collide; else bytes are sorted.
        So the resolve after a cam-program bank rewrite sorts no bytes."""
        rows, vth = slice(None), self.vth
        bits = vth.view(np.uint64)
        odd = np.arange(1, 2 * bits.shape[1], 2, dtype=np.uint64)
        sums = np.sort(bits @ (odd * np.uint64(0x9E3779B97F4A7C15)))
        if (sums[1:] == sums[:-1]).any():
            keys = bits.view(np.dtype((np.void, bits.itemsize * bits.shape[1])))[:, 0]
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            if len(first) < self.rows:
                rows, vth = inverse, vth[first]
        return rows, vth, _row_terms(vth, self.params, self.cfg.vdd)

    @classmethod
    def filled(cls, rows: int, cols: int, cell: FecamCell,
               ml_params: MatchLineParams, cfg: CellConfig,
               params: DeviceParams) -> "FecamArray":
        _check_size(rows, cols)
        pair = np.repeat(cls._gathered([[cell]]), cols, axis=1)
        return cls.from_vth(np.broadcast_to(pair, (rows, 2 * cols)), ml_params, cfg, params)

    def auto_sense_time(self) -> float:
        return discharge_time(self.ml_params, self.cols)


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
    if max_pairs < vth.shape[1]:  # every column holds at least one pair
        return None
    # each column sorted, from a contiguous copy; a new pair where it steps
    cols = vth.T.copy()
    held = np.sort(cols, axis=1)
    new = np.empty(held.shape, bool)
    new[:, 0] = True
    np.not_equal(held[:, 1:], held[:, :-1], out=new[:, 1:])
    if np.count_nonzero(new) > max_pairs:
        return None
    held, lines = held[new], np.nonzero(new)[0]
    return held, lines, np.where(held[:, None] == cols[lines], weights[lines, None], 0.0)


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


def _fet_currents(v: np.ndarray, lines, vth: np.ndarray, factors, params: DeviceParams,
                  out=None) -> np.ndarray:
    """Each FeFET of vth at the search line that `lines` picks from the line
    voltages v (S, 2C): its `device.saturated_current` less i_off, clamped at
    i_on - i_off.  That is the product of its factor and the line's, or,
    where factors is None, the law itself; each term depends on its line
    voltage and threshold alone."""
    if factors is not None:
        k = np.log(10.0) / params.subthreshold_slope
        out = np.multiply((params.i_threshold * np.exp(k * v))[:, lines], factors, out=out)
    else:
        out = np.subtract(device.saturated_current(params, v[:, lines], vth), params.i_off,
                          out=out)
    return np.minimum(out, params.i_on - params.i_off, out=out)


def _summed_currents(vth: np.ndarray, factors, lines, weights: np.ndarray, n_fets,
                     cfg: CellConfig, params: DeviceParams,
                     queries: np.ndarray) -> np.ndarray:
    """Weighted sums of full-drive FeFET currents per query; shape (S, R).

    The `_fet_currents` of vth (..., F) meet the weights in a matmul, plus
    n_fets i_off floors a row.  `_row_terms` builds the first five
    arguments: in the direct form vth (R, 2C), lines None (all 2C, in order)
    and weights (2C,); in the table form the pairs of `_pair_tables`.
    The queries go through in blocks of about BLOCK_CELLS FeFET currents,
    at least one query each, one product per block.  Overflow warnings are
    silenced only where a row could overflow: entering `np.errstate` costs
    a one-address resolve, as in the cam-program benchmark, a few percent.
    """
    block = max(1, BLOCK_CELLS // vth.size)
    buf = np.empty((min(block, len(queries)),) + vth.shape)
    out = np.empty((len(queries),) + vth.shape[:-1] + weights.shape[1:])
    # no row draws more than n_fets i_on; past the float range it draws inf
    with np.errstate(over="ignore") if params.i_on >= 1e300 / n_fets else nullcontext():
        for start in range(0, len(queries), block):
            q = queries[start:start + block]
            v = np.concatenate((q, inverter(q, cfg)), axis=1)
            cells = _fet_currents(v, lines, vth, factors, params, out=buf[:len(q)])
            # in the direct form, one (queries x rows, 2C) matrix-vector product
            np.matmul(cells.reshape(-1, cells.shape[-1]), weights,
                      out=out[start:start + len(q)].reshape((-1,) + weights.shape[1:]))
        out += n_fets * params.i_off
    return out


def _ml_voltage(p: MatchLineParams, vdd: float, v_dsat: float, n_cols: int,
                static_currents: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact V_ML(times) for C_ML dV/dt = -I_static min(V/v_dsat, 1), V(0) = vdd,
    shaped times.shape + static_currents.shape.  Nothing divides by the
    current, so a row whose current underflows to 0 stays at vdd.

    With lin = vdd - I t / C the linear fall, the line past the knee is
    knee e^((lin - knee)/v_dsat).  Before the knee (lin >= knee) that term,
    exponent capped at 0, is knee <= lin; past it, e^x >= 1 + x and
    knee <= v_dsat keep it at or above lin.  So the larger of the two is the
    solution on both branches.

    It guards its own overflow: a row whose I / C overflows falls by (I t) / C,
    and an inf current too starts at vdd, without a numpy warning."""
    c_ml = ml_capacitance(p, n_cols)
    with np.errstate(over="ignore", invalid="ignore"):
        rate = static_currents / c_ml
        lin = np.multiply.outer(times, rate)
        fast = np.isinf(rate)
        if fast.any():
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


def _sense_time(arr: FecamArray, t_sense) -> float:
    """Validated sense time; None selects the column-adapted auto time."""
    if t_sense is None:
        return arr.auto_sense_time()
    return float(check_real(t_sense, "t_sense", 0, open=True))


def _top_current(arr: FecamArray, t: float) -> float:
    """The largest float current whose line, as `_ml_voltage` solves a row's
    up to t, `sense` reads as a match; cached in `arr._top_currents`.

    The line ends lower the more current its row draws, so this bisects
    over the floats' bit patterns, which order as the nonnegative floats do,
    between 0 A, a match, and inf, a mismatch as t > 0, solving up to 127
    candidates per pass.  The first pass tries the 64 floats on either side
    of the closed-form inverse of the line, the current that falls
    delta_v_ml linearly, or to the knee and then along the decay when the
    boundary lies below it; they hold the top current unless rounding in
    vdd outweighs delta_v_ml, and spare a one-search run, `fecam sweep`,
    most of the bisection.  The second tries 2^-30 of it either side."""
    tops = arr._top_currents
    if t in tops:
        return tops[t]
    p, vdd, v_dsat = arr.ml_params, arr.cfg.vdd, arr.params.v_dsat
    boundary, knee = vdd - p.delta_v_ml, min(vdd, v_dsat)
    drop = (p.delta_v_ml if boundary >= knee
            else vdd - knee - v_dsat * (math.log(boundary) - math.log(knee)))
    guess = ml_capacitance(p, arr.cols) * drop / t  # 0 or inf where it under- or overflows
    tries = [np.array(guess).view(np.int64) + np.arange(-64, 65),
             np.array([guess * (1 - 2**-30), guess * (1 + 2**-30)]).view(np.int64)]
    lo, hi = 0, int(np.array(np.inf).view(np.int64))
    while hi - lo > 1:
        step = -(-(hi - lo) // 128)
        bits = tries.pop(0) if tries else np.arange(lo + step, hi, step, dtype=np.int64)
        bits = bits[(bits > lo) & (bits < hi)]
        v = _ml_voltage(p, vdd, v_dsat, arr.cols, bits.view(float), np.array([t]))
        matching = sense(v[0], p, vdd)
        miss = len(bits) if matching.all() else int(np.argmin(matching))
        lo = int(bits[miss - 1]) if miss else lo
        hi = int(bits[miss]) if miss < len(bits) else hi
    tops[t] = float(np.array(lo).view(float))
    return tops[t]


def _flags(arr: FecamArray, t: float, static: np.ndarray, queries: np.ndarray,
           vth: np.ndarray) -> np.ndarray:
    """Match flags at t of the full rows vth (R, 2C) that draw the static
    currents (S, R) under the queries (S, C), or (S, 1) for one voltage on
    every column: static <= `_top_current`.  Where a finite current lies
    within 2 (2C + 2) 2^-53 of itself of the top current, twice what a sum of
    the row's terms can round, `math.fsum` compares the row's 2C
    `_fet_currents`, its n_fets i_off floor and the top current exactly, so
    no flag depends on how the sum was taken."""
    top = _top_current(arr, t)
    flags = static <= top
    band = 2 * (2 * arr.cols + 2) * 2.0**-53
    # an inf sum stays out of the band, as fsum of its terms may overflow
    near = (static >= top / (1 + band)) & (static <= min(top / (1 - band), sys.float_info.max))
    if np.count_nonzero(near):  # much faster than near.any() or a 2-D nonzero
        s, r = np.nonzero(near)
        q = np.broadcast_to(queries[s], (len(s), arr.cols))
        v = np.concatenate((q, inverter(q, arr.cfg)), axis=1)
        held = vth[r]
        terms = _fet_currents(v, slice(None), held,
                              _threshold_factors(held, arr.params, arr.cfg.vdd), arr.params)
        ends = [-top, 2 * arr.cols * arr.params.i_off]
        flags[s, r] = [math.fsum(ends + row) <= 0.0 for row in terms.tolist()]
    return flags


def _search_rows(arr: FecamArray, queries, t_sense):
    """The one search path: validate, then read each distinct row's flag at
    t_sense from its current, and give every row its distinct row's flag.
    Returns the flags (S, R), t_sense, and the distinct rows' static
    currents (S, R_d) and row map, which a traced search solves."""
    q = real_array(queries, "query voltages")
    if q.ndim != 2 or q.shape[1] != arr.cols:
        raise DimensionMismatchError(
            f"queries of shape {q.shape} do not match {arr.cols} columns")
    if not ((q >= 0.0) & (q <= arr.cfg.vdd)).all():  # NaN fails as well
        raise OutOfRangeError(f"query voltages must lie in [0, {arr.cfg.vdd}] V")
    t = _sense_time(arr, t_sense)
    rows, vth, terms = arr._search_state
    static = _summed_currents(*terms, arr.cfg, arr.params, q)
    return _flags(arr, t, static, q, vth)[:, rows], t, static, rows


def search(arr: FecamArray, query, t_sense: float | None = None) -> SearchResult:
    """Precharge-and-discharge search of all rows against one query vector.

    t_sense None selects the column-adapted auto time.  A row matches when
    its match line is still above the sense boundary at t_sense.  The trace
    solves each distinct row's line at TRACE_POINTS times from 0 to t_sense.
    """
    matches, t, static, rows = _search_rows(arr, [query], t_sense)
    times = np.linspace(0.0, t, TRACE_POINTS)
    v = _ml_voltage(arr.ml_params, arr.cfg.vdd, arr.params.v_dsat, arr.cols, static[0], times)
    return SearchResult(matches=tuple(matches[0].tolist()), sense_time=t,
                        times=times, ml_voltages=v[:, rows])


def batch_search(arr: FecamArray, queries, t_sense: float | None = None):
    """Match flags for many query vectors at once; shape (n_queries, rows).

    Same numerics as search() without trace recording.
    """
    return _search_rows(arr, queries, t_sense)[0]


def sweep_grid(cfg: CellConfig) -> np.ndarray:
    """Search voltages 0 to vdd in steps of 1 mV, or of vdd / MAX_SWEEP_STEPS
    past vdd = 1048.576 V: the grid of `measure_bounds` and of the default
    v_sl sweep of the CLI."""
    vdd = cfg.vdd
    step = max(1e-3, vdd / MAX_SWEEP_STEPS)
    # arange can overshoot vdd by an ulp
    return np.minimum(np.arange(0.0, vdd + step / 2, step), vdd)


def measure_bounds(arr: FecamArray, row: int, t_sense: float | None = None):
    """Matching-window edges of one row under a common search voltage sweep.

    Sweeps v_sl applied to every column over `sweep_grid` and returns the
    edges of the maximal contiguous matching run, or None when nothing
    matches.  Cells of the row that hold the same thresholds draw the same
    current at every sweep point, so its sum takes each distinct cell once,
    weighted by its count; the flags read the whole row against its top
    current, so a sweep point reads as `batch_search` of the same voltages
    does (see the module docstring).
    """
    row = check_int(row, "row", 0, arr.rows - 1, OutOfRangeError)
    t = _sense_time(arr, t_sense)
    grid = sweep_grid(arr.cfg)
    upper, lower = arr.vth[row, :arr.cols], arr.vth[row, arr.cols:]
    _, first, counts = np.unique(upper + 1j * lower, return_index=True, return_counts=True)
    cells = arr.vth[row, np.concatenate((first, arr.cols + first))][None]
    queries = np.broadcast_to(grid[:, None], (len(grid), len(first)))
    static = _summed_currents(*_row_terms(cells, arr.params, arr.cfg.vdd, counts),
                              arr.cfg, arr.params, queries)
    matching = _flags(arr, t, static, grid[:, None], arr.vth[row][None])[:, 0]
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


def _write(arr: FecamArray, plans) -> tuple:
    """The one write path, of `write_row` (one plan) and `write_cells` (its
    erase and program plans, on one row).  Each plan is checked against arr
    and applied to a list of its target row's 2C thresholds; each pulse
    object is solved once, however many FeFETs it drives, and pulses are
    checked before the disturb.  Then a copy of arr takes the row, and only
    the row is checked: the other rows were checked when arr was built.  The
    copy shares arr's top currents.  Returns the new array and one disturb
    report per plan."""
    row, reports = None, []
    for plan in plans:
        target = check_int(plan.target_row, "target row", 0, arr.rows - 1, OutOfRangeError)
        if len(plan.sl_pulses) != arr.cols:
            raise DimensionMismatchError(
                f"{len(plan.sl_pulses)} pulse columns vs {arr.cols} array columns")
        if len(plan.source_bias) != arr.rows:
            raise DimensionMismatchError(
                f"{len(plan.source_bias)} bias rows vs {arr.rows} array rows")
        row = arr.vth[target].tolist() if row is None else row
        gates = [0.0] * len(row)  # V, 0 where a FeFET is left alone
        solved = {}  # id of a pulse -> its threshold
        for col, pulse in enumerate(plan.sl_pulses + plan.isl_pulses):
            if pulse is not None:
                key = id(pulse)
                if key not in solved:
                    solved[key] = device.vth_from_pulse(arr.params, pulse)
                row[col], gates[col] = solved[key], pulse.amplitude
        # a cell's worst |gate - source| is the larger of its higher gate minus
        # the source and the source minus its lower gate: rounding is
        # monotone, so that is its FeFETs' larger |gate - source|, bit for bit
        sl, isl = np.array(gates).reshape(2, -1)
        bias = np.array(plan.source_bias)[:, None]                       # (R, 1)
        magnitudes = np.maximum(np.maximum(sl, isl) - bias, bias - np.minimum(sl, isl))
        magnitudes[target] = np.nan
        report = DisturbReport(target_row=target, magnitudes=magnitudes)
        if not report.ok:
            raise DisturbViolationError(
                f"unselected gate-source magnitude {report.max_unselected:.3g} V "
                f"exceeds {DISTURB_LIMIT} V; write rejected", report=report)
        reports.append(report)
    vth = arr.vth.copy()
    vth[target] = row
    _check_thresholds(vth[target], arr.rows, arr.cols, arr.params)
    written = FecamArray._holding(vth, arr.ml_params, arr.cfg, arr.params, arr._top_currents)
    return written, reports


def write_row(arr: FecamArray, plan: WritePlan):
    """Apply one write phase to the selected row of a copy of `arr.vth`.

    Returns the new array and the disturb report for the unselected
    cells; rejects the write when any unselected device would see more than
    half the maximum write voltage between gate and source.
    """
    written, (report,) = _write(arr, [plan])
    return written, report


def inhibition_plans(arr: FecamArray, target_row: int, cells) -> list:
    """Erase and program phases that write the given cells into a row.

    Phase one erases every device in the row (negative pulses, negative
    inhibition bias); phase two programs the devices that need a threshold
    below the erased level (positive pulses, positive inhibition bias), so
    each phase keeps every unselected device at or below half the write
    voltage.  Each distinct target threshold is solved once, and its FeFETs
    share the one pulse.
    """
    targets = FecamArray._gathered([cells])[0].tolist()
    if len(targets) != 2 * arr.cols:
        raise DimensionMismatchError(
            f"{len(targets) // 2} cells vs {arr.cols} array columns")
    target_row = check_int(target_row, "target row", 0, arr.rows - 1, OutOfRangeError)
    params = arr.params

    def bias(inhibit):
        rows = np.full(arr.rows, inhibit)
        rows[target_row] = 0.0
        return rows

    erase = (WritePulse(params.v_erase),) * arr.cols
    pulses = {}  # target threshold -> its program pulse, None where it stays erased
    for vth in targets:
        if vth not in pulses:
            pulses[vth] = (None if abs(vth - params.vth_high) <= device.VTH_SOLVE_TOLERANCE
                           else device.pulse_for_vth(params, vth))
    program = [pulses[vth] for vth in targets]
    return [WritePlan(target_row, erase, erase, bias(-DISTURB_LIMIT)),
            WritePlan(target_row, program[:arr.cols], program[arr.cols:], bias(DISTURB_LIMIT))]


def write_cells(arr: FecamArray, target_row: int, cells):
    """Erase-then-program a full row of target cells; returns the new array
    and the disturb reports of both phases.  Both phases write one row,
    and the new array is built once, from it."""
    return _write(arr, inhibition_plans(arr, target_row, cells))
