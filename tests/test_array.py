import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from fecam import (CellConfig, DeviceParams, DimensionMismatchError,
                   DisturbViolationError, FecamArray, InvalidParameterError,
                   MatchLineParams, InvalidPulseError, OutOfRangeError, RangeRule,
                   TableMode, TernaryBit, WritePlan, WritePulse, apply_variation,
                   batch_search, cell_current, compile_table, digital_query_voltage,
                   discharge_time, entry_to_cells, inhibition_plans, inverter,
                   level_center, match_window, measure_bounds, ml_capacitance,
                   program_analog, program_digital, program_level_window, search, sense,
                   single_mismatch_sense_time, write_cells, write_row)
from fecam import FecamCell, FecamError, FeFetState, device, pulse_for_vth
from fecam import array as fecam_array
from fecam.array import (BLOCK_CELLS, DISTURB_LIMIT, EXP_LIMIT, MAX_CELLS,
                         TABLE_ENTRIES, _fet_currents, _ml_voltage, _pair_tables,
                         _row_terms, _summed_currents, _threshold_factors, _top_current)
from fecam.device import saturated_current, vth_from_pulse
from fecam.errors import check_int


@pytest.fixture(scope="module")
def demo_cell(cfg, params):
    return program_analog(0.4, 0.6, cfg, params)


def filled(rows, cols, cell, mlp, cfg, params):
    return FecamArray.filled(rows, cols, cell, mlp, cfg, params)


class TestMlCapacitance:
    def test_empty_row_is_precharge_cap(self, mlp):
        assert ml_capacitance(mlp, 0) == mlp.c_pmos

    def test_default_single_column(self, mlp):
        # back-solved so one column discharges the boundary in 10 ns at 25 nA
        assert ml_capacitance(mlp, 1) == pytest.approx(0.50e-15, rel=1e-12)

    def test_affine_in_columns(self, mlp):
        for n in (1, 4, 16):
            assert (ml_capacitance(mlp, 2 * n) - ml_capacitance(mlp, n)
                    == pytest.approx(n * (mlp.c_drain + mlp.c_parasitic), rel=1e-12))


class TestDischargeTime:
    def test_single_column_ten_ns(self, mlp):
        assert discharge_time(mlp, 1) == pytest.approx(10e-9, rel=1e-9)

    def test_asymptote(self, mlp):
        limit = mlp.delta_v_ml / mlp.i_discharge_avg * (mlp.c_drain + mlp.c_parasitic)
        assert limit == pytest.approx(8e-9, rel=1e-9)
        assert discharge_time(mlp, 10**6) == pytest.approx(limit, rel=1e-3)

    def test_strictly_decreasing(self, mlp):
        times = [discharge_time(mlp, n) for n in range(1, 65)]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_expanded_form_agrees(self, mlp):
        # the per-column expansion is the same arithmetic to roundoff
        for n in range(1, 1025):
            expanded = (mlp.delta_v_ml / mlp.i_discharge_avg
                        * (mlp.c_pmos / n + mlp.c_drain + mlp.c_parasitic))
            assert discharge_time(mlp, n) == pytest.approx(expanded, rel=1e-12)

    def test_zero_columns_invalid(self, mlp):
        with pytest.raises(InvalidParameterError):
            discharge_time(mlp, 0)


class TestSense:
    def test_high_line_matches(self, mlp, cfg):
        assert sense(cfg.vdd, mlp, cfg.vdd) is True

    def test_exact_boundary_is_mismatch(self, mlp, cfg):
        assert sense(cfg.vdd - mlp.delta_v_ml, mlp, cfg.vdd) is False

    def test_discharged_line_mismatches(self, mlp, cfg):
        assert sense(0.0, mlp, cfg.vdd) is False


class TestSearch:
    def test_demo_window_three_inputs(self, demo_cell, mlp, cfg, params):
        arr = filled(1, 1, demo_cell, mlp, cfg, params)
        for v, want in ((0.3, False), (0.5, True), (0.7, False)):
            assert search(arr, [v]).matches == (want,)

    def test_auto_sense_time_used(self, demo_cell, mlp, cfg, params):
        arr = filled(1, 8, demo_cell, mlp, cfg, params)
        result = search(arr, [0.5] * 8)
        assert result.sense_time == pytest.approx(discharge_time(mlp, 8), rel=1e-12)

    def test_all_dont_care_matches_everything(self, mlp, cfg, params):
        wild = program_digital(TernaryBit.DONT_CARE, cfg, params)
        arr = filled(3, 4, wild, mlp, cfg, params)
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = rng.uniform(0.0, cfg.vdd, 4)
            assert all(search(arr, q).matches)

    @pytest.mark.parametrize("cols", [1, 8, 32, 64])
    def test_uniform_row_mismatch_scales_with_columns(self, demo_cell, mlp, cfg,
                                                      params, cols):
        # oracle: the per-cell current at 0.65 V exceeds the turn-on criterion,
        # so the adapted time must let the line cross the boundary
        i_cell = cell_current(demo_cell, 0.65, cfg.vdd, cfg, params)
        assert i_cell > params.i_threshold
        arr = filled(1, cols, demo_cell, mlp, cfg, params)
        assert search(arr, [0.65] * cols).matches == (False,)

    def test_trace_starts_at_vdd_and_never_rises(self, demo_cell, mlp, cfg, params):
        arr = filled(2, 3, demo_cell, mlp, cfg, params)
        result = search(arr, [0.5, 0.65, 0.3])
        assert (result.ml_voltages[0] == cfg.vdd).all()
        assert (np.diff(result.ml_voltages, axis=0) <= 1e-15).all()
        assert (result.ml_voltages >= -1e-12).all()

    def test_deterministic_bit_identical(self, demo_cell, mlp, cfg, params):
        arr = filled(2, 3, demo_cell, mlp, cfg, params)
        a = search(arr, [0.5, 0.65, 0.3])
        b = search(arr, [0.5, 0.65, 0.3])
        assert a.matches == b.matches
        assert np.array_equal(a.ml_voltages, b.ml_voltages)
        assert np.array_equal(a.times, b.times)

    def test_query_validation(self, demo_cell, mlp, cfg, params):
        arr = filled(1, 2, demo_cell, mlp, cfg, params)
        with pytest.raises(DimensionMismatchError):
            search(arr, [0.5])
        with pytest.raises(OutOfRangeError):
            search(arr, [0.5, 1.5])
        for bad in (np.nan, np.inf):
            with pytest.raises(OutOfRangeError):
                search(arr, [0.5, bad])
            with pytest.raises(OutOfRangeError):
                batch_search(arr, [[0.5, 0.5], [0.5, bad]])
        for t in (0.0, -1e-9, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                search(arr, [0.5, 0.5], t)
            with pytest.raises(InvalidParameterError):
                batch_search(arr, [[0.9, 0.9]], t)
            with pytest.raises(InvalidParameterError):
                measure_bounds(arr, 0, t)

    def test_digital_truth_table_at_array_level(self, mlp, cfg, params):
        # stored x query with digital voltages reproduces the TCAM table
        bits = (TernaryBit.ZERO, TernaryBit.ONE, TernaryBit.DONT_CARE)
        for stored in bits:
            arr = filled(1, 1, program_digital(stored, cfg, params), mlp, cfg,
                         params)
            for query in (TernaryBit.ZERO, TernaryBit.ONE):
                want = stored is TernaryBit.DONT_CARE or stored is query
                v = digital_query_voltage(query, cfg)
                assert search(arr, [v]).matches == (want,), (stored, query)

    def test_cell_level_agreement_on_sweep(self, demo_cell, mlp, cfg, params):
        # the cell current criterion and 1x1 auto sensing agree outside a
        # 25 mV band around each window edge
        arr = filled(1, 1, demo_cell, mlp, cfg, params)
        lo, hi = match_window(demo_cell, cfg, params)
        grid = np.arange(0.0, cfg.vdd + 5e-4, 1e-3)
        array_match = batch_search(arr, grid[:, None])[:, 0]
        cell_match = (grid > lo) & (grid < hi)
        edge_distance = np.minimum(np.abs(grid - lo), np.abs(grid - hi))
        disagree = array_match != cell_match
        assert not (disagree & (edge_distance > 0.025)).any()


class TestMeasureBounds:
    def test_single_cell_bounds(self, demo_cell, mlp, cfg, params):
        arr = filled(1, 1, demo_cell, mlp, cfg, params)
        lo, hi = measure_bounds(arr, 0)
        assert lo == pytest.approx(0.4, abs=0.02)
        assert hi == pytest.approx(0.6, abs=0.02)
        # a supply whose 1 mV sweep grid overshoots it by an ulp
        cfg_113 = replace(cfg, vdd=1.13)
        cell = program_analog(0.4, 0.6, cfg_113, params)
        lo, hi = measure_bounds(filled(1, 1, cell, mlp, cfg_113, params), 0)
        assert lo == pytest.approx(0.4, abs=0.02)
        assert hi == pytest.approx(0.6, abs=0.02)

    @pytest.mark.parametrize("row", [1.5, 0.0, "0", None, True])
    def test_row_must_be_an_integer(self, demo_cell, mlp, cfg, params, row):
        # 1.5 used to raise a bare IndexError
        arr = filled(2, 1, demo_cell, mlp, cfg, params)
        with pytest.raises(InvalidParameterError, match="row must be an integer"):
            measure_bounds(arr, row)
        assert measure_bounds(arr, np.int64(1)) == measure_bounds(arr, 1)

    def test_row_count_invariance(self, demo_cell, mlp, cfg, params):
        bounds = []
        for rows in (1, 16, 64):
            arr = filled(rows, 1, demo_cell, mlp, cfg, params)
            bounds.append(measure_bounds(arr, rows // 2))
        for lo, hi in bounds[1:]:
            assert abs(lo - bounds[0][0]) <= 1e-3
            assert abs(hi - bounds[0][1]) <= 1e-3

    def test_column_adaptation_keeps_bounds(self, demo_cell, mlp, cfg, params):
        for cols in (1, 8, 32, 64):
            arr = filled(1, cols, demo_cell, mlp, cfg, params)
            lo, hi = measure_bounds(arr, 0)
            assert lo == pytest.approx(0.4, abs=0.02)
            assert hi == pytest.approx(0.6, abs=0.02)

    def test_bounds_build_no_search_state(self, mlp, cfg, params):
        """measure_bounds sums its row's distinct cells itself: an array
        that was never searched holds no search state after it, nor any
        other new attribute, and its first search builds one."""
        arr = FecamArray(cells=[[program_level_window(k, k, cfg, params)] * 8
                                for k in (0, 3, 3, 5)],
                         ml_params=mlp, cfg=cfg, params=params)
        held = set(vars(arr))
        assert measure_bounds(arr, 1) is not None
        assert set(vars(arr)) == held
        batch_search(arr, [[0.5] * 8])
        assert "_search_state" in vars(arr)

    @pytest.mark.parametrize("slope", [5e-3, 5.8e-3, 6.5e-3, 8e-3])
    def test_bounds_take_the_search_branch(self, mlp, cfg, slope, monkeypatch):
        """A search and measure_bounds of one array sum through the same
        kernel branch, the law or the factored form, in either order.  At
        5.8 mV/decade the thresholds of the whole array (up to 0.9 V) could
        overflow a factor and those of row 1 (up to 0.6 V) could not; at 6.5
        neither could, but the device range (up to 1.1 V) could."""
        params = DeviceParams(subthreshold_slope=slope)
        law = []
        real = device.saturated_current
        monkeypatch.setattr(device, "saturated_current",
                            lambda *args: law.append(True) or real(*args))

        def law_taken(run):
            law.clear()
            run()
            return bool(law)

        level_rows = [[program_level_window(k, k, cfg, params)] * 8 for k in (0, 3, 3, 7)]
        bank = table_bank(TableMode.ANALOG3B, mlp, cfg, params)
        assert np.abs(bank.vth).max() <= 0.9 + 1e-12
        for arr in (FecamArray(cells=level_rows, ml_params=mlp, cfg=cfg, params=params), bank):
            fresh = FecamArray.from_vth(arr.vth, mlp, cfg, params)
            query = [[0.5] * arr.cols]
            taken = {law_taken(lambda: batch_search(arr, query)),
                     law_taken(lambda: measure_bounds(arr, 1)),
                     law_taken(lambda: measure_bounds(fresh, 1)),
                     law_taken(lambda: batch_search(fresh, query))}
            assert len(taken) == 1, taken

    def test_no_match_returns_none(self, mlp, cfg, params):
        from fecam import FecamCell
        from fecam.device import state_for_vth
        dead = FecamCell(upper_fet=state_for_vth(params, 0.2),
                         lower_fet=state_for_vth(params, 0.2))
        arr = filled(1, 1, dead, mlp, cfg, params)
        assert measure_bounds(arr, 0) is None


def longest_run(grid, flags):
    """Edges of the first longest run of True flags, or None: how
    measure_bounds reads a sweep."""
    best, start = None, 0
    for value, group in itertools.groupby(flags.tolist()):
        n = len(list(group))
        if value and (best is None or n > best[1] - best[0] + 1):
            best = (start, start + n - 1)
        start += n
    return None if best is None else (float(grid[best[0]]), float(grid[best[1]]))


def varied(arr, sigma, seed):
    """arr with apply_variation on every threshold."""
    return FecamArray.from_vth(apply_variation(arr.params, arr.vth, sigma, seed),
                               arr.ml_params, arr.cfg, arr.params)


@st.composite
def bounds_arrays(draw):
    """Arrays of up to 4x64 cells: each row one level in every cell, mixed
    level windows, digital cells, or level rows after apply_variation; on
    either kernel branch, with or without leakage."""
    kind = draw(st.sampled_from(["uniform", "mixed", "digital", "varied"]), label="kind")
    rows = draw(st.integers(1, 4), label="rows")
    cols = draw(st.integers(1, 64), label="cols")
    slope = draw(st.floats(-5.0, 0.0).map(lambda x: 10.0 ** x)
                 | st.sampled_from([1e-5, 0.08]), label="slope")
    params = DeviceParams(subthreshold_slope=slope,
                          i_off=draw(st.sampled_from([0.0, 1e-12]), label="i_off"))
    cfg = CellConfig()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if kind == "digital":
        bits = list(TernaryBit)
        grid = [[program_digital(bits[b], cfg, params) for b in rng.integers(0, 3, cols)]
                for _ in range(rows)]
    elif kind == "mixed":
        grid = [[program_level_window(*sorted(map(int, rng.integers(0, 8, 2))), cfg, params)
                 for _ in range(cols)] for _ in range(rows)]
    else:
        grid = [[program_level_window(int(k), int(k), cfg, params)] * cols
                for k in rng.integers(0, 8, rows)]
    arr = FecamArray(cells=grid, ml_params=MatchLineParams(), cfg=cfg, params=params)
    if kind == "varied":
        sigma = draw(st.floats(1e-3, 0.05), label="sigma")
        arr = varied(arr, sigma, int(rng.integers(0, 1000)))
    return arr


class TestBoundsAreTheSweep:
    @settings(max_examples=120)
    @given(arr=bounds_arrays(), data=st.data())
    def test_bounds_equal_the_per_column_sweep(self, arr, data, overflow_edge):
        """measure_bounds, which sums each distinct cell once, weighted by its
        count, reads the longest run of batch_search over the same common
        voltages, also where a line ends on the sense boundary."""
        t_sense = data.draw(st.none() | st.floats(-12.0, -3.0).map(lambda x: 10.0 ** x)
                            | st.sampled_from([0.5, 10.0]).map(lambda f: f * overflow_edge(arr)),
                            label="t_sense")
        vdd = arr.cfg.vdd
        grid = np.minimum(np.arange(0.0, vdd + 5e-4, 1e-3), vdd)
        flags = batch_search(arr, np.repeat(grid[:, None], arr.cols, axis=1), t_sense)
        for row in range(arr.rows):
            assert measure_bounds(arr, row, t_sense) == longest_run(grid, flags[:, row]), row

    def test_ties_settle_as_mismatches(self, mlp, cfg):
        """At 10 uV/decade without leakage, a sweep point on a window edge
        has each boundary FeFET draw exactly i_threshold, so a row of n
        columns draws the auto time's design current n i_threshold and its
        line ends on the sense boundary: a mismatch, at every column count,
        through measure_bounds and through batch_search, which sums the same
        row per column."""
        params = DeviceParams(subthreshold_slope=1e-5, i_off=0.0)
        grid = np.minimum(np.arange(0.0, cfg.vdd + 5e-4, 1e-3), cfg.vdd)
        for level in range(5):  # window edges 0.1 to 0.6 V, each a grid point
            cell = program_level_window(level, level, cfg, params)
            edges = 100 * (level + 1), 100 * (level + 2)
            assert (grid[list(edges)] == cfg.level_bounds[level:level + 2]).all()
            for cols in range(1, 65):
                arr = filled(1, cols, cell, mlp, cfg, params)
                assert measure_bounds(arr, 0) == (grid[edges[0] + 1], grid[edges[1] - 1])
                assert not batch_search(arr, np.repeat(grid[list(edges)], cols)
                                        .reshape(2, cols)).any()


@st.composite
def tiled_arrays(draw):
    """Arrays of up to 12 rows of up to 16 mixed level windows, each row
    drawn in random order from a pool of 1 to rows distinct rows, so that all
    rows are equal, some repeat, or none do; or, after apply_variation, every
    row distinct.  Windows span the lowest 1 to 8 levels, so that arrays
    with few thresholds per column, which take the table form, are drawn
    beside those that take the direct form.  Built from the cell grid or
    again from its thresholds; on either kernel branch, with or without
    leakage."""
    rows = draw(st.integers(1, 12), label="rows")
    cols = draw(st.integers(1, 16), label="cols")
    pool = draw(st.integers(1, rows), label="pool")
    levels = draw(st.integers(1, 8), label="levels")
    slope = 10.0 ** draw(st.floats(-5.0, 0.0), label="log10 slope")
    params = DeviceParams(subthreshold_slope=slope,
                          i_off=draw(st.sampled_from([0.0, 1e-12]), label="i_off"))
    cfg = CellConfig()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    windows = np.sort(rng.integers(0, levels, (pool, cols, 2)), axis=2)
    rows_of = [[program_level_window(int(lo), int(hi), cfg, params) for lo, hi in row]
               for row in windows]
    grid = [rows_of[i] for i in rng.permutation(np.arange(rows) % pool)]
    arr = FecamArray(cells=grid, ml_params=MatchLineParams(), cfg=cfg, params=params)
    if draw(st.booleans(), label="from_vth"):
        arr = FecamArray.from_vth(arr.vth, arr.ml_params, arr.cfg, arr.params)
    if draw(st.booleans(), label="varied"):
        arr = varied(arr, draw(st.floats(1e-3, 0.05), label="sigma"),
                     int(rng.integers(0, 1000)))
    return arr


def exact_flags(arr, queries, t):
    """Flags (queries, rows) read from the exact sum, in rationals, of each
    row's `_fet_currents` and its 2 cols i_off floor: at most the top
    current at t is a match."""
    top = Fraction(_top_current(arr, t))
    floor = Fraction(2 * arr.cols * arr.params.i_off)
    v = np.concatenate((queries, inverter(queries, arr.cfg)), axis=1)
    flags = np.empty((len(queries), arr.rows), bool)
    for r, row in enumerate(arr.vth[:, None]):
        terms = _fet_currents(v, slice(None), row,
                              _threshold_factors(row, arr.params, arr.cfg.vdd), arr.params)
        flags[:, r] = [sum(map(Fraction, fets), floor) <= top for fets in terms.tolist()]
    return flags


class TestDistinctRows:
    @settings(max_examples=150)
    @given(arr=tiled_arrays(), data=st.data())
    def test_every_row_reads_its_own_solve(self, arr, data, overflow_edge):
        """A search sums each distinct row once, in the direct or the table
        form, in an order set by the block's shape; each row must still read
        the exact sum of its own FeFET terms against the top current, and the
        solve of its own current, summed alone, must read as that current
        against the top current."""
        t_sense = data.draw(st.none() | st.floats(-12.0, -3.0).map(lambda x: 10.0 ** x)
                            | st.sampled_from([0.5, 10.0]).map(lambda f: f * overflow_edge(arr)),
                            label="t_sense")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="qseed"))
        # level centres, which some rows match; level bounds, which are
        # window edges; and uniform voltages
        centers = np.array([level_center(k, arr.cfg) for k in range(8)])
        edges = np.array(arr.cfg.level_bounds)
        queries = np.concatenate((centers[rng.integers(0, 8, (4, arr.cols))],
                                  edges[rng.integers(0, 9, (4, arr.cols))],
                                  rng.uniform(0.0, arr.cfg.vdd, (4, arr.cols))))
        keys = [row.tobytes() for row in arr.vth]
        assert isinstance(arr._search_state[0], slice) == (len(set(keys)) == arr.rows)

        flags = batch_search(arr, queries, t_sense)
        t = arr.auto_sense_time() if t_sense is None else t_sense
        assert (flags == exact_flags(arr, queries, t)).all()
        static = np.hstack([_summed_currents(*_row_terms(row[None], arr.params, arr.cfg.vdd),
                                             arr.cfg, arr.params, queries) for row in arr.vth])
        v = _ml_voltage(arr.ml_params, arr.cfg.vdd, arr.params.v_dsat, arr.cols, static,
                        np.array([t]))
        solved = sense(v[-1], arr.ml_params, arr.cfg.vdd)
        assert (solved == (static <= _top_current(arr, t))).all()

        for i in rng.choice(len(queries), 3, replace=False):
            result = search(arr, queries[i], t_sense)
            assert result.matches == tuple(flags[i].tolist())
            traces = {}
            for key, trace in zip(keys, result.ml_voltages.T):
                assert traces.setdefault(key, trace.tobytes()) == trace.tobytes()

    def test_signed_zeros_are_distinct_bytes(self, mlp, cfg):
        """Rows apart only in the sign of a zero threshold differ in their
        bytes, so they are distinct rows, though they draw the same current."""
        params = DeviceParams(vth_low=-0.1)
        zero, negative = [0.0, 0.5, 0.3, 0.0], [0.0, 0.5, 0.3, -0.0]
        apart = FecamArray.from_vth([zero, negative], mlp, cfg, params)
        assert apart._search_state[0] == slice(None)
        tiled = FecamArray.from_vth([zero, negative, zero, negative], mlp, cfg, params)
        rows, vth, _ = tiled._search_state
        assert len(vth) == 2 and rows.tolist() in ([0, 1, 0, 1], [1, 0, 1, 0])
        queries = np.array([[0.2, 0.7], [0.5, 0.5]])
        for arr in (apart, tiled):
            flags = batch_search(arr, queries)
            assert (flags == flags[:, :1]).all()

    def test_writes_do_not_share_the_index(self, mlp, cfg, params):
        """write_cells returns a new array with its own distinct-row index:
        a repeated row can turn distinct and a distinct row can turn into a
        copy, and the array written from keeps its answers."""
        cell = [program_level_window(k, k, cfg, params) for k in range(8)]
        queries = np.array([[level_center(k, cfg)] * 4 for k in (2, 5, 6)])

        def answers(arr):
            return batch_search(arr, queries), [search(arr, q).matches for q in queries]

        arr = filled(4, 4, cell[2], mlp, cfg, params)
        levels = [2, 2, 2, 2]
        seen = [(arr, answers(arr))]
        # rows 1-3 repeat row 0; then row 0 turns distinct; row 1 copies it;
        # row 3 turns distinct, then into a copy of rows 0 and 1
        for row, level, distinct in [(0, 5, 2), (1, 5, 2), (3, 6, 3), (3, 5, 2)]:
            arr, _ = write_cells(arr, row, [cell[level]] * 4)
            levels[row] = level
            flags, matches = answers(arr)
            want = np.array([[k == held for held in levels] for k in (2, 5, 6)])
            assert (flags == want).all(), (levels, flags)
            assert matches == [tuple(f) for f in want.tolist()]
            rows, vth, _ = arr._search_state
            assert len(vth) == distinct
            assert (vth[rows] == arr.vth).all()
            seen.append((arr, (flags, matches)))
        for old, (flags, matches) in seen:
            again = answers(old)
            assert (again[0] == flags).all() and again[1] == matches


@st.composite
def edge_arrays(draw):
    """Arrays of 2 to 40 rows of 1 to 63 windows over the lowest 1 to 4
    levels, which take the table form or the direct one, with queries on
    the window edges of drawn rows: at 10 uV/decade without leakage each
    edge has one FeFET of its cell draw exactly i_threshold, so lines end on
    the sense boundary at the auto time."""
    rows = draw(st.integers(2, 40), label="rows")
    cols = draw(st.integers(1, 63), label="cols")
    slope = draw(st.just(1e-5) | st.floats(-5.0, -1.0).map(lambda x: 10.0 ** x), label="slope")
    params = DeviceParams(subthreshold_slope=slope,
                          i_off=draw(st.sampled_from([0.0, 1e-12]), label="i_off"))
    cfg = CellConfig()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    windows = np.sort(rng.integers(0, draw(st.integers(1, 4), label="levels"),
                                   (rows, cols, 2)), axis=2)
    cells = {(lo, hi): program_level_window(lo, hi, cfg, params)
             for lo, hi in set(map(tuple, windows.reshape(-1, 2).tolist()))}
    arr = FecamArray(cells=[[cells[tuple(w)] for w in row] for row in windows.tolist()],
                     ml_params=MatchLineParams(), cfg=cfg, params=params)
    edges = np.array(cfg.level_bounds)
    held = windows[rng.integers(0, rows, 8)]
    queries = np.where(rng.integers(0, 2, (8, cols)), edges[held[..., 0]],
                       edges[held[..., 1] + 1])
    return arr, queries


class TestCurrentRule:
    @settings(max_examples=60)
    @given(case=edge_arrays(), data=st.data())
    def test_a_row_reads_as_a_one_row_array(self, case, data):
        """In either form, each row of an array reads, through batch_search
        and search, the flags it reads alone as a one-row array, also where
        its line ends on the sense boundary."""
        arr, queries = case
        t_sense = data.draw(st.none() | st.floats(-10.0, -6.0).map(lambda x: 10.0 ** x),
                            label="t_sense")
        flags = batch_search(arr, queries, t_sense)
        with mock.patch.object(fecam_array, "TABLE_ENTRIES", 0):  # no matrix fits
            direct = FecamArray.from_vth(arr.vth, arr.ml_params, arr.cfg, arr.params)
            assert (batch_search(direct, queries, t_sense) == flags).all()
        assert direct._search_state[2][2] is None
        event("table form" if arr._search_state[2][2] is not None else "direct form")
        for r, row in enumerate(arr.vth):
            alone = FecamArray.from_vth(row[None], arr.ml_params, arr.cfg, arr.params)
            assert (batch_search(alone, queries, t_sense)[:, 0] == flags[:, r]).all(), r
        for i in (0, 5):
            assert search(arr, queries[i], t_sense).matches == tuple(flags[i].tolist())

    def test_a_tied_row_reads_a_mismatch_in_every_shape(self, mlp, cfg):
        """At 10 uV/decade without leakage, a 62-column row of level 3 queried
        at 0.5 V, its upper edge, ends on the sense boundary.  It read a
        mismatch alone and a match as row 0 of 2, 3, 8, 16 or 64 rows, as its
        sum rounded by the product's shape; now it reads a mismatch in each."""
        params = DeviceParams(subthreshold_slope=1e-5, i_off=0.0)
        level = [program_level_window(k, k, cfg, params) for k in range(8)]
        rng = np.random.default_rng(0)
        query = [0.5] * 62
        read = []
        for rows in (1, 2, 3, 8, 16, 64):
            others = [[level[k] for k in rng.integers(0, 8, 62)] for _ in range(rows - 1)]
            arr = FecamArray(cells=[[level[3]] * 62] + others, ml_params=mlp, cfg=cfg,
                             params=params)
            read.append((bool(batch_search(arr, [query])[0, 0]), search(arr, query).matches[0]))
        assert read == [(False, False)] * 6

    def test_writes_share_the_top_currents(self, demo_cell, mlp, cfg, params):
        """A write changes no line parameter, so the written array reads the
        top currents its source found, and finds none again."""
        arr = filled(4, 4, demo_cell, mlp, cfg, params)
        batch_search(arr, [[0.5] * 4])
        tops = arr._top_currents
        assert list(tops) == [arr.auto_sense_time()]
        written, _ = write_cells(arr, 1, [program_level_window(2, 2, cfg, params)] * 4)
        assert written._top_currents is tops
        with mock.patch.object(fecam_array, "_ml_voltage", side_effect=AssertionError):
            query = [[level_center(2, cfg)] * 4]
            assert batch_search(written, query).tolist() == [[False, True, False, False]]


class TestWrite:
    def test_factors_wait_for_the_first_search(self, demo_cell, mlp, cfg, params):
        # a write used to factor every threshold of the array it returned
        arr = filled(4, 4, demo_cell, mlp, cfg, params)
        written, _ = write_cells(arr, 1, [program_level_window(2, 2, cfg, params)] * 4)
        assert "_search_state" not in vars(written)
        batch_search(written, [[0.5] * 4])
        assert "_search_state" in vars(written)

    def test_half_voltage_plan_passes_at_limit(self, demo_cell, mlp, cfg, params):
        arr = filled(4, 2, demo_cell, mlp, cfg, params)
        plan = WritePlan(target_row=1,
                         sl_pulses=(WritePulse(4.0),) * 2,
                         isl_pulses=(WritePulse(4.0),) * 2,
                         source_bias=(2.0, 0.0, 2.0, 2.0))
        _, report = write_row(arr, plan)
        assert report.max_unselected == pytest.approx(DISTURB_LIMIT)
        assert report.ok

    def test_zero_bias_plan_rejected(self, demo_cell, mlp, cfg, params):
        arr = filled(4, 2, demo_cell, mlp, cfg, params)
        plan = WritePlan(target_row=1,
                         sl_pulses=(WritePulse(4.0),) * 2,
                         isl_pulses=(WritePulse(4.0),) * 2,
                         source_bias=(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(DisturbViolationError) as err:
            write_row(arr, plan)
        assert err.value.report.max_unselected == pytest.approx(4.0)

    def test_unselected_rows_untouched(self, demo_cell, mlp, cfg, params):
        arr = filled(8, 8, demo_cell, mlp, cfg, params)
        before = arr.vth.copy()
        with pytest.raises(ValueError):
            arr.vth[3, 0] = 0.2  # the state is read-only
        target = [program_analog(0.2, 0.3, cfg, params) for _ in range(8)]
        new_arr, _ = write_cells(arr, 3, target)
        assert np.array_equal(arr.vth, before)  # the input array is unchanged
        for r in range(8):
            if r == 3:
                continue
            assert new_arr.cells[r] == arr.cells[r]

    def test_write_programs_targets_within_tolerance(self, mlp, cfg, params):
        wild = program_digital(TernaryBit.DONT_CARE, cfg, params)
        arr = filled(2, 3, wild, mlp, cfg, params)
        targets = [program_analog(0.1, 0.3, cfg, params),
                   program_analog(0.4, 0.6, cfg, params),
                   program_digital(TernaryBit.ONE, cfg, params)]
        new_arr, reports = write_cells(arr, 0, targets)
        assert all(r.ok for r in reports)
        for written, target in zip(new_arr.cells[0], targets):
            assert abs(written.upper_fet.vth - target.upper_fet.vth) <= 1e-3
            assert abs(written.lower_fet.vth - target.lower_fet.vth) <= 1e-3
        # the cells view rebuilds the same state, factors included
        rebuilt = FecamArray(cells=new_arr.cells, ml_params=mlp, cfg=cfg, params=params)
        assert np.array_equal(rebuilt.vth, new_arr.vth)
        queries = np.random.default_rng(7).uniform(0.0, cfg.vdd, (500, 3))
        t = single_mismatch_sense_time(mlp, params, cfg, 3)
        for sense_time in (None, t):
            assert np.array_equal(batch_search(new_arr, queries, sense_time),
                                  batch_search(rebuilt, queries, sense_time))

    def test_inhibition_plans_are_disturb_free(self, mlp, cfg, params):
        wild = program_digital(TernaryBit.DONT_CARE, cfg, params)
        arr = filled(5, 4, wild, mlp, cfg, params)
        # an analog window, then cells that leave one or both FETs erased
        # (no program pulse: the gate stays at 0 V against the +2 V source)
        targets = [program_analog(0.3, 0.5, cfg, params)] + [
            program_digital(bit, cfg, params)
            for bit in (TernaryBit.ONE, TernaryBit.ZERO, TernaryBit.DONT_CARE)]
        # the analog cell's program pulses: vth 0.5 V needs 60% of the domains
        # switched, 3 + 0.4 * 0.2533471 V; vth 0.7 V needs 40%, 3 - 0.4 * 0.2533471 V
        analog_worst = 3.0 + 0.4 * 0.2533471031357997 - DISTURB_LIMIT
        erase_row = [4.0 - DISTURB_LIMIT] * 4    # |-4 V - (-2 V)| everywhere
        program_row = [analog_worst, DISTURB_LIMIT, DISTURB_LIMIT, DISTURB_LIMIT]
        plans = inhibition_plans(arr, 2, targets)
        assert plans[1].sl_pulses[1] is None and plans[1].isl_pulses[2] is None
        assert plans[1].sl_pulses[3] is None and plans[1].isl_pulses[3] is None
        for plan, row in zip(plans, (erase_row, program_row)):
            _, report = write_row(arr, plan)
            assert report.max_unselected <= DISTURB_LIMIT + 1e-12
            want = np.array([row] * 5)
            want[2] = np.nan
            assert report.target_row == 2
            np.testing.assert_allclose(report.magnitudes, want, rtol=0, atol=1e-9)

    def test_plan_validation(self, demo_cell, mlp, cfg, params):
        with pytest.raises(InvalidParameterError):
            WritePlan(target_row=0, sl_pulses=(WritePulse(4.0),),
                      isl_pulses=(WritePulse(4.0),), source_bias=(1.0,))
        with pytest.raises(InvalidParameterError, match=r"one number per row, got shape \(1, 1\)"):
            WritePlan(target_row=0, sl_pulses=(), isl_pulses=(), source_bias=[[0.0]])
        with pytest.raises(DimensionMismatchError, match="1 SL pulses vs 0 inverted-SL"):
            WritePlan(target_row=0, sl_pulses=(None,), isl_pulses=(), source_bias=(0.0,))
        # a bare TypeError from tuple(5), and an AttributeError on 3.0's amplitude
        with pytest.raises(InvalidParameterError, match="pulse columns must be sequences"):
            WritePlan(target_row=0, sl_pulses=5, isl_pulses=(None,), source_bias=(0.0, 2.0))
        plan = WritePlan(target_row=0, sl_pulses=(3.0,), isl_pulses=(None,),
                         source_bias=(0.0, 2.0))
        with pytest.raises(InvalidParameterError, match="not a WritePulse"):
            write_row(filled(2, 1, demo_cell, mlp, cfg, params), plan)
        # the pulse is checked against the array's DeviceParams when applied,
        # before the disturb report (which this plan also fails)
        plan = WritePlan(target_row=0, sl_pulses=(WritePulse(-4.5),),
                         isl_pulses=(None,), source_bias=(0.0, -DISTURB_LIMIT))
        with pytest.raises(InvalidPulseError):
            write_row(filled(2, 1, demo_cell, mlp, cfg, params), plan)
        arr = filled(2, 2, demo_cell, mlp, cfg, params)
        plan = WritePlan(target_row=0, sl_pulses=(WritePulse(3.0),),
                         isl_pulses=(None,), source_bias=(0.0, 2.0))
        with pytest.raises(DimensionMismatchError):
            write_row(arr, plan)

    @pytest.mark.parametrize("row", [1.5, 1.0, None, True, -1, 2,
                                     pytest.param(10 ** 5000, id="10**5000")])
    def test_target_row_must_be_an_integer(self, demo_cell, mlp, cfg, params, row):
        # write_cells(arr, 1.5, ...) used to raise a bare IndexError
        arr = filled(2, 1, demo_cell, mlp, cfg, params)
        error = OutOfRangeError if type(row) is int else InvalidParameterError
        with pytest.raises(error, match="target row must be an integer"):
            write_cells(arr, row, [demo_cell])
        # the pulse solve meets each threshold within 1 mV
        assert np.allclose(write_cells(arr, np.int64(1), [demo_cell])[0].vth, arr.vth, atol=1e-3)

    def test_programming_range_comes_from_device_params(self, mlp, cfg):
        # a fixed 4 V cap once refused this pulse whatever the device allowed
        params = DeviceParams(v_prog_max=4.5)
        wild = program_digital(TernaryBit.DONT_CARE, cfg, params)
        arr = filled(1, 2, wild, mlp, cfg, params)
        plan = WritePlan(target_row=0, sl_pulses=(WritePulse(4.5), None),
                         isl_pulses=(None, None), source_bias=(0.0,))
        new_arr, report = write_row(arr, plan)
        assert report.ok
        want = arr.vth.copy()
        want[0, 0] = vth_from_pulse(params, WritePulse(4.5))
        assert np.array_equal(new_arr.vth, want)


def reference_plans(arr, target_row, cells):
    """The erase and program plans as the per-column loop built them: one
    pulse solve per FeFET, biases row by row."""
    cells, params = tuple(cells), arr.params
    if len(cells) != arr.cols:
        raise DimensionMismatchError(f"{len(cells)} cells vs {arr.cols} array columns")
    erase = WritePulse(params.v_erase)

    def bias(inhibit):
        return tuple(0.0 if r == target_row else inhibit for r in range(arr.rows))

    erase_plan = WritePlan(target_row, (erase,) * arr.cols, (erase,) * arr.cols,
                           bias(-DISTURB_LIMIT))

    def program_pulse(state):
        if abs(state.vth - params.vth_high) <= device.VTH_SOLVE_TOLERANCE:
            return None
        return device.pulse_for_vth(params, state.vth)

    return [erase_plan, WritePlan(target_row, tuple(program_pulse(c.upper_fet) for c in cells),
                                  tuple(program_pulse(c.lower_fet) for c in cells),
                                  bias(DISTURB_LIMIT))]


def reference_write_row(arr, plan):
    """One phase as the per-column loop applied it: a threshold solve per
    FeFET, then a checked array of every row."""
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
            vth[plan.target_row, col] = vth_from_pulse(arr.params, pulse)
    gates = np.array([[0.0 if p is None else p.amplitude for p in pulses]
                      for pulses in (plan.sl_pulses, plan.isl_pulses)])
    magnitudes = np.abs(gates[:, None, :] - np.array(plan.source_bias)[:, None]).max(axis=0)
    magnitudes[plan.target_row] = np.nan
    worst = np.nanmax(magnitudes) if not np.isnan(magnitudes).all() else 0.0
    if worst > DISTURB_LIMIT + 1e-12:
        raise DisturbViolationError(f"unselected gate-source magnitude {worst:.3g} V "
                                    f"exceeds {DISTURB_LIMIT} V; write rejected")
    return FecamArray.from_vth(vth, arr.ml_params, arr.cfg, arr.params), magnitudes


def reference_write_cells(arr, target_row, cells):
    reports = []
    for plan in reference_plans(arr, target_row, cells):
        arr, magnitudes = reference_write_row(arr, plan)
        reports.append((plan.target_row, magnitudes.tobytes()))
    return arr.vth.tobytes(), reports


def outcome(call, *args):
    """What a write gives, bit for bit: the new thresholds and each report's
    row and magnitudes, or the type and message of its error."""
    try:
        return call(*args)
    except FecamError as exc:
        return type(exc), str(exc)


def new_write_cells(arr, target_row, cells):
    arr, reports = write_cells(arr, target_row, cells)
    return arr.vth.tobytes(), [(r.target_row, r.magnitudes.tobytes()) for r in reports]


def planned_write_cells(arr, target_row, cells):
    reports = []
    for plan in inhibition_plans(arr, target_row, cells):
        arr, report = write_row(arr, plan)
        reports.append((report.target_row, report.magnitudes.tobytes()))
    return arr.vth.tobytes(), reports


def new_write_row(arr, plan):
    arr, report = write_row(arr, plan)
    return arr.vth.tobytes(), report.magnitudes.tobytes()


def old_write_row(arr, plan):
    arr, magnitudes = reference_write_row(arr, plan)
    return arr.vth.tobytes(), magnitudes.tobytes()


@st.composite
def write_cases(draw):
    """An array of up to 8x8 cells of any in-range thresholds, a row of level,
    digital and analog cells (analog thresholds anywhere in the device range,
    the fringes no pulse reaches included), and a row, mostly in range."""
    cfg, params = CellConfig(), DeviceParams()
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    held = st.floats(params.vth_low, params.vth_high)
    vth = draw(st.lists(held, min_size=2 * rows * cols, max_size=2 * rows * cols))
    arr = FecamArray.from_vth(np.reshape(vth, (rows, 2 * cols)), MatchLineParams(), cfg, params)
    levels = st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
        lambda k: program_level_window(min(k), max(k), cfg, params))
    digital = st.sampled_from(list(TernaryBit)).map(lambda b: program_digital(b, cfg, params))
    reachable = st.floats(params.vth_low + 0.01, params.vth_high - 0.01)
    analog = st.tuples(st.one_of(reachable, held), st.one_of(reachable, held)).map(
        lambda v: FecamCell(FeFetState(v[0]), FeFetState(v[1])))
    n_cells = draw(st.sampled_from([cols] * 18 + [cols - 1, cols + 1]))
    cells = draw(st.lists(st.one_of(levels, digital, analog), min_size=n_cells,
                          max_size=n_cells))
    bad_row = st.sampled_from([-1, rows, 1.5, None, np.int64(rows - 1)])
    row = draw(bad_row if draw(st.integers(0, 9)) == 0 else st.integers(0, rows - 1))
    return arr, row, cells


class TestWriteAgainstTheTwoPhaseLoop:
    """Writes solve each distinct threshold and pulse once and check only the
    row they replace; they must give what the per-column loop gave, bit for
    bit, errors and their order included."""

    @settings(max_examples=300)
    @given(case=write_cases())
    def test_write_cells_equals_the_loop(self, case):
        arr, row, cells = case
        want = outcome(reference_write_cells, arr, row, cells)
        event(want[0].__name__ if isinstance(want[0], type) else "written")
        assert outcome(new_write_cells, arr, row, cells) == want
        assert outcome(planned_write_cells, arr, row, cells) == want
        if not isinstance(want[0], type):  # the same plans, None on erased FeFETs
            assert inhibition_plans(arr, row, cells) == reference_plans(arr, row, cells)

    @settings(max_examples=300)
    @given(data=st.data())
    def test_write_row_equals_the_loop(self, data):
        # any plan: shared and separate pulse objects, bad pulses, biases that
        # violate the disturb limit, and counts that miss the array
        params = DeviceParams()
        rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        arr = filled(rows, cols, program_digital(TernaryBit.DONT_CARE, CellConfig(), params),
                     MatchLineParams(), CellConfig(), params)
        shared = [WritePulse(a) for a in (params.v_erase, 2.5, 4.0)]
        amplitudes = [params.v_erase, 2.0, 3.3, 4.0] + data.draw(
            st.sampled_from([[], [4.5, -3.0]]))
        pulse = st.one_of(st.none(), st.sampled_from(shared),
                          st.sampled_from(amplitudes).map(WritePulse))
        n_cols = data.draw(st.sampled_from([cols] * 8 + [cols + 1]))
        n_rows = data.draw(st.sampled_from([rows] * 8 + [rows + 1]))
        target = data.draw(st.integers(0, n_rows - 1))
        bias = data.draw(st.lists(st.sampled_from([DISTURB_LIMIT, -DISTURB_LIMIT, 0.0]),
                                  min_size=n_rows, max_size=n_rows))
        bias[target] = 0.0
        pulses = data.draw(st.lists(pulse, min_size=2 * n_cols, max_size=2 * n_cols))
        plan = WritePlan(target, pulses[:n_cols], pulses[n_cols:], bias)
        want = outcome(old_write_row, arr, plan)
        event(want[0].__name__ if isinstance(want[0], type) else "written")
        assert outcome(new_write_row, arr, plan) == want

    def test_full_switching_writes_at_vth_low(self, mlp, cfg):
        # vth_from_pulse rounded an ulp below vth_low for these parameters, so
        # both writes were refused as out of range
        params = DeviceParams(vth_low=-0.009, vth_high=0.895, coercive_sigma=0.05)
        arr = FecamArray.from_vth([[params.vth_high] * 2] * 2, mlp, cfg, params)
        cell = FecamArray.from_vth([[params.vth_low, params.vth_high]], mlp, cfg,
                                   params).cells[0][0]
        written, _ = write_cells(arr, 1, [cell])
        assert written.vth.tolist() == [[0.895, 0.895], [-0.009, 0.895]]
        plan = WritePlan(1, (pulse_for_vth(params, params.vth_low),), (None,), (DISTURB_LIMIT, 0.0))
        assert write_row(arr, plan)[0].vth.tolist() == written.vth.tolist()

    def test_a_write_costs_per_row(self, monkeypatch, mlp, cfg, params):
        """Counted, not timed: writing an analog entry's cells into a 64x8
        bank solves each distinct programmed threshold once and range-checks
        only the written row's 2C thresholds."""
        entry = compile_table([RangeRule(0x123456, 0x9ABCDE, 24, "a")],
                              TableMode.ANALOG3B).entries[0].entry
        cells = [program_analog(*window, cfg, params) for window in entry_to_cells(entry, cfg)]
        blank = program_digital(TernaryBit.DONT_CARE, cfg, params)
        bank = filled(64, len(cells), blank, mlp, cfg, params)
        solved, checked = [], []
        solve, check = device.pulse_for_vth, fecam_array._check_thresholds
        monkeypatch.setattr(device, "pulse_for_vth",
                            lambda p, v: solved.append(v) or solve(p, v))
        monkeypatch.setattr(fecam_array, "_check_thresholds",
                            lambda vth, *rest: checked.append(vth.shape) or check(vth, *rest))
        written, _ = write_cells(bank, 5, cells)
        targets = [v for c in cells for v in (c.upper_fet.vth, c.lower_fet.vth)
                   if abs(v - params.vth_high) > device.VTH_SOLVE_TOLERANCE]
        assert 1 < len(set(targets)) < len(targets)  # some thresholds repeat
        assert sorted(solved) == sorted(set(targets))
        assert checked == [(2 * len(cells),)]
        assert written.vth.flags.c_contiguous and not written.vth.flags.writeable


class TestSuperposition:
    def test_matching_cell_adds_only_floor(self, mlp, cfg, params):
        wild = program_digital(TernaryBit.DONT_CARE, cfg, params)
        base = filled(1, 4, wild, mlp, cfg, params)
        plus = filled(1, 5, wild, mlp, cfg, params)
        t = plus.auto_sense_time()
        v_base = search(base, [0.5] * 4, t).ml_voltages[-1][0]
        v_plus = search(plus, [0.5] * 5, t).ml_voltages[-1][0]
        floor = 2 * params.i_off * t / ml_capacitance(mlp, 5)
        assert abs(v_plus - v_base) < floor

    def test_mismatching_cell_strictly_accelerates(self, demo_cell, mlp, cfg,
                                                   params):
        wild = program_digital(TernaryBit.DONT_CARE, cfg, params)
        base = filled(1, 4, wild, mlp, cfg, params)
        mixed = FecamArray(cells=((wild,) * 4 + (demo_cell,),),
                           ml_params=mlp, cfg=cfg, params=params)
        t = mixed.auto_sense_time()
        v_base = search(base, [0.5] * 4, t).ml_voltages[-1][0]
        v_mixed = search(mixed, [0.5] * 4 + [0.9], t).ml_voltages[-1][0]
        assert v_mixed < v_base


class TestConstruction:
    def test_size_guideline_warnings(self, demo_cell, mlp, cfg, params):
        with pytest.warns(RuntimeWarning):
            filled(65, 1, demo_cell, mlp, cfg, params)
        with pytest.warns(RuntimeWarning):
            filled(1, 65, demo_cell, mlp, cfg, params)

    @pytest.mark.parametrize("rows, cols", [
        (0, 1), (1, 0), (-2, 3), (1025, 1024), (1, MAX_CELLS + 1), (10 ** 30, 10 ** 30),
        *[pair for bad in (1.5, True, None, -1) for pair in ((bad, 1), (1, bad))],
        pytest.param(10 ** 5000, 1, id="10**5000-1"), pytest.param(1, 10 ** 5000, id="1-10**5000")])
    def test_size_checked_before_the_grid(self, demo_cell, mlp, cfg, params,
                                          rows, cols):
        with pytest.raises(InvalidParameterError, match="at most"):
            filled(rows, cols, demo_cell, mlp, cfg, params)

    @pytest.mark.parametrize("shape", [(2,), (0,), (1, 1, 2), (1, 3), (2, 1)])
    def test_from_vth_takes_rows_of_two_cols(self, mlp, cfg, params, shape):
        with pytest.raises(DimensionMismatchError, match=r"not \(rows, 2 cols\)"):
            FecamArray.from_vth(np.full(shape, 0.5), mlp, cfg, params)

    @pytest.mark.parametrize("shape", [(MAX_CELLS + 1, 2), (1, 2 * MAX_CELLS + 2), (0, 2)])
    def test_from_vth_size_checked(self, mlp, cfg, params, shape):
        with pytest.raises(InvalidParameterError, match="at most"):
            FecamArray.from_vth(np.broadcast_to(0.5, shape), mlp, cfg, params)

    def test_from_vth_holds_its_own_copy(self, demo_cell, mlp, cfg, params):
        vth = np.array([[0.6, 0.6], [0.3, 0.8]])
        arr = FecamArray.from_vth(vth, mlp, cfg, params)
        before = search(arr, [0.5]).matches
        vth[:] = 0.1
        assert arr.vth.tolist() == [[0.6, 0.6], [0.3, 0.8]]
        assert not arr.vth.flags.writeable
        assert search(arr, [0.5]).matches == before == (True, False)
        assert arr.cells[0][0] == demo_cell

    def test_write_into_an_oversized_array_warns(self, demo_cell, mlp, cfg, params):
        with pytest.warns(RuntimeWarning, match="65 rows"):
            arr = filled(65, 1, demo_cell, mlp, cfg, params)
        with pytest.warns(RuntimeWarning, match="65 rows"):
            written, _ = write_cells(arr, 64, [demo_cell])
        assert written.vth == pytest.approx(arr.vth, abs=1e-3)
        with pytest.warns(RuntimeWarning, match="65 rows"):
            write_row(arr, inhibition_plans(arr, 64, [demo_cell])[0])

    @pytest.mark.parametrize("build", [
        lambda a, c: FecamArray(cells=[[1, 2]], ml_params=a.ml_params, cfg=c, params=a.params),
        lambda a, c: FecamArray(cells=5, ml_params=a.ml_params, cfg=c, params=a.params),
        lambda a, c: FecamArray.filled(1, 1, "x", a.ml_params, c, a.params),
        lambda a, c: write_cells(a, 0, [1, 2]),
        lambda a, c: FecamArray(cells=[[FecamCell(0.5, 0.5)]], ml_params=a.ml_params, cfg=c,
                                params=a.params),
        lambda a, c: FecamArray(cells=[a.cells[0], a.cells[0][:1]], ml_params=a.ml_params,
                                cfg=c, params=a.params)],
        ids=["ints", "not-rows", "filled-text", "write_cells-ints", "floats-as-fets", "ragged"])
    def test_cells_must_be_a_grid_of_fecam_cells(self, demo_cell, mlp, cfg, params, build):
        # all but the ragged grid used to end in a bare AttributeError or TypeError
        arr = filled(1, 2, demo_cell, mlp, cfg, params)
        with pytest.raises(InvalidParameterError, match="cells must be|ragged cell grid"):
            build(arr, cfg)

    def test_empty_grid_rejected(self, mlp, cfg, params):
        with pytest.raises(InvalidParameterError, match=r"must be an integer in \[1, "):
            FecamArray(cells=[], ml_params=mlp, cfg=cfg, params=params)
        with pytest.raises(InvalidParameterError, match=r"must be an integer in \[1, "):
            FecamArray(cells=[[]], ml_params=mlp, cfg=cfg, params=params)

    @pytest.mark.parametrize("upper, lower", [(np.nan, 5.0), (np.nan, 0.5), (0.5, 5.0),
                                              (0.05, 0.5), (0.5, -np.inf)])
    def test_thresholds_outside_the_device_range_rejected(self, mlp, cfg, params,
                                                          upper, lower):
        # NaN and 5 V used to build an array whose searches misreport
        from fecam import FecamCell
        from fecam.device import FeFetState
        cell = FecamCell(FeFetState(upper), FeFetState(lower))
        with pytest.raises(OutOfRangeError, match="thresholds must lie in"):
            FecamArray(cells=[[cell]], ml_params=mlp, cfg=cfg, params=params)
        ends = FecamCell(FeFetState(params.vth_low), FeFetState(params.vth_high))
        assert FecamArray(cells=[[ends]], ml_params=mlp, cfg=cfg, params=params).rows == 1

    def test_line_precharges_to_the_cell_supply(self, mlp, params):
        # the match line used to carry its own vdd, and 1.2 V cells were refused
        cfg_12 = CellConfig(vdd=1.2)
        arr = filled(1, 1, program_analog(0.4, 0.6, cfg_12, params), mlp, cfg_12, params)
        assert (search(arr, [0.5]).ml_voltages[0] == 1.2).all()
        assert measure_bounds(arr, 0) == pytest.approx((0.4, 0.6), abs=0.02)

    @pytest.mark.parametrize("delta", [1.0, 1.5])
    def test_sense_swing_must_fit_the_supply(self, demo_cell, mlp, cfg, params, delta):
        with pytest.raises(InvalidParameterError, match=r"delta_v_ml, the drop from vdd, must "
                           rf"be in \(0, 1\.0\), got {delta}"):
            filled(1, 1, demo_cell, replace(mlp, delta_v_ml=delta), cfg, params)
        with pytest.raises(InvalidParameterError,
                           match=r"delta_v_ml must be in \(0, inf\), got 0\.0"):
            replace(mlp, delta_v_ml=0.0)

    def test_single_mismatch_time_feasibility(self, mlp, cfg, params):
        t8 = single_mismatch_sense_time(mlp, params, cfg, 8)
        assert t8 > 0
        with pytest.raises(InvalidParameterError):
            single_mismatch_sense_time(mlp, params, cfg, 16)

    @pytest.mark.parametrize("mlp, params", [
        (MatchLineParams(c_pmos=1e302), DeviceParams()),
        # no leakage: a zero sense current, with no warning of 10**5000
        (MatchLineParams(), DeviceParams(i_off=0.0, subthreshold_slope=1e-5))])
    def test_overflowing_single_mismatch_time_names_the_matchline(self, cfg, mlp, params):
        with pytest.raises(InvalidParameterError, match=r"\[matchline\].*, got inf$"):
            single_mismatch_sense_time(mlp, params, cfg, 8)


def table_bank(mode, mlp, cfg, params):
    """64 rows of a seeded 24-bit table, as the benchmark's cam-program banks
    hold them: each analog digit's window in a cell, or one ternary bit."""
    rng = np.random.default_rng(1)
    starts, lengths = rng.integers(0, 1 << 23, 40), rng.integers(1, 1 << 16, 40)
    rules = [RangeRule(int(a), int(a + n), 24, f"r{i}")
             for i, (a, n) in enumerate(zip(starts, lengths))]
    entries = [t.entry for t in compile_table(rules, mode).entries[:64]]
    if mode is TableMode.TERNARY:
        grid = [[program_digital(TernaryBit(b), cfg, params) for b in e.bits] for e in entries]
    else:
        grid = [[program_analog(*window, cfg, params) for window in entry_to_cells(e, cfg)]
                for e in entries]
    return FecamArray(cells=grid, ml_params=mlp, cfg=cfg, params=params)


def assert_factors_of(factors, held, lines, vth, k):
    """factors are bit-equal to e^(-k vth) of each threshold that holds them:
    every FeFET of vth in the direct form (lines None), else every FeFET of
    a pair's column whose threshold is the pair's."""
    full = np.exp(-k * vth)
    if lines is None:
        assert factors.tobytes() == full.tobytes()
    else:
        marks = held[:, None] == vth.T[lines]
        assert marks.any(axis=1).all()
        assert (full.T[lines] == factors[:, None])[marks].all()


class TestColumnTables:
    def test_factors_are_those_of_the_summed_thresholds(self, demo_cell, mlp, cfg, params):
        """After a search, an array holds one factor per threshold its form
        sums: one per (column, threshold) pair in the table form, one per
        FeFET of its distinct rows in the direct form, each that of its
        threshold; on the law's branch, none."""
        k = np.log(10.0) / params.subthreshold_slope
        level_rows = FecamArray(cells=[[program_level_window(level, level, cfg, params)] * 64
                                       for level in (0, 3, 3, 5, 7, 0)],
                                ml_params=mlp, cfg=cfg, params=params)
        arrays = [table_bank(TableMode.ANALOG3B, mlp, cfg, params),
                  table_bank(TableMode.TERNARY, mlp, cfg, params), level_rows,
                  filled(64, 8, demo_cell, mlp, cfg, params),
                  varied(table_bank(TableMode.ANALOG3B, mlp, cfg, params), 0.01, seed=5)]
        for arr, tabled, distinct in zip(arrays, [True, True, False, False, False],
                                         [64, 64, 4, 1, 64]):
            batch_search(arr, np.full((3, arr.cols), 0.5))
            _, vth, (held, factors, lines, _, _) = arr._search_state
            assert len(vth) == distinct
            assert (lines is not None) == tabled
            n_pairs = sum(len(set(column)) for column in vth.T.tolist())
            assert factors.shape == held.shape == ((n_pairs,) if tabled else vth.shape)
            assert_factors_of(factors, held, lines, vth, k)
        steep = DeviceParams(subthreshold_slope=5e-3)
        arr = FecamArray.from_vth(level_rows.vth, mlp, cfg, steep)
        batch_search(arr, [[0.5] * 64])
        assert arr._search_state[2][1] is None

    def test_form_follows_the_benchmark_shapes(self, demo_cell, mlp, cfg, params):
        """Banks of a compiled table, in either mode, take the table form;
        the 64x64 array of level rows, a filled array and a varied bank,
        each with many thresholds per column for its distinct rows, do not."""
        for mode, most in ((TableMode.ANALOG3B, 9), (TableMode.TERNARY, 2)):
            bank = table_bank(mode, mlp, cfg, params)
            row_map, _, (held, _, lines, matrix, fets) = bank._search_state
            assert bank.rows == 64 and row_map == slice(None)
            assert lines is not None
            assert fets == 2 * bank.cols and len(held) <= most * fets
            assert matrix.shape == (len(held), 64)
        levels = np.random.default_rng(1).integers(0, 8, 64)
        level_rows = FecamArray(cells=[[program_level_window(k, k, cfg, params)] * 64
                                       for k in levels.tolist()],
                                ml_params=mlp, cfg=cfg, params=params)
        assert len(level_rows._search_state[1]) == 8
        for arr in (level_rows, filled(64, 8, demo_cell, mlp, cfg, params),
                    varied(table_bank(TableMode.ANALOG3B, mlp, cfg, params), 0.01, seed=5)):
            assert arr._search_state[2][2] is None

    def test_a_query_reads_the_same_in_any_batch(self, mlp, cfg):
        """At 10 uV/decade without leakage, a query on the window edges of a
        row has one FeFET of each cell draw exactly i_threshold, so lines end
        on the sense boundary, where the last bit of a row's sum decides its
        flag.  Every product has one shape whatever the batch, so a query
        reads the same flags alone and at any place in a batch, in either
        form."""
        params = DeviceParams(subthreshold_slope=1e-5, i_off=0.0)
        edges = np.array(cfg.level_bounds)
        rng = np.random.default_rng(3)
        forms = set()
        for _ in range(20):
            rows, cols = int(rng.integers(2, 40)), int(rng.integers(1, 32))
            windows = np.sort(rng.integers(0, rng.integers(1, 4), (rows, cols, 2)), axis=2)
            arr = FecamArray(cells=[[program_level_window(int(lo), int(hi), cfg, params)
                                     for lo, hi in row] for row in windows],
                             ml_params=mlp, cfg=cfg, params=params)
            held = windows[rng.integers(0, rows, 12)]
            queries = np.where(rng.integers(0, 2, (12, cols)), edges[held[..., 0]],
                               edges[held[..., 1] + 1])
            flags = batch_search(arr, queries)
            forms.add(arr._search_state[2][2] is None)
            for i, query in enumerate(queries):
                assert search(arr, query).matches == tuple(flags[i].tolist())
            for part in (slice(0, 5), slice(3, None)):
                assert (batch_search(arr, queries[part]) == flags[part]).all()
        assert forms == {True, False}

    @pytest.mark.parametrize("rows, tabled", [(256, True), (1024, False)])
    def test_matrix_is_capped(self, mlp, cfg, params, rows, tabled):
        """Rows of two thresholds per FeFET column would take the table form
        at any row count, but past TABLE_ENTRIES matrix entries they are
        summed directly."""
        rng = np.random.default_rng(rows)
        pairs = [[program_level_window(k, k, cfg, params) for k in rng.choice(8, 2, replace=False)]
                 for _ in range(128)]
        vth = np.array([[(c.upper_fet.vth, c.lower_fet.vth) for c in column] for column in pairs])
        bits = rng.integers(0, 2, (rows, 128))
        held = vth[np.arange(128), bits]  # (rows, 128, 2)
        with pytest.warns(RuntimeWarning):
            arr = FecamArray.from_vth(np.concatenate((held[..., 0], held[..., 1]), axis=1),
                                      mlp, cfg, params)
        row_map, _, (held, _, lines, _, _) = arr._search_state
        assert row_map == slice(None)
        assert (lines is not None) == tabled == (512 * rows <= TABLE_ENTRIES)
        assert held.shape == ((512,) if tabled else arr.vth.shape)


def reference_row_currents(up, lo, cfg, params, queries, counts=1):
    """The per-cell sum of `saturated_current`, each column's cell weighted
    by its count, that the factored kernel replaced; (queries, rows)."""
    q = queries[:, None, :]
    return ((saturated_current(params, q, up)
             + saturated_current(params, inverter(q, cfg), lo)) * counts).sum(axis=2)


class TestCurrentKernel:
    @settings(max_examples=160)
    @given(data=st.data())
    def test_agrees_with_per_cell_sum(self, data):
        """The terms `_row_terms` builds sum, in either form, to the per-cell
        sum, each column weighted by its count: the table form one current
        per distinct (column, threshold) pair summed into rows by its matrix,
        the direct form one per FeFET; their factors are those of the
        thresholds they read, or None on the law's branch."""
        rows = data.draw(st.integers(1, 70), label="rows")
        cols = data.draw(st.integers(1, 70), label="cols")
        # 10 uV/decade to 1 V/decade: the law below about 6.9 mV/decade
        slope = 10.0 ** data.draw(st.floats(-5.0, 0.0), label="log10 slope")
        params = DeviceParams(subthreshold_slope=slope)
        cfg = CellConfig()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # each FeFET column holds 1 to 8 thresholds, drawn row by row, or
        # every threshold is drawn anew
        if data.draw(st.booleans(), label="few per column"):
            pool = rng.uniform(params.vth_low, params.vth_high, (8, 2 * cols))
            vth = pool[rng.integers(0, rng.integers(1, 9, 2 * cols), (rows, 2 * cols)),
                       np.arange(2 * cols)]
        else:
            vth = rng.uniform(params.vth_low, params.vth_high, (rows, 2 * cols))
        counts = data.draw(st.none() | st.just(rng.integers(1, 65, cols)), label="counts")
        weights = np.tile(np.ones(cols) if counts is None else counts, 2)
        held, factors, lines, matrix, n_fets = _row_terms(vth, params, cfg.vdd, counts)
        n_pairs = sum(len(set(column)) for column in vth.T.tolist())
        event("direct form" if lines is None else "table form")
        if lines is None:
            assert held is vth and (matrix == weights).all()
        else:
            assert rows > 1 and _pair_tables(vth, weights, n_pairs - 1) is None
            assert held.shape == lines.shape == (n_pairs,) and matrix.shape == (n_pairs, rows)
            marks = held[:, None] == vth.T[lines]  # (pairs, rows): who holds each pair
            assert (matrix == np.where(marks, weights[lines][:, None], 0.0)).all()
        assert n_fets == weights.sum()
        k = np.log(10.0) / slope
        if k * (cfg.vdd + params.vth_high) < EXP_LIMIT:
            assert factors.shape == held.shape
            assert_factors_of(factors, held, lines, vth, k)
        else:
            assert factors is None
        block = max(1, BLOCK_CELLS // held.size)  # queries per block
        n = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1]),
                      label="queries")
        queries = rng.uniform(0.0, cfg.vdd, (n, cols))
        got = _summed_currents(held, factors, lines, matrix, n_fets, cfg, params, queries)
        want = reference_row_currents(vth[:, :cols], vth[:, cols:], cfg, params, queries,
                                      1 if counts is None else counts)
        assert got.shape == want.shape == (n, rows)
        assert (np.abs(got - want) <= 1e-12 * want).all()

    @settings(max_examples=80)
    @given(data=st.data())
    def test_table_form_agrees_with_per_cell_sum(self, data):
        """The table form, one current per distinct (column, threshold) pair
        summed into rows by its 0/1 matrix, is the per-cell sum, also where
        `_row_terms` would choose the direct form."""
        rows = data.draw(st.integers(1, 70), label="rows")
        cols = data.draw(st.integers(1, 70), label="cols")
        slope = 10.0 ** data.draw(st.floats(-5.0, 0.0), label="log10 slope")
        params = DeviceParams(subthreshold_slope=slope)
        cfg = CellConfig()
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # each FeFET column holds 1 to 8 thresholds, drawn row by row
        levels = rng.integers(1, 9, 2 * cols)
        pool = rng.uniform(params.vth_low, params.vth_high, (8, 2 * cols))
        vth = pool[rng.integers(0, levels, (rows, 2 * cols)), np.arange(2 * cols)]
        ones = np.ones(2 * cols)
        n_pairs = sum(len(set(column)) for column in vth.T.tolist())
        assert _pair_tables(vth, ones, n_pairs - 1) is None
        held, lines, matrix = _pair_tables(vth, ones, n_pairs)
        fets = 2 * cols
        assert held.shape == lines.shape == (n_pairs,)
        assert matrix.shape == (n_pairs, rows) and (matrix.sum(axis=0) == fets).all()
        assert (held[:, None] == vth.T[lines]).sum(axis=1).tolist() == matrix.sum(axis=1).tolist()
        factors = _threshold_factors(held, params, cfg.vdd)
        if factors is not None:  # bit-equal to a holder's own factor
            assert_factors_of(factors, held, lines, vth, np.log(10.0) / slope)
        block = max(1, BLOCK_CELLS // n_pairs)  # queries per block
        n = data.draw(st.sampled_from([0, 1, block, block + 1]), label="queries")
        queries = rng.uniform(0.0, cfg.vdd, (n, cols))
        got = _summed_currents(held, factors, lines, matrix, fets, cfg, params, queries)
        want = reference_row_currents(vth[:, :cols], vth[:, cols:], cfg, params, queries)
        assert got.shape == want.shape == (n, rows)
        assert (np.abs(got - want) <= 1e-12 * want).all()

    def test_direct_form_saturates_without_overflow(self, cfg):
        # 10 ** (0.9 V / 2 mV) overflows; the kernel clamps at i_on instead
        params = DeviceParams(subthreshold_slope=0.002)
        terms = _row_terms(np.array([[0.1, 0.1]]), params, cfg.vdd)
        assert terms[1] is None
        got = _summed_currents(*terms, cfg, params, np.array([[1.0]]))
        want = params.i_on + params.i_off + params.i_threshold * 10.0 ** -50
        assert got[0, 0] == pytest.approx(want, rel=1e-12)

    def test_batch_search_memory_is_bounded(self, demo_cell, mlp, cfg, params):
        # (queries, rows, cols) float temporaries would trace ~250 MB here;
        # the filled array is one distinct row, so the varied one, whose rows
        # all differ, is the one that runs the kernel on every row; the rows
        # of two levels per column also all differ, in the table form
        arr = filled(64, 64, demo_cell, mlp, cfg, params)
        distinct = varied(arr, 0.01, seed=5)
        assert distinct._search_state[0] == slice(None)
        rng = np.random.default_rng(6)
        two = [[program_level_window(k, k, cfg, params) for k in rng.choice(8, 2, replace=False)]
               for _ in range(64)]
        tabled = FecamArray(cells=[[two[c][b] for c, b in enumerate(bits)]
                                   for bits in rng.integers(0, 2, (64, 64))],
                            ml_params=mlp, cfg=cfg, params=params)
        queries = np.random.default_rng(5).uniform(0.0, cfg.vdd, (2000, 64))
        for arr in (arr, distinct, tabled):
            tracemalloc.start()
            try:
                batch_search(arr, queries)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8e6
        row_map, _, terms = tabled._search_state
        assert row_map == slice(None) and terms[2] is not None
