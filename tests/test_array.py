import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fecam import (CellConfig, DeviceParams, DimensionMismatchError,
                   DisturbViolationError, FecamArray, InvalidParameterError,
                   MatchLineParams, InvalidPulseError, OutOfRangeError, RangeRule,
                   TableMode, TernaryBit, WritePlan, WritePulse, apply_variation,
                   batch_search, cell_current, compile_table, digital_query_voltage,
                   discharge_time, entry_to_cells, inhibition_plans, inverter,
                   level_center, match_window, measure_bounds, ml_capacitance,
                   program_analog, program_digital, program_level_window, search, sense,
                   single_mismatch_sense_time, write_cells, write_row)
from fecam.array import (BLOCK_CELLS, DISTURB_LIMIT, MAX_CELLS, TABLE_ENTRIES,
                         _ml_voltage, _pair_tables, _static_row_currents,
                         _summed_currents, _threshold_factors)
from fecam.device import saturated_current, vth_from_pulse


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
        for bad in (0.0, -1e-3, np.nan, np.inf):
            with pytest.raises(InvalidParameterError):
                measure_bounds(arr, 0, resolution=bad)
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
    either kernel branch, with or without an inverter curve and leakage."""
    kind = draw(st.sampled_from(["uniform", "mixed", "digital", "varied"]), label="kind")
    rows = draw(st.integers(1, 4), label="rows")
    cols = draw(st.integers(1, 64), label="cols")
    slope = draw(st.floats(-5.0, 0.0).map(lambda x: 10.0 ** x)
                 | st.sampled_from([1e-5, 0.08]), label="slope")
    params = DeviceParams(subthreshold_slope=slope,
                          i_off=draw(st.sampled_from([0.0, 1e-12]), label="i_off"))
    cfg = CellConfig(inverter_gain=draw(st.none() | st.floats(0.5, 10.0), label="gain"))
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
    def test_bounds_equal_the_per_column_sweep(self, arr, data):
        """measure_bounds, which solves each distinct cell once, reads the
        longest run of batch_search over the same common voltages, except
        that a sweep point whose per-column line lies within rounding of the
        sense boundary may settle either way."""
        t_sense = data.draw(st.none() | st.floats(-12.0, -3.0).map(lambda x: 10.0 ** x)
                            | st.sampled_from([0.5, 10.0]).map(lambda f: f * arr._quiet_time),
                            label="t_sense")
        vdd = arr.cfg.vdd
        grid = np.minimum(np.arange(0.0, vdd + 5e-4, 1e-3), vdd)
        queries = np.repeat(grid[:, None], arr.cols, axis=1)
        flags = batch_search(arr, queries, t_sense)
        t = arr.auto_sense_time() if t_sense is None else t_sense
        boundary = vdd - arr.ml_params.delta_v_ml
        for row in range(arr.rows):
            got = measure_bounds(arr, row, t_sense)
            if got == longest_run(grid, flags[:, row]):
                continue
            factors = None if arr._factors is None else arr._factors[[row]]
            static = _static_row_currents(arr.vth[[row]], factors, arr.cfg, arr.params, queries)
            with np.errstate(over="ignore"):
                v = _ml_voltage(arr.ml_params, vdd, arr.params.v_dsat, arr.cols,
                                static[:, 0], np.array([t]))[-1]
            # each sum rounds at most 2 cols times, and near the boundary a
            # relative error e in the current moves the line by about e Δ
            ties = np.flatnonzero(np.abs(v - boundary) <= 4 * arr.cols * np.spacing(boundary))
            assert 0 < len(ties) <= 12, (row, got, ties)
            settled = set()
            for choice in itertools.product([False, True], repeat=len(ties)):
                sweep = flags[:, row].copy()
                sweep[ties] = choice
                settled.add(longest_run(grid, sweep))
            assert got in settled, (row, got, ties)

    def test_ties_settle_as_mismatches(self, mlp, cfg):
        """At 10 uV/decade without leakage, a sweep point on a window edge
        has each boundary FeFET draw exactly i_threshold, so a row of n
        columns draws the auto time's design current n i_threshold and its
        line ends on the sense boundary: a mismatch, at every column count.
        (Summed per column, the same row lands an ulp above the boundary at
        some counts, so batch_search may read that edge as a match.)"""
        params = DeviceParams(subthreshold_slope=1e-5, i_off=0.0)
        grid = np.minimum(np.arange(0.0, cfg.vdd + 5e-4, 1e-3), cfg.vdd)
        for level in range(5):  # window edges 0.1 to 0.6 V, each a grid point
            cell = program_level_window(level, level, cfg, params)
            edges = 100 * (level + 1), 100 * (level + 2)
            assert (grid[list(edges)] == cfg.level_bounds[level:level + 2]).all()
            for cols in range(1, 65):
                arr = filled(1, cols, cell, mlp, cfg, params)
                assert measure_bounds(arr, 0) == (grid[edges[0] + 1], grid[edges[1] - 1])


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
    cfg = CellConfig(inverter_gain=draw(st.none() | st.floats(0.5, 10.0), label="gain"))
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


class TestDistinctRows:
    @settings(max_examples=150)
    @given(arr=tiled_arrays(), data=st.data())
    def test_every_row_reads_its_own_solve(self, arr, data):
        """A search solves each distinct row once, in the direct or the table
        form; each row must still read the solve of its own current summed
        directly in the full array, but for a line that ends within rounding
        of the sense boundary, since the kernel's row sums round by the form
        and the shape of the block they are taken in."""
        t_sense = data.draw(st.none() | st.floats(-12.0, -3.0).map(lambda x: 10.0 ** x)
                            | st.sampled_from([0.5, 10.0]).map(lambda f: f * arr._quiet_time),
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
        assert (arr._distinct_rows is None) == (len(set(keys)) == arr.rows)

        flags = batch_search(arr, queries, t_sense)
        t = arr.auto_sense_time() if t_sense is None else t_sense
        vdd, boundary = arr.cfg.vdd, arr.cfg.vdd - arr.ml_params.delta_v_ml
        static = _static_row_currents(arr.vth, arr._factors, arr.cfg, arr.params, queries)
        with np.errstate(over="ignore"):
            v = _ml_voltage(arr.ml_params, vdd, arr.params.v_dsat, arr.cols, static,
                            np.array([t]))[-1]
        differ = flags != sense(v, arr.ml_params, vdd)
        # as in test_bounds_equal_the_per_column_sweep
        ties = np.abs(v - boundary) <= 4 * arr.cols * np.spacing(boundary)
        assert not (differ & ~ties).any(), np.argwhere(differ & ~ties)

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
        assert apart._distinct_rows is None
        tiled = FecamArray.from_vth([zero, negative, zero, negative], mlp, cfg, params)
        first, rows = tiled._distinct_rows
        assert len(first) == 2 and rows.tolist() in ([0, 1, 0, 1], [1, 0, 1, 0])
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
            first, rows = arr._distinct_rows
            assert len(first) == distinct
            assert (arr.vth[first][rows] == arr.vth).all()
            seen.append((arr, (flags, matches)))
        for old, (flags, matches) in seen:
            again = answers(old)
            assert (again[0] == flags).all() and again[1] == matches


class TestWrite:
    def test_factors_wait_for_the_first_search(self, demo_cell, mlp, cfg, params):
        # a write used to factor every threshold of the array it returned
        arr = filled(4, 4, demo_cell, mlp, cfg, params)
        written, _ = write_cells(arr, 1, [program_level_window(2, 2, cfg, params)] * 4)
        assert "_factors" not in vars(written)
        batch_search(written, [[0.5] * 4])
        assert "_factors" in vars(written)

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


class TestColumnTables:
    def test_form_follows_the_benchmark_shapes(self, demo_cell, mlp, cfg, params):
        """Banks of a compiled table, in either mode, take the table form;
        the 64x64 array of level rows, a filled array and a varied bank,
        each with many thresholds per column for its distinct rows, do not."""
        for mode, most in ((TableMode.ANALOG3B, 9), (TableMode.TERNARY, 2)):
            bank = table_bank(mode, mlp, cfg, params)
            assert bank.rows == 64 and bank._distinct_rows is None
            held, _, _, matrix, fets = bank._column_tables
            assert fets == 2 * bank.cols and len(held) <= most * fets
            assert matrix.shape == (len(held), 64)
        levels = np.random.default_rng(1).integers(0, 8, 64)
        level_rows = FecamArray(cells=[[program_level_window(k, k, cfg, params)] * 64
                                       for k in levels.tolist()],
                                ml_params=mlp, cfg=cfg, params=params)
        assert len(level_rows._distinct_rows[0]) == 8
        for arr in (level_rows, filled(64, 8, demo_cell, mlp, cfg, params),
                    varied(table_bank(TableMode.ANALOG3B, mlp, cfg, params), 0.01, seed=5)):
            assert arr._column_tables is None

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
            forms.add(arr._column_tables is None)
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
        assert arr._distinct_rows is None
        tables = arr._column_tables
        assert (tables is not None) == tabled == (512 * rows <= TABLE_ENTRIES)
        if tabled:
            assert len(tables[0]) == 512


def reference_row_currents(up, lo, cfg, params, queries, counts=1):
    """The per-cell sum of `saturated_current`, each column's cell weighted
    by its count, that the factored kernel replaced; (queries, rows)."""
    q = queries[:, None, :]
    return ((saturated_current(params, q, up)
             + saturated_current(params, inverter(q, cfg), lo)) * counts).sum(axis=2)


class TestCurrentKernel:
    @settings(max_examples=80)
    @given(data=st.data())
    def test_agrees_with_per_cell_sum(self, data):
        rows = data.draw(st.integers(1, 70), label="rows")
        cols = data.draw(st.integers(1, 70), label="cols")
        block = max(1, BLOCK_CELLS // (rows * 2 * cols))  # queries per block
        n = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1,
                                       2 * block + 1]), label="queries")
        # 10 uV/decade to 1 V/decade: the direct form below about 7 mV/decade
        slope = 10.0 ** data.draw(st.floats(-5.0, 0.0), label="log10 slope")
        gain = data.draw(st.none() | st.floats(0.5, 10.0), label="inverter_gain")
        params = DeviceParams(subthreshold_slope=slope)
        cfg = CellConfig(inverter_gain=gain)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        up, lo = rng.uniform(params.vth_low, params.vth_high, (2, rows, cols))
        queries = rng.uniform(0.0, cfg.vdd, (n, cols))
        counts = data.draw(st.none() | st.just(rng.integers(1, 65, cols)), label="counts")
        vth = np.concatenate((up, lo), axis=1)
        factors = _threshold_factors(vth, params, cfg.vdd)
        got = _static_row_currents(vth, factors, cfg, params, queries, counts)
        want = reference_row_currents(up, lo, cfg, params, queries,
                                      1 if counts is None else counts)
        assert got.shape == want.shape == (n, rows)
        assert (np.abs(got - want) <= 1e-12 * want).all()

    @settings(max_examples=80)
    @given(data=st.data())
    def test_table_form_agrees_with_per_cell_sum(self, data):
        """The table form, one current per distinct (column, threshold) pair
        summed into rows by its 0/1 matrix, is the per-cell sum."""
        rows = data.draw(st.integers(1, 70), label="rows")
        cols = data.draw(st.integers(1, 70), label="cols")
        slope = 10.0 ** data.draw(st.floats(-5.0, 0.0), label="log10 slope")
        gain = data.draw(st.none() | st.floats(0.5, 10.0), label="inverter_gain")
        params = DeviceParams(subthreshold_slope=slope)
        cfg = CellConfig(inverter_gain=gain)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # each FeFET column holds 1 to 8 thresholds, drawn row by row
        levels = rng.integers(1, 9, 2 * cols)
        pool = rng.uniform(params.vth_low, params.vth_high, (8, 2 * cols))
        vth = pool[rng.integers(0, levels, (rows, 2 * cols)), np.arange(2 * cols)]
        factors = _threshold_factors(vth, params, cfg.vdd)
        n_pairs = sum(len(set(column)) for column in vth.T.tolist())
        assert _pair_tables(vth, factors, n_pairs - 1) is None
        tables = _pair_tables(vth, factors, n_pairs)
        held, held_factors, lines, matrix, fets = tables
        assert held.shape == lines.shape == (n_pairs,) and fets == 2 * cols
        assert matrix.shape == (n_pairs, rows) and (matrix.sum(axis=0) == fets).all()
        assert (held[:, None] == vth.T[lines]).sum(axis=1).tolist() == matrix.sum(axis=1).tolist()
        if factors is not None:  # bit-equal to a holder's own factor
            assert all(f in factors[:, line] for f, line in zip(held_factors, lines))
        block = max(1, BLOCK_CELLS // n_pairs)  # queries per block
        n = data.draw(st.sampled_from([0, 1, block, block + 1]), label="queries")
        queries = rng.uniform(0.0, cfg.vdd, (n, cols))
        got = _summed_currents(*tables, cfg, params, queries)
        want = reference_row_currents(vth[:, :cols], vth[:, cols:], cfg, params, queries)
        assert got.shape == want.shape == (n, rows)
        assert (np.abs(got - want) <= 1e-12 * want).all()

    def test_direct_form_saturates_without_overflow(self, cfg):
        # 10 ** (0.9 V / 2 mV) overflows; the kernel clamps at i_on instead
        params = DeviceParams(subthreshold_slope=0.002)
        vth = np.array([[0.1, 0.1]])
        assert _threshold_factors(vth, params, cfg.vdd) is None
        got = _static_row_currents(vth, None, cfg, params, np.array([[1.0]]))
        want = params.i_on + params.i_off + params.i_threshold * 10.0 ** -50
        assert got[0, 0] == pytest.approx(want, rel=1e-12)

    def test_batch_search_memory_is_bounded(self, demo_cell, mlp, cfg, params):
        # (queries, rows, cols) float temporaries would trace ~250 MB here;
        # the filled array is one distinct row, so the varied one, whose rows
        # all differ, is the one that runs the kernel on every row; the rows
        # of two levels per column also all differ, in the table form
        arr = filled(64, 64, demo_cell, mlp, cfg, params)
        distinct = varied(arr, 0.01, seed=5)
        assert distinct._distinct_rows is None
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
        assert tabled._distinct_rows is None and tabled._column_tables is not None
