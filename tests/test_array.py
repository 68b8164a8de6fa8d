import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fecam import (CellConfig, DeviceParams, DimensionMismatchError,
                   DisturbViolationError, FecamArray, InvalidParameterError,
                   InvalidPulseError, OutOfRangeError, TernaryBit, WritePlan, WritePulse,
                   batch_search, cell_current, digital_query_voltage,
                   discharge_time, inhibition_plans, inverter, match_window,
                   measure_bounds, ml_capacitance, program_analog,
                   program_digital, search, sense, single_mismatch_sense_time,
                   write_cells, write_row)
from fecam.array import (BLOCK_CELLS, DISTURB_LIMIT, MAX_CELLS, _static_row_currents,
                         _threshold_factors)
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
    def test_high_line_matches(self, mlp):
        assert sense(mlp.vdd, mlp) is True

    def test_exact_boundary_is_mismatch(self, mlp):
        assert sense(mlp.vdd - mlp.delta_v_ml, mlp) is False

    def test_discharged_line_mismatches(self, mlp):
        assert sense(0.0, mlp) is False


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
        assert (result.ml_voltages[0] == mlp.vdd).all()
        assert (np.diff(result.ml_voltages, axis=0) <= 1e-15).all()
        assert (result.ml_voltages >= -1e-12).all()

    def test_deterministic_bit_identical(self, demo_cell, mlp, cfg, params):
        arr = filled(2, 3, demo_cell, mlp, cfg, params)
        a = search(arr, [0.5, 0.65, 0.3])
        b = search(arr, [0.5, 0.65, 0.3])
        assert a.matches == b.matches
        assert np.array_equal(a.ml_voltages, b.ml_voltages)
        assert np.array_equal(a.times, b.times)

    def test_row_trace_helper(self, demo_cell, mlp, cfg, params):
        arr = filled(1, 1, demo_cell, mlp, cfg, params)
        trace = search(arr, [0.5]).row_trace(0)
        assert trace[0] == (0.0, mlp.vdd)
        assert len(trace) == 1001

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
        cfg_113, mlp_113 = replace(cfg, vdd=1.13), replace(mlp, vdd=1.13)
        cell = program_analog(0.4, 0.6, cfg_113, params)
        lo, hi = measure_bounds(filled(1, 1, cell, mlp_113, cfg_113, params), 0)
        assert lo == pytest.approx(0.4, abs=0.02)
        assert hi == pytest.approx(0.6, abs=0.02)

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


class TestWrite:
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
        plan = WritePlan(target_row=0, sl_pulses=(WritePulse(-4.5, width=1e-9),),
                         isl_pulses=(None,), source_bias=(0.0, -DISTURB_LIMIT))
        with pytest.raises(InvalidPulseError):
            write_row(filled(2, 1, demo_cell, mlp, cfg, params), plan)
        arr = filled(2, 2, demo_cell, mlp, cfg, params)
        plan = WritePlan(target_row=0, sl_pulses=(WritePulse(3.0),),
                         isl_pulses=(None,), source_bias=(0.0, 2.0))
        with pytest.raises(DimensionMismatchError):
            write_row(arr, plan)

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

    @pytest.mark.parametrize("rows, cols", [(0, 1), (1, 0), (-2, 3),
                                            (1025, 1024), (1, MAX_CELLS + 1),
                                            (10 ** 30, 10 ** 30)])
    def test_size_checked_before_the_grid(self, demo_cell, mlp, cfg, params,
                                          rows, cols):
        with pytest.raises(InvalidParameterError, match="at most"):
            filled(rows, cols, demo_cell, mlp, cfg, params)

    def test_empty_grid_rejected(self, mlp, cfg, params):
        with pytest.raises(InvalidParameterError, match="at least 1 row"):
            FecamArray(cells=[], ml_params=mlp, cfg=cfg, params=params)
        with pytest.raises(InvalidParameterError, match="at least 1 row"):
            FecamArray(cells=[[]], ml_params=mlp, cfg=cfg, params=params)

    def test_supply_mismatch_rejected(self, demo_cell, mlp, params):
        from fecam import CellConfig
        bad_cfg = CellConfig(vdd=1.2,
                             level_bounds=tuple(0.1 + 0.1 * k for k in range(9)))
        cell = program_analog(0.4, 0.6, bad_cfg, params)
        with pytest.raises(InvalidParameterError):
            filled(1, 1, cell, mlp, bad_cfg, params)

    def test_single_mismatch_time_feasibility(self, mlp, cfg, params):
        t8 = single_mismatch_sense_time(mlp, params, cfg, 8)
        assert t8 > 0
        with pytest.raises(InvalidParameterError):
            single_mismatch_sense_time(mlp, params, cfg, 16)


def reference_row_currents(up, lo, cfg, params, queries):
    """The per-cell sum of `saturated_current` that the factored kernel
    replaced; (queries, rows)."""
    q = queries[:, None, :]
    return (saturated_current(params, q, up)
            + saturated_current(params, inverter(q, cfg), lo)).sum(axis=2)


class TestCurrentKernel:
    @settings(max_examples=60)
    @given(data=st.data())
    def test_agrees_with_per_cell_sum(self, data):
        rows = data.draw(st.integers(1, 70), label="rows")
        cols = data.draw(st.integers(1, 70), label="cols")
        block = max(1, BLOCK_CELLS // (rows * 2 * cols))  # queries per block
        n = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1,
                                       2 * block + 1]), label="queries")
        direct = data.draw(st.booleans(), label="direct form")
        slope = 0.002 if direct else data.draw(st.floats(0.02, 0.15), label="slope")
        gain = data.draw(st.none() | st.floats(0.5, 10.0), label="inverter_gain")
        params = DeviceParams(subthreshold_slope=slope)
        cfg = CellConfig(inverter_gain=gain)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # at 2 mV/decade keep |v - vth| < 0.6 V, where the reference's
        # 10 ** x stays finite
        lo_vth, hi_vth = (0.41, 0.59) if direct else (params.vth_low, params.vth_high)
        up, lo = rng.uniform(lo_vth, hi_vth, (2, rows, cols))
        queries = rng.uniform(0.0, cfg.vdd, (n, cols))
        vth = np.concatenate((up, lo), axis=1)
        factors = _threshold_factors(vth, params, cfg.vdd)
        assert (factors is None) == direct
        got = _static_row_currents(vth, factors, cfg, params, queries)
        want = reference_row_currents(up, lo, cfg, params, queries)
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
        # (queries, rows, cols) float temporaries would trace ~250 MB here
        arr = filled(64, 64, demo_cell, mlp, cfg, params)
        queries = np.random.default_rng(5).uniform(0.0, cfg.vdd, (2000, 64))
        tracemalloc.start()
        try:
            batch_search(arr, queries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6
