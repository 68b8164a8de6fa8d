import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fecam import (DeviceParams, EmptyWindowError, FecamCell, FeFetState,
                   InvalidParameterError, OutOfRangeError, TernaryBit, cell_current,
                   digital_query_voltage, inverter, level_center, match_window,
                   program_analog, program_digital, program_level_window,
                   quantized_levels, state_for_vth)
from fecam.cell import CellConfig


class TestInverter:
    def test_endpoints(self, cfg):
        assert inverter(0.0, cfg) == 1.0
        assert inverter(cfg.vdd, cfg) == 0.0

    def test_midpoint_fixed_point(self, cfg):
        assert inverter(0.5, cfg) == 0.5

    def test_involution(self, cfg):
        for v in (0.1, 0.37, 0.9):
            assert inverter(inverter(v, cfg), cfg) == pytest.approx(v, abs=1e-12)


class TestProgramAnalog:
    def test_demo_window_fet_thresholds(self, cfg, params):
        cell = program_analog(0.4, 0.6, cfg, params)
        assert cell.upper_fet.vth == pytest.approx(0.6)
        assert cell.lower_fet.vth == pytest.approx(0.6)

    def test_full_range_wildcard(self, cfg, params):
        cell = program_analog(0.0, cfg.vdd, cfg, params)
        assert cell.upper_fet.vth == pytest.approx(cfg.vdd)
        assert cell.lower_fet.vth == pytest.approx(cfg.vdd)

    def test_inverted_window_rejected(self, cfg, params):
        with pytest.raises(EmptyWindowError):
            program_analog(0.6, 0.4, cfg, params)

    def test_unprogrammable_bounds_rejected(self, cfg, params):
        with pytest.raises(OutOfRangeError):
            program_analog(0.95, 1.0, cfg, params)  # lower FET below vth_low
        with pytest.raises(OutOfRangeError):
            program_analog(-0.1, 0.5, cfg, params)


class TestDigital:
    def test_truth_table(self, cfg, params):
        # match iff stored == query or stored is don't-care
        for stored, expected in ((TernaryBit.ZERO, (True, False)),
                                 (TernaryBit.ONE, (False, True)),
                                 (TernaryBit.DONT_CARE, (True, True))):
            cell = program_digital(stored, cfg, params)
            for query, want in zip((TernaryBit.ZERO, TernaryBit.ONE), expected):
                v = digital_query_voltage(query, cfg)
                i = cell_current(cell, v, cfg.vdd, cfg, params)
                assert (i < params.i_threshold) == want, (stored, query)

    @pytest.mark.parametrize("bit", ["1", "0", "X", 1, None])
    def test_only_a_ternary_bit(self, cfg, params, bit):
        # program_digital("1") used to build a don't-care cell, and
        # digital_query_voltage("1") to call a "1" "not don't-care"
        with pytest.raises(InvalidParameterError, match="not a TernaryBit"):
            program_digital(bit, cfg, params)
        with pytest.raises(InvalidParameterError, match="not a TernaryBit"):
            digital_query_voltage(bit, cfg)

    def test_digital_cells_use_two_levels(self, cfg, params):
        levels = {params.vth_high, cfg.digital_margin}
        for bit in TernaryBit:
            cell = program_digital(bit, cfg, params)
            assert {round(cell.upper_fet.vth, 9),
                    round(cell.lower_fet.vth, 9)} <= {round(v, 9) for v in levels}

    def test_digital_windows(self, cfg, params):
        margin = cfg.digital_margin
        one = match_window(program_digital(TernaryBit.ONE, cfg, params), cfg, params)
        assert one[0] == pytest.approx(cfg.vdd - margin, abs=5e-3)
        assert one[1] == pytest.approx(cfg.vdd, abs=5e-3)
        zero = match_window(program_digital(TernaryBit.ZERO, cfg, params), cfg, params)
        assert zero[0] == pytest.approx(0.0, abs=5e-3)
        assert zero[1] == pytest.approx(margin, abs=5e-3)
        care = match_window(program_digital(TernaryBit.DONT_CARE, cfg, params),
                            cfg, params)
        assert care == (0.0, cfg.vdd)

    def test_no_wildcard_queries(self, cfg):
        with pytest.raises(InvalidParameterError):
            digital_query_voltage(TernaryBit.DONT_CARE, cfg)


class TestCellCurrent:
    def test_inside_window_stays_at_floor(self, cfg, params):
        cell = program_analog(0.4, 0.6, cfg, params)
        i = cell_current(cell, 0.5, cfg.vdd, cfg, params)
        floor = params.i_off + params.i_threshold * 10 ** (-0.1 / params.subthreshold_slope)
        assert i <= 2 * floor * (1 + 1e-9)
        assert i < params.i_threshold / 5

    @pytest.mark.parametrize("v_sl", [0.3, 0.7])
    def test_outside_window_turns_on(self, cfg, params, v_sl):
        cell = program_analog(0.4, 0.6, cfg, params)
        assert cell_current(cell, v_sl, cfg.vdd, cfg, params) >= params.i_threshold

    def test_complement_symmetry(self, cfg, params):
        # programming (lo, hi) at v equals programming (vdd-hi, vdd-lo) at vdd-v
        rng = np.random.default_rng(21)
        for _ in range(50):
            lo = rng.uniform(0.05, 0.7)
            hi = rng.uniform(lo + 0.05, 0.9)
            v = rng.uniform(0.0, 1.0)
            a = program_analog(lo, hi, cfg, params)
            b = program_analog(cfg.vdd - hi, cfg.vdd - lo, cfg, params)
            i_a = cell_current(a, v, cfg.vdd, cfg, params)
            i_b = cell_current(b, cfg.vdd - v, cfg.vdd, cfg, params)
            assert i_a == pytest.approx(i_b, rel=1e-12)


def quiet(cell, v_sl, cfg, params):
    """The law: where the cell draws less than i_threshold at full match line."""
    return cell_current(cell, np.asarray(v_sl, dtype=float), cfg.vdd, cfg,
                        params) < params.i_threshold


@st.composite
def law_cells(draw):
    """A cell of any two thresholds, crossed or not, on a device with slopes
    of 1 to 316 mV/decade, i_off up to 0.6 i_threshold, i_on from just above
    i_threshold, and v_dsat up to 3 vdd i_on / i_threshold: past vdd i_on /
    i_threshold the on-current clamp keeps the cell below i_threshold on
    both sides of its window.  The supply is the default 1 V."""
    i_threshold = DeviceParams().i_threshold
    ratio = 10.0 ** draw(st.floats(0.01, 3.0), label="log10 i_on / i_threshold")
    params = DeviceParams(
        subthreshold_slope=10.0 ** draw(st.floats(-3.0, -0.5), label="log10 slope"),
        i_off=i_threshold * draw(st.floats(0.0, 0.6), label="i_off / i_threshold"),
        i_on=i_threshold * ratio,
        v_dsat=ratio * 10.0 ** draw(st.floats(-3.5, 0.5), label="log10 v_dsat / ratio"))
    # within 1e-6 of a = X (a = 1 / vds_factor(vdd) - 2 i_off / i_threshold,
    # X the clamp in x) the law's float rounding of a moves an edge at
    # x = a - X or c / x = a - X by up to millivolts, far past the nanovolt
    # checks of the property; match_window takes a - X exactly there
    a = max(params.v_dsat, 1.0) - 2.0 * params.i_off / i_threshold
    clamp = (params.i_on - params.i_off) / i_threshold
    assume(abs(a - clamp) > 1e-6 * clamp)
    vth = st.floats(params.vth_low, params.vth_high)
    return FecamCell(FeFetState(draw(vth, label="upper")),
                     FeFetState(draw(vth, label="lower"))), params


class TestMatchWindow:
    def test_demo_window(self, cfg, params):
        cell = program_analog(0.4, 0.6, cfg, params)
        lo, hi = match_window(cell, cfg, params)
        assert lo == pytest.approx(0.4, abs=0.02)
        assert hi == pytest.approx(0.6, abs=0.02)

    def test_full_range(self, cfg, params):
        cell = program_analog(0.0, cfg.vdd, cfg, params)
        lo, hi = match_window(cell, cfg, params)
        assert lo == pytest.approx(0.0, abs=5e-3)
        assert hi == pytest.approx(cfg.vdd, abs=5e-3)

    def test_all_level_grid_pairs_against_sweep_oracle(self, cfg, params):
        # oracle: brute-force 1 mV sweep of the cell current criterion
        grid = np.arange(0.0, cfg.vdd + 5e-4, 1e-3)
        b = cfg.level_bounds
        for i in range(len(b) - 1):
            for j in range(i + 1, len(b)):
                cell = program_analog(b[i], b[j], cfg, params)
                currents = cell_current(cell, grid, cfg.vdd, cfg, params)
                inside = grid[currents < params.i_threshold]
                assert inside.size
                for measured, target in ((inside[0], b[i]), (inside[-1], b[j])):
                    assert abs(measured - target) <= 0.02
                win = match_window(cell, cfg, params)
                assert win[0] == pytest.approx(inside[0], abs=2e-3)
                assert win[1] == pytest.approx(inside[-1], abs=2e-3)

    def test_window_correctness_margin(self, cfg, params):
        # 25 mV inside the window the cell is quiet, 25 mV outside it conducts
        rng = np.random.default_rng(17)
        delta = 0.025
        for _ in range(50):
            lo = rng.uniform(0.05, 0.8)
            hi = rng.uniform(lo + 0.06, 0.95)
            cell = program_analog(lo, hi, cfg, params)
            for v in np.linspace(lo + delta, hi - delta, 7):
                assert cell_current(cell, v, cfg.vdd, cfg, params) < params.i_threshold
            for v in (lo - delta, hi + delta):
                if 0.0 <= v <= cfg.vdd:
                    assert cell_current(cell, v, cfg.vdd, cfg, params) >= params.i_threshold

    def test_monotone_in_programming(self, cfg, params):
        base = program_analog(0.4, 0.6, cfg, params)
        wider_top = FecamCell(upper_fet=state_for_vth(params, 0.7),
                              lower_fet=base.lower_fet)
        wider_bottom = FecamCell(upper_fet=base.upper_fet,
                                 lower_fet=state_for_vth(params, 0.7))
        w0 = match_window(base, cfg, params)
        w1 = match_window(wider_top, cfg, params)
        w2 = match_window(wider_bottom, cfg, params)
        assert w1[1] >= w0[1]
        assert w2[0] <= w0[0]

    def test_sub_two_millivolt_window_found(self, cfg, params):
        # the former 2 mV grid scan missed it at any resolution and read None
        lo, hi = match_window(program_analog(0.401, 0.449173, cfg, params), cfg, params)
        assert lo == pytest.approx(0.42478, abs=1e-5)
        assert hi == pytest.approx(0.42539, abs=1e-5)

    def test_quiet_piece_where_a_meets_the_clamp(self, cfg):
        # v_dsat / vdd and (i_on - i_off) / i_threshold differ by about 5e-15,
        # which rounds away in a float difference; the quiet piece below
        # about 0.107 V still counts
        params = DeviceParams(subthreshold_slope=0.01, i_on=1.943412575596939e-06,
                              i_off=0.0, v_dsat=77.73650302387757)
        cell = FecamCell(FeFetState(0.25), FeFetState(0.5))
        assert match_window(cell, cfg, params) == (0.0, cfg.vdd)
        assert quiet(cell, [0.0, 0.1, 0.3, 1.0], cfg, params).tolist() == [
            True, True, False, True]

    def test_on_current_clamp_keeps_the_whole_range(self, cfg):
        # past v_dsat = vdd i_on / i_threshold both clamped FeFETs draw less
        # than i_threshold: the quadratic's roots alone give about (0.24, 0.76)
        params = DeviceParams(v_dsat=100.0)
        cell = program_analog(0.4, 0.6, cfg, params)
        assert match_window(cell, cfg, params) == (0.0, cfg.vdd)
        assert quiet(cell, np.linspace(0.0, cfg.vdd, 1001), cfg, params).all()

    @settings(max_examples=120)
    @given(drawn=law_cells())
    def test_edges_are_the_laws_against_a_dense_scan(self, cfg, drawn):
        """The window spans every scan point the law reads quiet; just inside
        each edge the law reads quiet, and just outside it does not, unless
        the edge ends the search range."""
        cell, params = drawn
        grid = np.linspace(0.0, cfg.vdd, 200_001)  # 5 uV
        scanned = quiet(cell, grid, cfg, params)
        window = match_window(cell, cfg, params)
        if window is None:
            assert not scanned.any()
            return
        lo, hi = window
        assert 0.0 <= lo < hi <= cfg.vdd
        assert not scanned[(grid < lo) | (grid > hi)].any()
        step = min(1e-9, (hi - lo) / 2)
        assert quiet(cell, [lo + step, hi - step], cfg, params).all()
        assert lo == 0.0 or not quiet(cell, lo - 1e-9, cfg, params)
        assert hi == cfg.vdd or not quiet(cell, hi + 1e-9, cfg, params)

    def test_degenerate_programming_reports_empty(self, cfg, params):
        # crossed thresholds leave no quiet interval
        cell = FecamCell(upper_fet=state_for_vth(params, 0.2),
                         lower_fet=state_for_vth(params, 0.2))
        assert match_window(cell, cfg, params) is None


class TestQuantizedLevels:
    def test_eight_windows(self, cfg):
        windows = quantized_levels(cfg)
        assert len(windows) == 8

    def test_fence_post_partition(self, cfg):
        windows = quantized_levels(cfg)
        for (a_lo, a_hi), (b_lo, b_hi) in zip(windows, windows[1:]):
            assert a_hi == b_lo
            assert a_lo < a_hi
        grid = np.arange(cfg.level_bounds[0], cfg.level_bounds[-1] - 1e-9, 1e-3)
        for v in grid[:: 37]:
            owners = [k for k, (lo, hi) in enumerate(windows) if lo <= v < hi]
            assert len(owners) == 1

    def test_level_helpers(self, cfg, params):
        assert level_center(0, cfg) == pytest.approx(0.15)
        cell = program_level_window(3, 3, cfg, params)
        assert cell.upper_fet.vth == pytest.approx(cfg.level_bounds[4])
        with pytest.raises(OutOfRangeError):
            level_center(8, cfg)
        with pytest.raises(OutOfRangeError):
            program_level_window(5, 2, cfg, params)


class TestCellConfigValidation:
    def test_bounds_must_increase(self):
        with pytest.raises(InvalidParameterError):
            CellConfig(level_bounds=(0.1, 0.3, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))

    def test_level_count_is_bounds_minus_one(self):
        assert CellConfig().level_count == 8
        assert CellConfig(level_bounds=(0.1, 0.3, 0.5, 0.7, 0.9)).level_count == 4
        with pytest.raises(TypeError):  # derived, so not a field to set
            CellConfig(level_count=4)

    @pytest.mark.parametrize("bounds", [(0.5,), ()])
    def test_needs_two_bounds(self, bounds):
        # no bounds used to raise a bare IndexError
        with pytest.raises(InvalidParameterError, match="need at least 2 level bounds"):
            CellConfig(level_bounds=bounds)

    def test_bounds_inside_supply(self):
        with pytest.raises(InvalidParameterError):
            CellConfig(level_bounds=tuple(0.3 + 0.1 * k for k in range(9)))
