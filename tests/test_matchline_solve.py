"""The closed-form match-line solve against an independent RK4 reference, the
top current against the solve, and a traced search against the solve of
every row."""

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from fecam import (CellConfig, DeviceParams, FecamArray, InvalidParameterError,
                   MatchLineParams, apply_variation, batch_search, default_config,
                   discharge_time, level_center, measure_bounds, ml_capacitance,
                   program_analog, program_level_window, search, sense,
                   single_mismatch_sense_time)
from fecam.array import _ml_voltage, _row_terms, _summed_currents, _top_current

RK4_STEPS = 1000
TOLERANCE = 1e-6  # V

# (columns, sense time); a 64-column row has no single-mismatch sense time
# because its in-window leakage masks one mismatching cell
CASES = [(1, "auto"), (1, "single"), (8, "auto"), (8, "single"), (64, "auto")]


def rk4_ml_voltage(static, c_ml, vdd, v_dsat, t_sense):
    """Fixed-step RK4 for C_ML dV/dt = -I_static min(V/v_dsat, 1), V(0) = vdd."""
    h = t_sense / RK4_STEPS
    scale = np.asarray(static, dtype=float) / c_ml

    def slope(v):
        return -scale * np.clip(v / v_dsat, 0.0, 1.0)

    v = np.full(scale.shape, vdd)
    for _ in range(RK4_STEPS):
        k1 = slope(v)
        k2 = slope(v + 0.5 * h * k1)
        k3 = slope(v + 0.5 * h * k2)
        k4 = slope(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def sense_time(kind, mlp, params, cfg, cols):
    if kind == "auto":
        return discharge_time(mlp, cols)
    return single_mismatch_sense_time(mlp, params, cfg, cols)


@settings(max_examples=50)
@given(data=st.data())
def test_closed_form_agrees_with_rk4(data, mlp, params, cfg):
    cols, kind = data.draw(st.sampled_from(CASES))
    currents = np.array(data.draw(st.lists(
        st.floats(2 * cols * params.i_off, 2 * cols * params.i_on),
        min_size=1, max_size=32)))
    t = sense_time(kind, mlp, params, cfg, cols)
    vdd = cfg.vdd
    closed = _ml_voltage(mlp, vdd, params.v_dsat, cols, currents, np.array([t]))[0]
    reference = rk4_ml_voltage(currents, ml_capacitance(mlp, cols), vdd,
                               params.v_dsat, t)
    assert np.abs(closed - reference).max() <= TOLERANCE
    clear = np.abs(reference - (vdd - mlp.delta_v_ml)) > TOLERANCE
    assert (sense(closed, mlp, vdd) == sense(reference, mlp, vdd))[clear].all()


def powers(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


@settings(max_examples=150)
@given(data=st.data())
def test_top_current_is_the_last_match(data, overflow_edge):
    """At a fixed sense time the sensed flag falls monotonically with the
    static current, and the top current is exact: a line drawing it reads a
    match, and one drawing the next float up does not.  Sense times on both
    sides of the overflow edge, below and above the knee; the solve silences
    its own overflow, as every RuntimeWarning fails a test."""
    vdd = data.draw(st.floats(0.5, 5.0), label="vdd")
    mlp = MatchLineParams(c_pmos=data.draw(powers(-18, -10), label="c_pmos"),
                          c_drain=data.draw(powers(-18, -10), label="c_drain"),
                          c_parasitic=data.draw(powers(-18, -10), label="c_parasitic"),
                          # a swing in vdd's last digits misleads the closed-form guess
                          delta_v_ml=vdd * data.draw(st.floats(0.01, 0.99)
                                                     | st.sampled_from([1e-12, 1e-6]),
                                                     label="swing"))
    params = DeviceParams(v_dsat=data.draw(powers(-3, 1), label="v_dsat"),
                          i_on=data.draw(powers(-7, 0) | st.just(1e307), label="i_on"))
    cfg = CellConfig(vdd=vdd, level_bounds=(0.0, vdd), digital_margin=vdd / 4)
    cols = data.draw(st.integers(1, 64), label="cols")
    arr = FecamArray.from_vth(np.full((1, 2 * cols), params.vth_high), mlp, cfg, params)
    # a rate that may overflow sets no overflow edge
    edge = overflow_edge(arr)
    scale = data.draw(st.sampled_from([0.5, 2.0, None]), label="scale of the overflow edge")
    t = scale * edge if scale and edge else data.draw(powers(-15, -3))
    event("below the overflow edge" if t < edge else "past the overflow edge")
    top = _top_current(arr, t)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    ulps = top * (1.0 + np.arange(-64, 65) * 2.0**-52)
    spread = top * 10.0 ** rng.uniform(-30.0, 30.0, 200)
    currents = np.unique(np.concatenate(
        ([0.0, top, np.nextafter(top, np.inf), np.finfo(float).max], ulps, spread)))
    currents = currents[np.isfinite(currents)]
    v = _ml_voltage(mlp, vdd, params.v_dsat, cols, currents, np.array([t]))
    flags = sense(v[-1], mlp, vdd)
    assert (flags == (currents <= top)).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_current_stays_at_vdd(mlp, params, cfg):
    times = np.linspace(0.0, discharge_time(mlp, 8), 1001)
    v = _ml_voltage(mlp, cfg.vdd, params.v_dsat, 8, np.array([0.0, 1e-320]), times)
    assert (v == cfg.vdd).all()


def window_array(rows, cols, mlp, params):
    cfg = CellConfig()
    return FecamArray.filled(rows, cols, program_analog(0.4, 0.6, cfg, params), mlp, cfg,
                             params)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_capacitance_refused():
    # 5e-320 F used to load; current / capacitance then overflowed, so a line
    # that falls about 0.06 V by the auto time read a mismatch from a NaN start
    for name in ("c_pmos", "c_drain", "c_parasitic"):
        with pytest.raises(InvalidParameterError, match=rf"{name} must be in \[2\.22"):
            MatchLineParams(**{name: 5e-320})
    tiny = np.finfo(float).tiny
    arr = window_array(2, 2, MatchLineParams(c_pmos=tiny, c_drain=tiny, c_parasitic=tiny),
                       DeviceParams())
    result = search(arr, [0.5, 0.5])
    assert result.matches == (True, True)
    assert result.ml_voltages[0].tolist() == [arr.cfg.vdd] * 2
    assert arr.cfg.vdd - 0.1 < result.ml_voltages[-1].min() < arr.cfg.vdd
    assert measure_bounds(arr, 0) == (0.401, 0.599)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("device", [
    DeviceParams(i_on=1e307, subthreshold_slope=1e-3),  # a row sum past the float range
    # a factored term past it, from a threshold current whose row sum is not
    DeviceParams(i_threshold=1e290, i_on=1e291, i_off=0.0, subthreshold_slope=0.0077),
], ids=["row sum", "factored term"])
def test_current_past_the_float_range(device):
    # both used to warn, and the row sum started the trace of a mismatching
    # row at NaN
    arr = window_array(2, 64, MatchLineParams(), device)
    result = search(arr, [1.0] * 64)
    assert result.matches == (False, False)
    assert result.ml_voltages[0].tolist() == [arr.cfg.vdd] * 2
    assert (result.ml_voltages[1:] == 0.0).all()
    assert (batch_search(arr, [[1.0] * 64]) == [[False, False]]).all()
    if device.i_threshold < 1.0:  # else the in-window leakage discharges the line too
        assert search(arr, [0.5] * 64).matches == (True, True)
        assert measure_bounds(arr, 0) == (0.401, 0.599)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_rate_falls_by_its_product():
    # a rate I / C past the float range at a sense time short enough that the
    # line falls only I t / C = 0.25 V
    mlp = MatchLineParams(c_pmos=1e-300, c_drain=1e-300, c_parasitic=1e-300)
    v = _ml_voltage(mlp, 1.2, 0.1, 1, np.array([1e10]), np.array([0.0, 0.75e-310]))
    assert v[0, 0] == 1.2
    assert v[1, 0] == pytest.approx(0.95, rel=1e-9)


def level_rows(levels):
    """An 8-column array whose row r holds level levels[r] in every cell."""
    c = default_config()
    grid = [[program_level_window(k, k, c.cell, c.device)] * 8 for k in levels]
    return FecamArray(cells=grid, ml_params=c.matchline, cfg=c.cell, params=c.device)


def varied(arr, sigma, seed):
    return FecamArray.from_vth(apply_variation(arr.params, arr.vth, sigma, seed),
                               arr.ml_params, arr.cfg, arr.params)


REPEATED = [0, 3, 3, 5, 0, 7, 3, 0, 5, 1, 1, 3]


@pytest.mark.parametrize("case", ["repeated rows", "all rows distinct", "past overflow edge"])
def test_traced_search_is_the_solve_of_every_row(case, overflow_edge):
    """search() solves each distinct row current once; its trace must be,
    bit for bit, the solve of every row's own current."""
    arr = level_rows(REPEATED)
    if case == "all rows distinct":
        arr = varied(arr, 0.02, seed=4)
    query = [level_center(3, arr.cfg)] * arr.cols
    t = 10 * overflow_edge(arr) if case == "past overflow edge" else None
    result = search(arr, query, t)
    static = np.hstack([_summed_currents(*_row_terms(row[None], arr.params, arr.cfg.vdd),
                                         arr.cfg, arr.params, np.array([query]))[0]
                        for row in arr.vth])
    assert (len(np.unique(static)) == arr.rows) == (case == "all rows distinct")
    full = _ml_voltage(arr.ml_params, arr.cfg.vdd, arr.params.v_dsat, arr.cols,
                       static, result.times)
    assert result.ml_voltages.shape == full.shape
    assert result.ml_voltages.tobytes() == full.tobytes()
    assert result.matches == tuple(sense(full[-1], arr.ml_params, arr.cfg.vdd).tolist())
