"""The closed-form match-line solve against an independent RK4 reference, and
a traced search against the solve of every row."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fecam import (FecamArray, apply_variation, default_config, discharge_time,
                   level_center, ml_capacitance, program_level_window, search, sense,
                   single_mismatch_sense_time)
from fecam.array import _ml_voltage, _row_terms, _summed_currents

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_current_stays_at_vdd(mlp, params, cfg):
    times = np.linspace(0.0, discharge_time(mlp, 8), 1001)
    v = _ml_voltage(mlp, cfg.vdd, params.v_dsat, 8, np.array([0.0, 1e-320]), times)
    assert (v == cfg.vdd).all()


def level_rows(levels):
    """An 8-column array whose row r holds level levels[r] in every cell."""
    c = default_config()
    grid = [[program_level_window(k, k, c.cell, c.device)] * 8 for k in levels]
    return FecamArray(cells=grid, ml_params=c.matchline, cfg=c.cell, params=c.device)


def varied(arr, sigma, seed):
    return FecamArray.from_vth(apply_variation(arr.params, arr.vth, sigma, seed),
                               arr.ml_params, arr.cfg, arr.params)


REPEATED = [0, 3, 3, 5, 0, 7, 3, 0, 5, 1, 1, 3]


@pytest.mark.parametrize("case", ["repeated rows", "all rows distinct", "past quiet time"])
def test_traced_search_is_the_solve_of_every_row(case):
    """search() solves each distinct row current once; its trace must be,
    bit for bit, the solve of every row's own current."""
    arr = level_rows(REPEATED)
    if case == "all rows distinct":
        arr = varied(arr, 0.02, seed=4)
    query = [level_center(3, arr.cfg)] * arr.cols
    t = 10 * arr._quiet_time if case == "past quiet time" else None
    result = search(arr, query, t)
    static = np.hstack([_summed_currents(*_row_terms(row[None], arr.params, arr.cfg.vdd),
                                         arr.cfg, arr.params, np.array([query]))[0]
                        for row in arr.vth])
    assert (len(np.unique(static)) == arr.rows) == (case == "all rows distinct")
    with np.errstate(over="ignore"):
        full = _ml_voltage(arr.ml_params, arr.cfg.vdd, arr.params.v_dsat, arr.cols,
                           static, result.times)
    assert result.ml_voltages.shape == full.shape
    assert result.ml_voltages.tobytes() == full.tobytes()
    assert result.matches == tuple(sense(full[-1], arr.ml_params, arr.cfg.vdd).tolist())
