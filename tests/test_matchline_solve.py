"""The closed-form match-line solve against an independent RK4 reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fecam import (discharge_time, ml_capacitance, sense,
                   single_mismatch_sense_time)
from fecam.array import _ml_voltage

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
