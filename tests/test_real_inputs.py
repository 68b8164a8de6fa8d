"""Every scalar voltage, time, current and ratio of the public API is range
checked, most through one bounded-real check, `errors.check_real`: NaN, +inf,
-inf and a finite value out of range each raise the category of its site,
never a bare numpy or Python error, a hang or a silent result.  The guard
below keeps the table complete."""

import functools
import importlib
import inspect
import math
import pkgutil
import re
from decimal import Decimal

import numpy as np
import pytest

import fecam
from fecam import (CellConfig, CostParams, DeviceParams, EmptyWindowError,
                   FecamArray, FecamCell, FeFetState, InvalidParameterError,
                   InvalidPulseError, MatchLineParams, OutOfRangeError, TernaryBit,
                   WritePlan, WritePulse, apply_variation, batch_search, cell_current,
                   default_config, digital_query_voltage, drain_current, inverter,
                   match_window, measure_bounds, ml_energy_estimate, program_analog,
                   program_digital, pulse_for_vth, resolvable_levels, search,
                   single_mismatch_sense_time, state_for_vth, vth_from_pulse)
from fecam.array import MAX_SWEEP_STEPS, sweep_grid
from fecam.device import saturated_current, vds_factor
from fecam.errors import check_real, real_array
from fecam.fileio import bounds_sweep_csv, transfer_csv

NON_FINITE = [math.nan, math.inf, -math.inf]


@functools.cache
def setting():
    """The default config and a 2x1 array of don't-care cells."""
    c = default_config()
    wild = program_digital(TernaryBit.DONT_CARE, c.cell, c.device)
    return c, FecamArray.filled(2, 1, wild, c.matchline, c.cell, c.device)


def cfg():
    return setting()[0]


def arr():
    return setting()[1]


def demo_cell():
    return program_analog(0.4, 0.6, cfg().cell, cfg().device)


def of_device(name):
    return lambda v: DeviceParams(**{name: v})


def of_matchline(name):
    return lambda v: MatchLineParams(**{name: v})


def of_cost(name):
    return lambda v: CostParams(**{name: v})


def single_fet_array(vth):
    c = cfg()
    cell = FecamCell(FeFetState(vth), FeFetState(c.device.vth_high))
    return FecamArray([[cell]], c.matchline, c.cell, c.device)


# (qualified name, parameter) -> (call of one value, an accepted value, finite
# values out of range, the category that every bad value raises)
TABLE = {
    ("DeviceParams", "vth_low"): (of_device("vth_low"), 0.2, (1.1, 2.0), InvalidParameterError),
    ("DeviceParams", "vth_high"): (of_device("vth_high"), 1.2, (0.1, -1.0), InvalidParameterError),
    ("DeviceParams", "coercive_mu"): (of_device("coercive_mu"), -3.0, (), InvalidParameterError),
    ("DeviceParams", "coercive_sigma"): (
        of_device("coercive_sigma"), 0.1, (0.0, -0.4), InvalidParameterError),
    ("DeviceParams", "subthreshold_slope"): (
        of_device("subthreshold_slope"), 0.06, (0.0, -0.08), InvalidParameterError),
    ("DeviceParams", "i_on"): (of_device("i_on"), 1e-3, (25e-9, 1e-9), InvalidParameterError),
    ("DeviceParams", "i_off"): (of_device("i_off"), 0.0, (-1e-12, 25e-9), InvalidParameterError),
    ("DeviceParams", "i_threshold"): (
        of_device("i_threshold"), 1e-8, (1e-12, 1e-5), InvalidParameterError),
    ("DeviceParams", "v_dsat"): (of_device("v_dsat"), 0.05, (0.0, -0.1), InvalidParameterError),
    ("DeviceParams", "v_prog_min"): (
        of_device("v_prog_min"), 2.5, (4.0, 5.0), InvalidParameterError),
    ("DeviceParams", "v_prog_max"): (
        of_device("v_prog_max"), 3.5, (2.0, 1.0), InvalidParameterError),
    ("DeviceParams", "v_erase"): (of_device("v_erase"), -3.0, (0.0, 1.0), InvalidParameterError),
    ("WritePulse", "amplitude"): (
        lambda v: vth_from_pulse(cfg().device, WritePulse(v)), 3.0, (1.0, 4.5, -3.0),
        InvalidPulseError),
    ("FeFetState", "vth"): (single_fet_array, 0.5, (0.0, 1.2), OutOfRangeError),
    ("FecamArray.from_vth", "vth"): (
        lambda v: FecamArray.from_vth([[v, 0.6]], cfg().matchline, cfg().cell, cfg().device),
        0.6, (0.05, 5.0), OutOfRangeError),
    ("state_for_vth", "vth"): (
        lambda v: state_for_vth(cfg().device, v), 0.5, (0.0, 1.2), OutOfRangeError),
    ("pulse_for_vth", "target_vth"): (
        lambda v: pulse_for_vth(cfg().device, v), 0.5, (0.0, 1.2), OutOfRangeError),
    ("apply_variation", "sigma_vth"): (
        lambda v: apply_variation(cfg().device, 0.5, v, 0), 0.0, (-0.1,), InvalidParameterError),
    # one level: no count to try, so only resolvable_levels' own checks see the value; NaN,
    # 2.0 and -1.0 used to return 1 silently, and at 8 levels -1.0 returned 8
    ("resolvable_levels", "sigma_vth"): (
        lambda v: resolvable_levels(cfg().device, v, level_count=1), 0.1, (-0.1,),
        InvalidParameterError),
    ("resolvable_levels", "min_accuracy"): (
        lambda v: resolvable_levels(cfg().device, 0.1, level_count=1, min_accuracy=v), 1.0,
        (2.0, -1.0, 1.0 + 1e-9), InvalidParameterError),
    ("CellConfig", "vdd"): (lambda v: CellConfig(vdd=v), 1.2, (0.0, -1.0, 0.85),
                            InvalidParameterError),
    ("CellConfig", "level_bounds"): (
        lambda v: CellConfig(level_bounds=(0.1, 0.5, v)), 1.0, (1.2, 0.5, 0.3),
        InvalidParameterError),
    ("CellConfig", "digital_margin"): (
        lambda v: CellConfig(digital_margin=v), 0.49, (0.0, 0.5, -0.3), InvalidParameterError),
    ("program_analog", "lower"): (
        lambda v: program_analog(v, 0.6, cfg().cell, cfg().device), 0.0, (-0.1,),
        OutOfRangeError),
    ("program_analog", "upper"): (
        lambda v: program_analog(0.4, v, cfg().cell, cfg().device), 1.0, (1.2,),
        OutOfRangeError),
    ("MatchLineParams", "c_pmos"): (of_matchline("c_pmos"), 1e-16, (0.0, -1e-16),
                                    InvalidParameterError),
    ("MatchLineParams", "c_drain"): (of_matchline("c_drain"), 1e-16, (0.0, -1e-16),
                                     InvalidParameterError),
    ("MatchLineParams", "c_parasitic"): (of_matchline("c_parasitic"), 1e-16, (0.0, -1e-16),
                                         InvalidParameterError),
    ("MatchLineParams", "delta_v_ml"): (of_matchline("delta_v_ml"), 0.9, (0.0, -0.5),
                                        InvalidParameterError),
    ("MatchLineParams", "i_discharge_avg"): (
        of_matchline("i_discharge_avg"), 1e-9, (0.0, -25e-9), InvalidParameterError),
    ("search", "query"): (lambda v: search(arr(), [v]), 1.0, (-0.1, 1.1), OutOfRangeError),
    ("search", "t_sense"): (
        lambda v: search(arr(), [0.5], v), 1e-9, (0.0, -1e-9), InvalidParameterError),
    ("batch_search", "queries"): (
        lambda v: batch_search(arr(), [[0.5], [v]]), 0.0, (-0.1, 1.1), OutOfRangeError),
    ("batch_search", "t_sense"): (
        lambda v: batch_search(arr(), [[0.5]], v), 1e-9, (0.0, -1e-9), InvalidParameterError),
    ("measure_bounds", "t_sense"): (
        lambda v: measure_bounds(arr(), 0, v), 1e-9, (0.0, -1e-9), InvalidParameterError),
    ("WritePlan", "source_bias"): (
        lambda v: WritePlan(0, (None,), (None,), (0.0, v)), -2.0, (1.0, 2.5),
        InvalidParameterError),
    ("CostParams", "energy_per_bit_cmos_tcam"): (
        of_cost("energy_per_bit_cmos_tcam"), 1e-16, (0.0, -1e-15), InvalidParameterError),
    ("CostParams", "energy_per_bit_fecam_digital"): (
        of_cost("energy_per_bit_fecam_digital"), 1e-16, (0.0, -1e-15), InvalidParameterError),
    ("CostParams", "energy_per_bit_fecam_analog"): (
        of_cost("energy_per_bit_fecam_analog"), 1e-16, (0.0, -1e-15), InvalidParameterError),
    ("CostParams", "area_per_bit_ratio_analog_vs_cmos"): (
        of_cost("area_per_bit_ratio_analog_vs_cmos"), 0.5, (0.0, -0.045),
        InvalidParameterError),
    # -1 V used to give a negative energy, NaN a NaN one
    ("ml_energy_estimate", "vdd"): (
        lambda v: ml_energy_estimate(cfg().matchline, 8, v), 1.2, (0.0, -1.0),
        InvalidParameterError),
}

# elementwise evaluators: a NaN in gives NaN out, as numpy does
EVALUATORS = {
    ("saturated_current", "v_gs"): lambda v: saturated_current(cfg().device, v, 0.5),
    ("saturated_current", "vth"): lambda v: saturated_current(cfg().device, 0.5, v),
    ("vds_factor", "v_ds"): lambda v: vds_factor(cfg().device, v),
    ("drain_current", "v_gs"): lambda v: drain_current(cfg().device, v, 1.0, 0.5),
    ("drain_current", "v_ds"): lambda v: drain_current(cfg().device, 0.5, v, 0.5),
    ("drain_current", "vth"): lambda v: drain_current(cfg().device, 0.5, 1.0, v),
    ("apply_variation", "vth"): lambda v: apply_variation(cfg().device, v, 0.01, 0),
    ("inverter", "v_sl"): lambda v: inverter(v, cfg().cell),
    ("cell_current", "v_sl"): lambda v: cell_current(demo_cell(), v, 1.0, cfg().cell,
                                                     cfg().device),
    ("cell_current", "v_ml"): lambda v: cell_current(demo_cell(), 0.5, v, cfg().cell,
                                                     cfg().device),
}

# not a value of the caller's choosing, or not a range check
EXEMPT = {
    ("sense", "v_ml_at_t"): "a comparator: NaN compares false and reads a mismatch",
    ("sense", "vdd"): "a comparator: NaN compares false and reads a mismatch",
    ("MatchLineParams.check_swing", "vdd"): "the bound of the delta_v_ml check, not a value: "
    "CellConfig checks vdd, test_array.py::test_sense_swing_must_fit_the_supply the bound",
    ("SearchResult", "sense_time"): "a result of search, whose t_sense was checked",
    ("check_real", "lo"): "the bounds of the check itself",
    ("check_real", "hi"): "the bounds of the check itself",
} | {("ComparisonReport", name): "a result of routing_report" for name in (
    "cell_reduction_ratio", "area_ratio", "energy_ratio", "ternary_energy_joules",
    "analog_energy_joules", "reference_area_ratio", "reference_area_gap_percent")}

# unannotated parameters that carry voltages or thresholds
REAL_NAMES = {"v_gs", "v_ds", "v_sl", "v_ml", "vth", "query", "queries", "level_bounds",
              "source_bias"}


@pytest.mark.parametrize("site", list(TABLE), ids="-".join)
def test_bad_real_raises_its_category(site):
    call, _, out_of_range, expected = TABLE[site]
    for value in NON_FINITE + list(out_of_range):
        with pytest.raises(expected):
            call(value)


@pytest.mark.parametrize("site", list(TABLE), ids="-".join)
def test_the_accepted_value_passes(site):
    call, good, _, _ = TABLE[site]
    call(good)


@pytest.mark.parametrize("site", list(EVALUATORS), ids="-".join)
def test_evaluator_gives_nan_for_nan(site):
    assert np.isnan(EVALUATORS[site](math.nan))


def public_parameters():
    """(qualified name, parameter) of every public function, class and public
    method of fecam whose parameter is annotated float or named as a voltage."""
    found = set()
    for info in pkgutil.iter_modules(fecam.__path__):
        module = importlib.import_module(f"fecam.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [getattr(obj, m) for m in vars(obj) if not m.startswith("_")]
            for member in filter(callable, members):
                try:
                    parameters = inspect.signature(member).parameters.values()
                except (TypeError, ValueError):
                    continue
                found |= {(member.__qualname__, p.name) for p in parameters
                          if p.name in REAL_NAMES or "float" in str(p.annotation)}
    return found


def test_every_real_parameter_is_in_the_table():
    covered = TABLE.keys() | EVALUATORS.keys() | EXEMPT.keys()
    assert public_parameters() - covered == set()
    assert covered - public_parameters() == set()  # no stale rows


class TestCheckReal:
    def test_in_range_value_returned_as_given(self):
        for value in (0.5, 1, np.float64(0.25), np.int64(0)):
            assert check_real(value, "x", 0, 1) is value

    def test_finite_ends_closed_unless_open(self):
        assert check_real(0.0, "x", 0, 1) == 0.0 and check_real(1.0, "x", 0, 1) == 1.0
        for end in (0.0, -0.0, 1.0):
            with pytest.raises(InvalidParameterError):
                check_real(end, "x", 0, 1, open=True)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_infinite_ends_always_open(self, value):
        with pytest.raises(OutOfRangeError):
            check_real(value, "x", error=OutOfRangeError)

    @pytest.mark.parametrize("value", ["0.5", None, 1j, np.array([0.5, 0.6])])
    def test_non_real_raises_invalid_parameter(self, value):
        with pytest.raises(InvalidParameterError, match="^x must be in"):
            check_real(value, "x", 0, 1, OutOfRangeError)

    @pytest.mark.parametrize("args, message", [
        ((2.0, "vth", 0.1, 1.1), "vth must be in [0.1, 1.1], got 2.0"),
        ((0, "t", 0, math.inf, InvalidParameterError, True), "t must be in (0, inf), got 0"),
        ((math.nan, "v", -math.inf, 0), "v must be in (-inf, 0], got nan"),
        ((-10 ** 5000, "v", 0), "v must be in [0, inf), got an int of 16610 bits"),
        ((10 ** 400, "t", 0, math.inf, InvalidParameterError, True),
         "t must be in (0, inf), got an int of 1329 bits")])
    def test_one_message_form(self, args, message):
        with pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$"):
            check_real(*args)


    @pytest.mark.parametrize("call", [
        lambda: check_real(True, "x", 0, 2, OutOfRangeError),
        lambda: check_real(np.bool_(True), "x", 0, 2, OutOfRangeError),
        lambda: real_array(np.array([True, False]), "x"),
        lambda: real_array(np.array([0.5, True], dtype=object), "x"),
        lambda: real_array(np.array([0.5, np.bool_(True)], dtype=object), "x"),
        lambda: DeviceParams(v_dsat=True),
        lambda: search(arr(), [True]),
        lambda: FecamArray.from_vth([[True, True]], cfg().matchline, cfg().cell,
                                    cfg().device)],
        ids=["True", "numpy-bool", "bool-array", "bool-in-object-array",
             "numpy-bool-in-object-array", "DeviceParams", "search", "from_vth"])
    def test_bool_is_not_a_real(self, call):
        # each read True as 1.0: v_dsat = True built a device, [True] searched
        # as a 1.0 V query and [[True, True]] held 1.0 V thresholds
        with pytest.raises(InvalidParameterError):
            call()

    @pytest.mark.parametrize("call", [
        lambda: check_real(Decimal("0.5"), "x", 0, 1, OutOfRangeError),
        lambda: program_analog(Decimal("0.4"), 0.6, cfg().cell, cfg().device),
        lambda: pulse_for_vth(cfg().device, Decimal("0.5")),
        lambda: vth_from_pulse(cfg().device, WritePulse(Decimal("3"))),
        lambda: resolvable_levels(cfg().device, Decimal("0.01")),
        lambda: ml_energy_estimate(cfg().matchline, 8, Decimal("1.0")),
        lambda: single_mismatch_sense_time(
            cfg().matchline, DeviceParams(subthreshold_slope=Decimal("0.08")), cfg().cell, 8),
        lambda: DeviceParams(v_dsat=Decimal("NaN"))],
        ids=["check_real", "program_analog", "pulse_for_vth", "vth_from_pulse",
             "resolvable_levels", "ml_energy_estimate", "single_mismatch_sense_time",
             "DeviceParams-NaN"])
    def test_decimal_is_not_a_real(self, call):
        # a Decimal passed the check, and each call then raised a bare
        # TypeError in float arithmetic; a Decimal NaN raised a bare
        # decimal.InvalidOperation
        with pytest.raises(InvalidParameterError, match=r"got Decimal\('[\d.NaN]+'\)$"):
            call()


class TestFormerHoles:
    def test_match_window_edges_are_the_laws(self):
        # three analog windows and the three digital bits: the law reads quiet
        # 1 nV inside each closed-form edge and not 1 nV outside, unless the
        # edge ends the search range
        c = cfg()
        cells = [program_analog(lo, hi, c.cell, c.device)
                 for lo, hi in ((0.4, 0.6), (0.0, 1.0), (0.1, 0.2))]
        cells += [program_digital(bit, c.cell, c.device) for bit in TernaryBit]

        def quiet(cell, v):
            return cell_current(cell, v, 1.0, c.cell, c.device) < c.device.i_threshold

        for cell in cells:
            lo, hi = match_window(cell, c.cell, c.device)
            assert quiet(cell, lo + 1e-9) and quiet(cell, hi - 1e-9)
            assert lo == 0.0 or not quiet(cell, lo - 1e-9)
            assert hi == 1.0 or not quiet(cell, hi + 1e-9)

    def test_measure_bounds_sweeps_at_its_floor(self):
        # 1 mV steps up to a 1048.576 V supply, the old fixed grid bit for bit;
        # past it MAX_SWEEP_STEPS steps: a 2000 V supply used to be refused
        # for its 1 mV "resolution", a parameter the CLI does not have
        for vdd in (1.0, 1.13, 1048.576):
            old = np.minimum(np.arange(0.0, vdd + 5e-4, 1e-3), vdd)
            assert np.array_equal(sweep_grid(CellConfig(vdd=vdd)), old)
        assert len(sweep_grid(CellConfig(vdd=2000.0))) == MAX_SWEEP_STEPS + 1
        # at 2000 V no window is programmable, so even a don't-care cell has a
        # FeFET on at every search voltage
        c, high = cfg(), CellConfig(vdd=2000.0)
        wild = program_digital(TernaryBit.DONT_CARE, high, c.device)
        assert measure_bounds(FecamArray.filled(1, 1, wild, c.matchline, high, c.device),
                              0) is None

    @pytest.mark.parametrize("call", [
        lambda: DeviceParams(vth_low="x"),
        lambda: MatchLineParams(c_pmos="x"),
        lambda: CellConfig(level_bounds=("a", "b")),
        lambda: vth_from_pulse(cfg().device, WritePulse("x")),
        lambda: FecamArray.from_vth([["x", 0.6]], cfg().matchline, cfg().cell, cfg().device),
        lambda: DeviceParams(i_on=None),
        lambda: DeviceParams(vth_low=None),
        lambda: DeviceParams(v_prog_min=None),
        lambda: DeviceParams(coercive_mu=None),
        lambda: search(arr(), ["a"]),
        lambda: batch_search(arr(), [[0.5], [0.5, 0.5]]),
        lambda: batch_search(arr(), [[1 + 2j]]),
        lambda: batch_search(arr(), np.array([[0.5 + 2j], [0.5]])),
        lambda: search(arr(), np.array([0.5 + 0j])),
        lambda: FecamArray.from_vth(np.array([[0.5 + 1j, 0.6]]), cfg().matchline, cfg().cell,
                                    cfg().device),
        lambda: program_digital("1", cfg().cell, cfg().device),
        lambda: digital_query_voltage("1", cfg().cell),
        lambda: search(arr(), ["0.5"]),
        lambda: FecamArray.from_vth([["0.6", "0.6"]], cfg().matchline, cfg().cell,
                                    cfg().device),
        lambda: FecamArray.from_vth(np.array([[b"0.6", b"0.6"]]), cfg().matchline,
                                    cfg().cell, cfg().device),
        lambda: WritePlan(0, (None,), (None,), ("0", "2")),
        lambda: apply_variation(cfg().device, ["0.5"], 0.01, 0),
        lambda: apply_variation(cfg().device, ["x"], 0.01, 0),
        lambda: apply_variation(cfg().device, np.array([0.5 + 1j]), 0.01, 0),
        lambda: search(arr(), [10 ** 400]),
        lambda: drain_current(cfg().device, "0.5", 1.0, 0.5),
        lambda: drain_current(cfg().device, 0.5, 1.0, "0.4"),
        lambda: saturated_current(cfg().device, np.array([0.5 + 1j]), 0.4),
        lambda: vds_factor(cfg().device, None),
        lambda: inverter("0.3", cfg().cell),
        lambda: inverter(None, cfg().cell),
        lambda: cell_current(demo_cell(), "0.5", "1.0", cfg().cell, cfg().device),
        lambda: transfer_csv([(3, None, 1)]),
        lambda: bounds_sweep_csv(["0.5"], [[True]]),
        lambda: apply_variation(cfg().device, [None, 0.5], 0.01, 0),
        lambda: search(arr(), np.array(["0.5", 0.5], dtype=object))],
        ids=["DeviceParams", "MatchLineParams", "CellConfig", "vth_from_pulse", "from_vth",
             "i_on-None", "vth_low-None", "v_prog_min-None", "coercive_mu-None",
             "search-string", "batch_search-ragged", "batch_search-complex",
             "batch_search-complex-array", "search-complex-array", "from_vth-complex-array",
             "program_digital-string", "digital_query_voltage-string", "search-text-number",
             "from_vth-text-numbers", "from_vth-bytes-numbers", "WritePlan-text-bias",
             "apply_variation-text-number", "apply_variation-string",
             "apply_variation-complex-array", "search-int-past-the-float-range",
             "drain_current-text-v_gs", "drain_current-text-vth", "saturated_current-complex",
             "vds_factor-None", "inverter-text", "inverter-None", "cell_current-text",
             "transfer_csv-None", "bounds_sweep_csv-text", "apply_variation-None",
             "search-object-text"])
    def test_non_number_is_an_invalid_parameter(self, call):
        # each used to raise a bare TypeError or ValueError; None passed the
        # finiteness check as "unset", so coercive_mu=None built a device.
        # program_digital("1") built a don't-care cell, and
        # digital_query_voltage("1") called it "not don't-care"; numpy dropped
        # the imaginary part of a complex array with only a ComplexWarning, and
        # parsed text arrays such as ["0.5"] as numbers, which check_real refuses;
        # an int past the float range in a query raised a bare OverflowError.
        # The laws' voltages and the CSV writers' numbers parsed text, read
        # None as NaN and cut a complex number with a ComplexWarning, and an
        # object array read None as NaN and parsed its text
        with pytest.raises(InvalidParameterError):
            call()

    def test_decimal_numbers_are_reals(self):
        # real_array reads an array of Decimals as floats, though check_real
        # refuses a lone Decimal
        assert apply_variation(cfg().device, [Decimal("0.5")], 0.0, 0).tolist() == [0.5]
        assert search(arr(), [Decimal("0.5")]).matches == (True, True)

    @pytest.mark.parametrize("call, shown", [
        (lambda: DeviceParams(v_dsat="0.1"), "'0.1'"),
        (lambda: search(arr(), [0.5], "1e-9"), "'1e-9'"),
        (lambda: program_analog("0.4", 0.6, cfg().cell, cfg().device), "'0.4'"),
        (lambda: CellConfig(level_bounds="0.1 0.5"), "'0.1 0.5'")],
        ids=["DeviceParams", "search", "program_analog", "CellConfig-level_bounds"])
    def test_text_is_shown_by_its_repr(self, call, shown):
        # text read as the number it spells: "v_dsat must be in (0, inf), got
        # 0.1", and level_bounds text walked one character, "0", at a time
        with pytest.raises(InvalidParameterError, match=f"got {re.escape(shown)}$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda: search(arr(), [0.5], 10 ** 400),
        lambda: measure_bounds(arr(), 0, 10 ** 400),
        lambda: apply_variation(cfg().device, 0.5, 10 ** 400, 0),
        lambda: drain_current(DeviceParams(i_on=10 ** 400), 0.5, 1.0, 0.5),
        lambda: vth_from_pulse(DeviceParams(coercive_mu=10 ** 400), WritePulse(3.0))],
        ids=["search", "measure_bounds", "apply_variation", "drain_current", "vth_from_pulse"])
    def test_int_past_the_float_range_is_refused(self, call):
        # each passed its check at the infinite end, or the parameter class's
        # finiteness check, then raised a bare OverflowError
        with pytest.raises(InvalidParameterError, match=r"got an int of 1329 bits$"):
            call()

    @pytest.mark.parametrize("lower, upper", [(math.inf, 0.6), (0.4, -math.inf)])
    def test_infinite_window_end_is_out_of_range(self, lower, upper):
        # both used to read as an empty window; a finite inverted one still does
        with pytest.raises(OutOfRangeError):
            program_analog(lower, upper, cfg().cell, cfg().device)
        with pytest.raises(EmptyWindowError):
            program_analog(0.6, 0.4, cfg().cell, cfg().device)
