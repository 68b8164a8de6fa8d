"""Every index, count and width of the public API goes through one bounded
integer check: a non-integer or a bool raises InvalidParameterError, an int
out of bounds the category of its site, and an in-range numpy int gives the
result of the same Python int.  The guard below keeps the table complete."""

import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import fecam
from fecam import (AnalogEntry, CamKind, CostParams, GlobalConfig, InvalidParameterError,
                   OutOfRangeError, RangeRule, TableMode, TernaryBit, WritePlan,
                   address_query_voltages, apply_variation, area, compile_table, default_config,
                   discharge_time, entries_match, entries_match_many, inhibition_plans,
                   level_center, lookup, measure_bounds, ml_capacitance,
                   ml_energy_estimate, program_digital, program_level_window,
                   range_to_analog_entries, resolvable_levels, search_energy,
                   single_mismatch_sense_time)

BAD = [1.5, True, None, -1, pytest.param(10 ** 5000, id="10**5000")]
NAMES = {"row", "target_row", "rows", "cols", "n_cols", "n_cells", "level", "lo_level",
         "hi_level", "level_count", "width", "bits_per_cell", "bits_per_cell_fecam_analog",
         "addr", "rng_seed", "seed"}


@functools.cache
def setting():
    """The default config and a 2x1 array of don't-care cells."""
    c = default_config()
    wild = program_digital(TernaryBit.DONT_CARE, c.cell, c.device)
    return c, fecam.FecamArray.filled(2, 1, wild, c.matchline, c.cell, c.device)


def cfg():
    return setting()[0]


def arr():
    return setting()[1]


def plan_of(target_row):
    return WritePlan(target_row, (None,), (None,), (0.0, 0.0))


TABLE_8 = compile_table([RangeRule(3, 200, 8, "a")], TableMode.TERNARY)

# (qualified name, parameter) -> (call of one value, an in-range value,
# the category of an int out of range)
TABLE = {
    ("measure_bounds", "row"): (lambda v: measure_bounds(arr(), v), 1, OutOfRangeError),
    ("WritePlan", "target_row"): (plan_of, 1, OutOfRangeError),
    ("inhibition_plans", "target_row"): (
        lambda v: inhibition_plans(arr(), v, arr().cells[0]), 1, OutOfRangeError),
    ("ml_capacitance", "n_cols"): (
        lambda v: ml_capacitance(cfg().matchline, v), 8, InvalidParameterError),
    ("discharge_time", "n_cols"): (
        lambda v: discharge_time(cfg().matchline, v), 8, InvalidParameterError),
    ("single_mismatch_sense_time", "n_cols"): (
        lambda v: single_mismatch_sense_time(cfg().matchline, cfg().device, cfg().cell, v),
        8, InvalidParameterError),
    ("ml_energy_estimate", "n_cols"): (
        lambda v: ml_energy_estimate(cfg().matchline, v, 1.0), 8, InvalidParameterError),
    ("level_center", "level"): (lambda v: level_center(v, cfg().cell), 3, OutOfRangeError),
    ("program_level_window", "lo_level"): (
        lambda v: program_level_window(v, 7, cfg().cell, cfg().device), 3, OutOfRangeError),
    ("program_level_window", "hi_level"): (
        lambda v: program_level_window(0, v, cfg().cell, cfg().device), 3, OutOfRangeError),
    ("resolvable_levels", "level_count"): (
        lambda v: resolvable_levels(cfg().device, 0.01, level_count=v),
        3, InvalidParameterError),
    ("apply_variation", "seed"): (
        lambda v: apply_variation(cfg().device, 0.5, 0.01, v), 3, InvalidParameterError),
    ("GlobalConfig", "rng_seed"): (lambda v: GlobalConfig(rng_seed=v), 3, InvalidParameterError),
    ("CostParams", "bits_per_cell_fecam_analog"): (
        lambda v: CostParams(bits_per_cell_fecam_analog=v), 2, InvalidParameterError),
    ("search_energy", "n_cells"): (
        lambda v: search_energy(cfg().cost, CamKind.FECAM_ANALOG, v), 80, InvalidParameterError),
    ("area", "n_cells"): (
        lambda v: area(cfg().cost, CamKind.FECAM_ANALOG, v), 80, InvalidParameterError),
    ("AnalogEntry", "bits_per_cell"): (
        lambda v: AnalogEntry(((0, 1),), v), 3, InvalidParameterError),
    ("range_to_analog_entries", "width"): (
        lambda v: range_to_analog_entries(5, 40, v), 9, InvalidParameterError),
    ("range_to_analog_entries", "bits_per_cell"): (
        lambda v: range_to_analog_entries(5, 40, 6, v), 2, InvalidParameterError),
    ("compile_table", "bits_per_cell"): (
        lambda v: compile_table([], TableMode.ANALOG3B, v), 3, InvalidParameterError),
    ("entries_match", "addr"): (
        lambda v: entries_match([e.entry for e in TABLE_8.entries], v, 8), 7, OutOfRangeError),
    ("entries_match", "width"): (
        lambda v: entries_match([], 0, v), 8, InvalidParameterError),
    ("entries_match_many", "width"): (
        lambda v: entries_match_many([], [0], v), 8, InvalidParameterError),
    ("lookup", "addr"): (lambda v: lookup(TABLE_8, v), 7, OutOfRangeError),
    ("address_query_voltages", "addr"): (
        lambda v: address_query_voltages(v, 6, 3, cfg().cell), 45, OutOfRangeError),
    ("address_query_voltages", "width"): (
        lambda v: address_query_voltages(5, v, 3, cfg().cell), 6, InvalidParameterError),
    ("address_query_voltages", "bits_per_cell"): (
        lambda v: address_query_voltages(5, 6, v, cfg().cell), 3, InvalidParameterError),
}

# covered, with the same values, by the parametrized test named
ELSEWHERE = {
    ("RangeRule", "width"): "test_encoder.py::test_width_must_be_a_positive_int",
    ("range_to_prefixes", "width"): "test_encoder.py::test_width_must_be_a_positive_int",
    ("write_cells", "target_row"): "test_array.py::test_target_row_must_be_an_integer",
    ("FecamArray.filled", "rows"): "test_array.py::test_size_checked_before_the_grid",
    ("FecamArray.filled", "cols"): "test_array.py::test_size_checked_before_the_grid",
}

# not an index or count of the caller's choosing
EXEMPT = {
    ("RoutingTable", "width"): "a compiled table: compile_table checks both",
    ("RoutingTable", "bits_per_cell"): "a compiled table: compile_table checks both",
    ("DisturbReport", "target_row"): "a result of write_row, whose plan was checked",
    ("transfer_csv", "rows"): "CSV data rows, not a count",
}


@pytest.mark.parametrize("site", list(TABLE), ids="-".join)
@pytest.mark.parametrize("value", BAD)
def test_bad_integer_raises_its_category(site, value):
    call, _, out_of_range = TABLE[site]
    expected = out_of_range if type(value) is int else InvalidParameterError
    with pytest.raises(expected):
        call(value)


@pytest.mark.parametrize("site", list(TABLE), ids="-".join)
def test_numpy_int_acts_as_the_python_int(site):
    call, good, _ = TABLE[site]
    np.testing.assert_equal(call(np.int64(good)), call(good))


def public_parameters():
    """(qualified name, parameter) of every public function, class and
    public method of fecam whose parameter is named as an index or count."""
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
                    parameters = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                found |= {(member.__qualname__, p) for p in parameters if p in NAMES}
    return found


def test_every_index_and_count_is_in_the_table():
    covered = TABLE.keys() | ELSEWHERE.keys() | EXEMPT.keys()
    assert public_parameters() - covered == set()
    assert covered - public_parameters() == set()  # no stale rows
