import configparser
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fecam import (CamKind, CellConfig, CostParams, DeviceParams,
                   InvalidParameterError, MatchLineParams, ParseError,
                   default_config, load_config)
from fecam.config import config_text

PARAM_SECTIONS = {"device": DeviceParams, "cell": CellConfig,
                  "matchline": MatchLineParams, "cost": CostParams}


def field_slots():
    """(id, class, field, maker of that field's value around one bad value,
    the name its message gives): every number that the four parameter
    classes hold."""
    slots = []
    for cls in (DeviceParams, MatchLineParams, CellConfig, CostParams):
        default = cls()
        for f in fields(cls):
            if not isinstance(getattr(default, f.name), tuple):
                slots.append((f"{cls.__name__}.{f.name}", cls, f.name,
                              lambda bad: bad, f.name))
    bounds = CellConfig().level_bounds
    for i in (0, 4, len(bounds) - 1):
        slots.append((f"CellConfig.level_bounds[{i}]", CellConfig, "level_bounds",
                      lambda bad, i=i: bounds[:i] + (bad,) + bounds[i + 1:],
                      f"level_bounds[{i}]"))
    return slots


SLOTS = field_slots()

DEFAULT_TEXT = """\
[device]
vth_low = 0.1
vth_high = 1.1
coercive_mu = 3.0
coercive_sigma = 0.4
subthreshold_slope = 0.08
i_on = 1e-06
i_off = 1e-12
i_threshold = 2.5e-08
v_dsat = 0.1
v_prog_min = 2.0
v_prog_max = 4.0
v_erase = -4.0

[cell]
vdd = 1.0
level_bounds = 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8 0.9
digital_margin = 0.3

[matchline]
c_pmos = 1e-16
c_drain = 3.5e-16
c_parasitic = 5e-17
delta_v_ml = 0.5
i_discharge_avg = 2.5e-08

[cost]
energy_per_bit_cmos_tcam = 5.9e-16
energy_per_bit_fecam_digital = 1.82e-16
energy_per_bit_fecam_analog = 6.9e-17
bits_per_cell_fecam_analog = 3
area_per_bit_ratio_analog_vs_cmos = 0.045

[general]
rng_seed = 0
"""


class TestDefaults:
    def test_documented_defaults(self):
        config = default_config()
        assert config.device.vth_low == 0.1
        assert config.device.i_threshold == 25e-9
        assert config.cell.level_count == 8
        assert config.matchline.delta_v_ml == 0.5
        assert config.cost.energy_per_bit[CamKind.CMOS_TCAM] == 0.590e-15
        assert config.cost.energy_per_bit_cmos_tcam == 0.590e-15
        assert config.rng_seed == 0

    def test_default_text_is_pinned(self):
        # perfbench's cli workload writes its config through config_text, so
        # key order and names must not drift
        assert config_text(default_config()) == DEFAULT_TEXT


class TestLoadConfig:
    def test_partial_file_keeps_defaults(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[device]\ncoercive_sigma = 0.5\n\n"
                        "[general]\nrng_seed = 7\n")
        config = load_config(path)
        assert config.device.coercive_sigma == 0.5
        assert config.device.coercive_mu == 3.0
        assert config.rng_seed == 7

    def test_round_trip_through_text(self, tmp_path):
        original = default_config()
        path = tmp_path / "fecam.ini"
        path.write_text(config_text(original))
        assert load_config(path) == original

    def test_level_bounds_list(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[cell]\nlevel_bounds = 0.2 0.5 0.8\n")
        config = load_config(path)
        assert config.cell.level_bounds == (0.2, 0.5, 0.8)
        assert config.cell.level_count == 2

    def test_unknown_field_named_in_error(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[device]\nmystery_knob = 1\n")
        with pytest.raises(ParseError, match="mystery_knob"):
            load_config(path)

    def test_bad_value_reports_field(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[matchline]\nc_pmos = not-a-number\n")
        with pytest.raises(ParseError, match="c_pmos"):
            load_config(path)

    def test_invalid_physics_rejected(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[device]\nvth_low = 2.0\n")
        with pytest.raises(ParseError):
            load_config(path)

    def test_negative_seed_rejected(self, tmp_path):
        # -1 used to load, and route --verify then failed inside numpy
        path = tmp_path / "fecam.ini"
        path.write_text("[general]\nrng_seed = -1\n")
        with pytest.raises(ParseError, match=r"rng_seed must be an integer in \[0, "):
            load_config(path)
        for bad in (-5, True):
            with pytest.raises(InvalidParameterError, match="rng_seed"):
                replace(default_config(), rng_seed=bad)
        assert replace(default_config(), rng_seed=2**64).rng_seed == 2**64
        assert replace(default_config(), rng_seed=np.int64(3)).rng_seed == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "absent.ini")

    def test_cost_overrides(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[cost]\nenergy_per_bit_fecam_analog = 1e-16\n"
                        "bits_per_cell_fecam_analog = 2\n")
        config = load_config(path)
        assert config.cost.energy_per_bit[CamKind.FECAM_ANALOG] == 1e-16
        assert config.cost.word_cells[CamKind.FECAM_ANALOG] == 32
        # the other two per-kind energies keep their defaults
        assert config.cost.energy_per_bit[CamKind.CMOS_TCAM] == 0.590e-15
        assert config.cost.energy_per_bit[CamKind.FECAM_DIGITAL] == 0.182e-15


class TestFiniteParameters:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "x",
                                     pytest.param(10 ** 400, id="10**400")])
    @pytest.mark.parametrize("cls, name, make, what", [s[1:] for s in SLOTS],
                             ids=[s[0] for s in SLOTS])
    def test_non_finite_rejected(self, cls, name, make, what, bad):
        # not a finite number: each field's one check_real (check_int for an
        # integer field) refuses it in its one form
        with pytest.raises(InvalidParameterError,
                           match=rf"^{re.escape(what)} must be (an integer )?in [\[(].*, got "):
            cls(**{name: make(bad)})


@st.composite
def configs(draw):
    """Valid configs away from the defaults: cell level counts 2, 4 and 8
    from 3, 5 and 9 bounds, per-kind cost entries."""
    levels = draw(st.sampled_from([2, 4, 8]))
    bounds = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=levels + 1,
                                  max_size=levels + 1, unique=True)))
    cell = CellConfig(level_bounds=tuple(bounds),
                      digital_margin=draw(st.floats(0.01, 0.49)))
    energies = draw(st.lists(st.floats(1e-18, 1e-12), min_size=3, max_size=3))
    cost = CostParams(**{f"energy_per_bit_{kind.value}": energy
                         for kind, energy in zip(CamKind, energies)},
                      bits_per_cell_fecam_analog=draw(st.integers(1, 8)),
                      area_per_bit_ratio_analog_vs_cmos=draw(st.floats(0.01, 1.0)))
    device = DeviceParams(coercive_mu=draw(st.floats(2.0, 4.0)))
    matchline = MatchLineParams(delta_v_ml=draw(st.floats(0.05, 0.95)))
    return replace(default_config(), device=device, cell=cell,
                   matchline=matchline, cost=cost,
                   rng_seed=draw(st.integers(0, 2**63)))


class TestFormatFromFields:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=configs())
    def test_round_trip(self, tmp_path, config):
        path = tmp_path / "fecam.ini"
        path.write_text(config_text(config))
        assert load_config(path) == config

    def test_every_field_is_a_key(self):
        expected = {"general": {"rng_seed"}}
        for section, cls in PARAM_SECTIONS.items():
            expected[section] = {f.name for f in fields(cls)}
        parser = configparser.ConfigParser()
        parser.read_string(config_text(default_config()))
        assert {s: set(parser[s]) for s in parser.sections()} == expected

    def test_the_key_set_is_pinned(self):
        # 26 settable values: a new knob has to be added here as well
        expected = {
            "device": {"vth_low", "vth_high", "coercive_mu", "coercive_sigma",
                       "subthreshold_slope", "i_on", "i_off", "i_threshold", "v_dsat",
                       "v_prog_min", "v_prog_max", "v_erase"},
            "cell": {"vdd", "level_bounds", "digital_margin"},
            "matchline": {"c_pmos", "c_drain", "c_parasitic", "delta_v_ml",
                          "i_discharge_avg"},
            "cost": {"energy_per_bit_cmos_tcam", "energy_per_bit_fecam_digital",
                     "energy_per_bit_fecam_analog", "bits_per_cell_fecam_analog",
                     "area_per_bit_ratio_analog_vs_cmos"},
            "general": {"rng_seed"},
        }
        parser = configparser.ConfigParser()
        parser.read_string(config_text(default_config()))
        assert {s: set(parser[s]) for s in parser.sections()} == expected
        assert sum(map(len, expected.values())) == 26

    def test_every_default_is_numbers(self):
        # so a key's type is its default's, and every field has a range to
        # check: a number or a tuple of numbers
        for cls in PARAM_SECTIONS.values():
            for f in fields(cls):
                value = getattr(cls(), f.name)
                items = value if isinstance(value, tuple) else (value,)
                assert all(type(x) in (int, float) for x in items), f.name

    def test_level_count_and_second_supply_are_not_keys(self, tmp_path):
        # both used to be keys: a bound count to match, a supply to keep equal
        parser = configparser.ConfigParser()
        parser.read_string(config_text(default_config()))
        assert "level_count" not in parser["cell"] and "vdd" in parser["cell"]
        assert "vdd" not in parser["matchline"]
        path = tmp_path / "fecam.ini"
        for section, key in (("cell", "level_count"), ("matchline", "vdd")):
            path.write_text(f"[{section}]\n{key} = 1\n")
            with pytest.raises(ParseError, match=rf"unknown field \[{section}\] {key}"):
                load_config(path)

    @pytest.mark.parametrize("key", ["bits_per_cell_cmos_tcam", "bits_per_cell_fecam_digital",
                                     "cmos_cell_area", "reference_routing_area_ratio"])
    def test_single_valued_cost_settings_are_not_keys(self, tmp_path, key):
        # each used to be a key with one meaningful value: one-bit cells, the
        # CMOS cell as the area unit, the routing study's headline ratio
        path = tmp_path / "fecam.ini"
        path.write_text(f"[cost]\n{key} = 1\n")
        with pytest.raises(ParseError, match=rf"unknown field \[cost\] {key}"):
            load_config(path)

    def test_sense_swing_checked_against_the_cell_supply(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[cell]\nvdd = 1.13\n[matchline]\ndelta_v_ml = 1.0\n")
        assert load_config(path).matchline.delta_v_ml == 1.0
        path.write_text("[cell]\nvdd = 0.9\n[matchline]\ndelta_v_ml = 0.9\n")
        with pytest.raises(ParseError, match=r"delta_v_ml, the drop from vdd, must be in "
                           r"\(0, 0\.9\), got 0\.9"):
            load_config(path)

    def test_word_sizes_are_not_keys(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[cost]\nword_cells_fecam_analog = 11\n")
        with pytest.raises(ParseError,
                           match=r"unknown field \[cost\] word_cells_fecam_analog"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[matchlines]\nc_pmos = 1e-16\n")
        with pytest.raises(ParseError, match=r"unknown section \[matchlines\]"):
            load_config(path)
