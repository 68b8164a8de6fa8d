import math
from dataclasses import fields

import pytest

from fecam import (CamKind, CellConfig, CostParams, DeviceParams,
                   InvalidParameterError, MatchLineParams, ParseError,
                   default_config, load_config)
from fecam.config import config_text


def float_slots():
    """(id, class, field, maker of that field's value around one bad float):
    every float that the four parameter classes hold."""
    slots = []
    for cls in (DeviceParams, MatchLineParams, CellConfig, CostParams):
        default = cls()
        for f in fields(cls):
            if isinstance(getattr(default, f.name), float) or f.name == "inverter_gain":
                slots.append((f"{cls.__name__}.{f.name}", cls, f.name,
                              lambda bad: bad))
    bounds = CellConfig().level_bounds
    for i in (0, 4, len(bounds) - 1):
        slots.append((f"CellConfig.level_bounds[{i}]", CellConfig, "level_bounds",
                      lambda bad, i=i: bounds[:i] + (bad,) + bounds[i + 1:]))
    for kind in CamKind:
        slots.append((f"CostParams.energy_per_bit[{kind.value}]", CostParams,
                      "energy_per_bit",
                      lambda bad, kind=kind: {**CostParams().energy_per_bit,
                                              kind: bad}))
    return slots


SLOTS = float_slots()


class TestDefaults:
    def test_documented_defaults(self):
        config = default_config()
        assert config.device.vth_low == 0.1
        assert config.device.i_threshold == 25e-9
        assert config.cell.level_count == 8
        assert config.matchline.delta_v_ml == 0.5
        assert config.cost.energy_per_bit[CamKind.CMOS_TCAM] == 0.590e-15
        assert config.rng_seed == 0


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
        path.write_text("[cell]\nlevel_count = 2\nlevel_bounds = 0.2 0.5 0.8\n")
        config = load_config(path)
        assert config.cell.level_bounds == (0.2, 0.5, 0.8)

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

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(tmp_path / "absent.ini")

    def test_cost_overrides(self, tmp_path):
        path = tmp_path / "fecam.ini"
        path.write_text("[cost]\nenergy_per_bit_fecam_analog = 1e-16\n"
                        "word_cells_fecam_analog = 11\n")
        config = load_config(path)
        assert config.cost.energy_per_bit[CamKind.FECAM_ANALOG] == 1e-16
        assert config.cost.word_cells[CamKind.FECAM_ANALOG] == 11
        assert config.cost.energy_per_bit[CamKind.CMOS_TCAM] == 0.590e-15


class TestFiniteParameters:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cls, name, make", [s[1:] for s in SLOTS],
                             ids=[s[0] for s in SLOTS])
    def test_non_finite_rejected(self, cls, name, make, bad):
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            cls(**{name: make(bad)})
