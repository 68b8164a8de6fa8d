"""Global configuration: one key-value file with sections feeds every module.

Sections mirror the parameter dataclasses ([device], [cell], [matchline],
[cost], [general]); missing keys fall back to the documented defaults and
unknown keys are rejected with the offending section and field named.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

from .array import MatchLineParams
from .cell import CellConfig
from .costmodel import CamKind, CostParams
from .device import DeviceParams
from .errors import ParseError


@dataclass(frozen=True)
class GlobalConfig:
    device: DeviceParams = field(default_factory=DeviceParams)
    cell: CellConfig = field(default_factory=CellConfig)
    matchline: MatchLineParams = field(default_factory=MatchLineParams)
    cost: CostParams = field(default_factory=CostParams)
    rng_seed: int = 0


def default_config() -> GlobalConfig:
    return GlobalConfig()


_COST_SCALARS = {"area_per_bit_ratio_analog_vs_cmos", "cmos_cell_area",
                 "reference_routing_area_ratio"}


def _parse_section(parser, section, known, convert, where):
    """Return {field: parsed value} for one section, rejecting unknown keys."""
    out = {}
    if not parser.has_section(section):
        return out
    for key, raw in parser.items(section):
        if key not in known:
            raise ParseError(f"unknown field [{section}] {key} in {where}")
        try:
            out[key] = convert[key](raw)
        except ValueError as exc:
            raise ParseError(f"bad value for [{section}] {key} in {where}: {exc}")
    return out


def _parse_bounds(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def load_config(path) -> GlobalConfig:
    """Parse a config file; any failure raises ParseError with diagnostics."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as handle:
            parser.read_file(handle, source=str(path))
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ParseError(f"cannot parse config {path}: {exc}")

    where = str(path)
    device_conv = {f.name: float for f in fields(DeviceParams)}
    device_kw = _parse_section(parser, "device", set(device_conv), device_conv, where)

    cell_conv = {"vdd": float, "level_count": int, "digital_margin": float,
                 "inverter_gain": float, "level_bounds": _parse_bounds}
    cell_kw = _parse_section(parser, "cell", set(cell_conv), cell_conv, where)

    ml_conv = {f.name: float for f in fields(MatchLineParams)}
    ml_kw = _parse_section(parser, "matchline", set(ml_conv), ml_conv, where)

    cost_conv = {}
    for kind in CamKind:
        cost_conv[f"energy_per_bit_{kind.value}"] = float
        cost_conv[f"bits_per_cell_{kind.value}"] = int
        cost_conv[f"word_cells_{kind.value}"] = int
    for name in _COST_SCALARS:
        cost_conv[name] = float
    cost_kw_flat = _parse_section(parser, "cost", set(cost_conv), cost_conv, where)

    general_conv = {"rng_seed": int}
    general_kw = _parse_section(parser, "general", set(general_conv),
                                general_conv, where)

    try:
        device = DeviceParams(**device_kw)
        cell = CellConfig(**cell_kw)
        matchline = MatchLineParams(**ml_kw)
        cost = _build_cost(cost_kw_flat)
    except Exception as exc:
        raise ParseError(f"invalid configuration in {where}: {exc}")
    return GlobalConfig(device=device, cell=cell, matchline=matchline,
                        cost=cost, rng_seed=general_kw.get("rng_seed", 0))


def _build_cost(flat: dict) -> CostParams:
    base = CostParams()
    energy = dict(base.energy_per_bit)
    bits = dict(base.bits_per_cell)
    words = dict(base.word_cells)
    scalars = {}
    for key, value in flat.items():
        if key.startswith("energy_per_bit_"):
            energy[CamKind(key[len("energy_per_bit_"):])] = value
        elif key.startswith("bits_per_cell_"):
            bits[CamKind(key[len("bits_per_cell_"):])] = value
        elif key.startswith("word_cells_"):
            words[CamKind(key[len("word_cells_"):])] = value
        else:
            scalars[key] = value
    return CostParams(energy_per_bit=energy, bits_per_cell=bits,
                      word_cells=words, **scalars)


def config_text(config: GlobalConfig) -> str:
    """Render a config back to file form with every field spelled out."""
    lines = ["[device]"]
    for f in fields(DeviceParams):
        lines.append(f"{f.name} = {getattr(config.device, f.name)!r}")
    lines += ["", "[cell]"]
    lines.append(f"vdd = {config.cell.vdd!r}")
    lines.append(f"level_count = {config.cell.level_count}")
    lines.append("level_bounds = " + " ".join(repr(b) for b in config.cell.level_bounds))
    lines.append(f"digital_margin = {config.cell.digital_margin!r}")
    if config.cell.inverter_gain is not None:
        lines.append(f"inverter_gain = {config.cell.inverter_gain!r}")
    lines += ["", "[matchline]"]
    for f in fields(MatchLineParams):
        lines.append(f"{f.name} = {getattr(config.matchline, f.name)!r}")
    lines += ["", "[cost]"]
    for kind in CamKind:
        lines.append(f"energy_per_bit_{kind.value} = "
                     f"{config.cost.energy_per_bit[kind]!r}")
        lines.append(f"bits_per_cell_{kind.value} = "
                     f"{config.cost.bits_per_cell[kind]}")
        lines.append(f"word_cells_{kind.value} = {config.cost.word_cells[kind]}")
    for name in sorted(_COST_SCALARS):
        lines.append(f"{name} = {getattr(config.cost, name)!r}")
    lines += ["", "[general]", f"rng_seed = {config.rng_seed}", ""]
    return "\n".join(lines)
