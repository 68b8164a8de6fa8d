"""Global configuration: one key-value file with sections feeds every module.

The format is read off the dataclasses: each parameter-class field of
GlobalConfig is a section, its other fields form [general], and each field
is one key of its name, typed by its default (a tuple is a list of floats).
Missing keys keep the defaults; unknown sections and keys are rejected by
name.
"""

from __future__ import annotations

import configparser
import functools
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

from .array import MatchLineParams
from .cell import CellConfig
from .costmodel import CostParams
from .device import MAX_SEED, DeviceParams
from .errors import InvalidParameterError, ParseError, check_int


@dataclass(frozen=True)
class GlobalConfig:
    device: DeviceParams = field(default_factory=DeviceParams)
    cell: CellConfig = field(default_factory=CellConfig)
    matchline: MatchLineParams = field(default_factory=MatchLineParams)
    cost: CostParams = field(default_factory=CostParams)
    rng_seed: int = 0

    def __post_init__(self):
        for f in fields(self):  # each section holds its class, its default factory
            section = getattr(self, f.name)
            if f.default_factory is not MISSING and not isinstance(section, f.default_factory):
                raise InvalidParameterError(
                    f"[{f.name}] must be a {f.default_factory.__name__}, got {section!r}")
        check_int(self.rng_seed, "rng_seed", 0, MAX_SEED)
        self.matchline.check_swing(self.cell.vdd)


def default_config() -> GlobalConfig:
    return GlobalConfig()


def _sections(config: GlobalConfig):
    """(section name, dataclass holding its values) for every section."""
    return [(f.name, getattr(config, f.name)) for f in fields(config)
            if is_dataclass(getattr(config, f.name))] + [("general", config)]


def parse_floats(raw: str) -> tuple:
    """Numbers separated by commas and/or whitespace; a bad one raises
    ValueError, which each caller reports as its own error."""
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


@functools.cache
def _keys(cls) -> dict:
    """{key: converter} of the section that holds a cls, typed by the
    defaults; parameter-class fields are sections."""
    keys = {}
    defaults = cls()
    for f in fields(cls):
        value = getattr(defaults, f.name)
        if isinstance(value, tuple):
            keys[f.name] = parse_floats
        elif not is_dataclass(value):
            keys[f.name] = type(value)
    return keys


def load_config(path) -> GlobalConfig:
    """Parse a config file; any failure raises ParseError with diagnostics."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as handle:
            parser.read_file(handle, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ParseError(f"cannot parse config {path}: {exc}")

    sections = dict(_sections(GlobalConfig()))
    values = {section: {} for section in sections}
    for section in parser.sections():
        if section not in sections:
            raise ParseError(f"unknown section [{section}] in {path}")
        keys, kw = _keys(type(sections[section])), values[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise ParseError(f"unknown field [{section}] {key} in {path}")
            try:
                kw[key] = keys[key](raw)
            except ValueError as exc:
                raise ParseError(f"bad value for [{section}] {key} in {path}: {exc}")
    general = values.pop("general")
    try:
        return GlobalConfig(**{section: type(sections[section])(**kw)
                               for section, kw in values.items()}, **general)
    except Exception as exc:
        raise ParseError(f"invalid configuration in {path}: {exc}")


def config_text(config: GlobalConfig) -> str:
    """Render a config back to file form with every field spelled out."""
    lines = []
    for section, params in _sections(config):
        lines.append(f"[{section}]")
        for key in _keys(type(params)):
            value = getattr(params, key)
            if isinstance(value, tuple):
                lines.append(f"{key} = " + " ".join(map(str, value)))
            else:
                lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
