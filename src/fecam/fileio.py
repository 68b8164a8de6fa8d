"""Text formats: array descriptions, query lists, rule files, CSV exports.

All CSV exports start with a header row whose column names carry units, use
the decimal point, and may use scientific notation.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import cell as cell_mod
from .array import FecamArray, SearchResult
from .cell import TernaryBit, program_analog, program_digital
from .config import GlobalConfig
from .costmodel import _fmt
from .encoder import RangeRule
from .errors import FecamError, ParseError


def _content_lines(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def parse_array_file(text: str, config: GlobalConfig) -> FecamArray:
    """Build an array from its description.

    Format, one statement per line (# comments allowed):

        rows R
        cols C
        matchline <field> <value>          # optional overrides
        cell <row> <col> analog <lo> <hi>
        cell <row> <col> level <k>
        cell <row> <col> digital 0|1|X

    Cells not mentioned default to digital X (match-anything).
    """
    rows = cols = None
    ml_overrides = {}
    cell_specs = []
    for number, line in _content_lines(text):
        tokens = line.split()
        kind = tokens[0].lower()
        try:
            if kind == "rows":
                rows = int(tokens[1])
            elif kind == "cols":
                cols = int(tokens[1])
            elif kind == "matchline":
                ml_overrides[tokens[1]] = float(tokens[2])
            elif kind == "cell":
                cell_specs.append((number, int(tokens[1]), int(tokens[2]),
                                   tokens[3].lower(), tokens[4:]))
            else:
                raise ParseError(f"unknown statement {kind!r}", line=number)
        except (IndexError, ValueError) as exc:
            raise ParseError(f"bad statement {line!r}: {exc}", line=number)
    if rows is None or cols is None:
        raise ParseError("array description needs both rows and cols")

    try:
        ml_params = replace(config.matchline, **ml_overrides)
    except (TypeError, FecamError) as exc:
        raise ParseError(f"bad matchline override: {exc}")

    cfg, params = config.cell, config.device
    wildcard = program_digital(TernaryBit.DONT_CARE, cfg, params)
    grid = [[wildcard for _ in range(cols)] for _ in range(rows)]
    for number, r, c, spec, args in cell_specs:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"cell ({r}, {c}) outside {rows}x{cols} array",
                             line=number)
        try:
            if spec == "analog":
                grid[r][c] = program_analog(float(args[0]), float(args[1]),
                                            cfg, params)
            elif spec == "level":
                k = int(args[0])
                grid[r][c] = cell_mod.program_level_window(k, k, cfg, params)
            elif spec == "digital":
                grid[r][c] = program_digital(TernaryBit.from_char(args[0]),
                                             cfg, params)
            else:
                raise ParseError(f"unknown cell spec {spec!r}", line=number)
        except ParseError:
            raise
        except (IndexError, ValueError, FecamError) as exc:
            raise ParseError(f"bad cell spec: {exc}", line=number)
    return FecamArray(cells=grid, ml_params=ml_params, cfg=cfg, params=params)


def parse_query_file(text: str):
    """Queries, one per line: whitespace or comma separated voltages."""
    queries = []
    for number, line in _content_lines(text):
        try:
            queries.append([float(tok) for tok in line.replace(",", " ").split()])
        except ValueError as exc:
            raise ParseError(f"bad query line: {exc}", line=number)
    return queries


def parse_rules_file(text: str):
    """Range rules, one per line: lo hi width action."""
    rules = []
    for number, line in _content_lines(text):
        tokens = line.split()
        if len(tokens) != 4:
            raise ParseError(
                f"expected 'lo hi width action', got {line!r}", line=number)
        try:
            rules.append(RangeRule(lo=int(tokens[0]), hi=int(tokens[1]),
                                   width=int(tokens[2]), action=tokens[3]))
        except (ValueError, FecamError) as exc:
            raise ParseError(f"bad rule: {exc}", line=number)
    return rules


def trace_csv(result: SearchResult) -> str:
    """Per-row match-line transient: row,t_seconds,v_ml_volts."""
    lines = ["row,t_seconds,v_ml_volts"]
    times = [_fmt(t) for t in result.times]
    n_rows = result.ml_voltages.shape[1]
    for row in range(n_rows):
        for t, v in zip(times, result.ml_voltages[:, row]):
            lines.append(f"{row},{t},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def bounds_sweep_csv(v_sl_grid, matches) -> str:
    """Match flags per row along a search-voltage sweep:
    v_sl_volts,match_0,...,match_{R-1}."""
    matches = np.asarray(matches)
    n_rows = matches.shape[1]
    header = "v_sl_volts," + ",".join(f"match_{r}" for r in range(n_rows))
    lines = [header]
    for v, row in zip(v_sl_grid, matches):
        lines.append(_fmt(v) + "," + ",".join(str(int(m)) for m in row))
    return "\n".join(lines) + "\n"


def transfer_csv(rows) -> str:
    """Transfer-curve families: amplitude_volts,v_gs_volts,i_d_amps."""
    lines = ["amplitude_volts,v_gs_volts,i_d_amps"]
    for amplitude, v_gs, i_d in rows:
        lines.append(f"{_fmt(amplitude)},{_fmt(v_gs)},{_fmt(i_d)}")
    return "\n".join(lines) + "\n"
