"""Text formats: array descriptions, query lists, rule files, CSV exports.

All CSV exports start with a header row whose column names carry units, use
the decimal point, and may use scientific notation.  Each export builds one
"%" template for the whole file, with the columns it already knows (rows,
times) filled in, and applies it once to the flat list of its numbers; the
template fields come from costmodel.NUMBER_SPEC, the spec of `_fmt`.  An
array description programs each distinct cell spec once and shares the
resulting frozen cell between every position that names it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import cell as cell_mod
from .array import FecamArray, SearchResult
from .cell import TernaryBit, program_analog, program_digital
from .config import GlobalConfig
from .costmodel import NUMBER_SPEC, _fmt
from .encoder import RangeRule
from .errors import FecamError, InconsistentInputError, ParseError

NUMBER = "%" + NUMBER_SPEC  # template field of one real number


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
    programmed = {}  # (spec, *args) -> cell; cells are frozen, so shared
    for number, r, c, spec, args in cell_specs:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"cell ({r}, {c}) outside {rows}x{cols} array",
                             line=number)
        key = (spec, *args)
        cell = programmed.get(key)
        if cell is None:
            cell = programmed[key] = _program_cell(spec, args, cfg, params, number)
        grid[r][c] = cell
    return FecamArray(cells=grid, ml_params=ml_params, cfg=cfg, params=params)


def _program_cell(spec: str, args, cfg, params, number: int):
    try:
        if spec == "analog":
            return program_analog(float(args[0]), float(args[1]), cfg, params)
        if spec == "level":
            k = int(args[0])
            return cell_mod.program_level_window(k, k, cfg, params)
        if spec == "digital":
            return program_digital(TernaryBit.from_char(args[0]), cfg, params)
    except (IndexError, ValueError, FecamError) as exc:
        raise ParseError(f"bad cell spec: {exc}", line=number)
    raise ParseError(f"unknown cell spec {spec!r}", line=number)


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
    lines = [f"{_fmt(t)},{NUMBER}" for t in result.times]
    blocks = (f"\n{row},".join(["", *lines])
              for row in range(result.ml_voltages.shape[1]))
    # header and last newline inside: the "%" result is the only copy of the text
    template = "".join(["row,t_seconds,v_ml_volts", *blocks, "\n"])
    return template % tuple(result.ml_voltages.T.ravel().tolist())


def bounds_sweep_csv(v_sl_grid, matches) -> str:
    """Match flags per row along a search-voltage sweep:
    v_sl_volts,match_0,...,match_{R-1}."""
    matches = np.asarray(matches)
    n_points, n_rows = matches.shape
    grid = np.asarray(v_sl_grid, dtype=float)
    if grid.shape != (n_points,):
        raise InconsistentInputError(
            f"{grid.size} sweep voltages for {n_points} rows of match flags")
    header = "v_sl_volts," + ",".join(f"match_{r}" for r in range(n_rows))
    line = f"\n{NUMBER}," + ",".join(["%d"] * n_rows)
    values = np.column_stack((grid, matches.astype(object)))
    return (header + line * n_points + "\n") % tuple(values.ravel().tolist())


def transfer_csv(rows) -> str:
    """Transfer-curve families: amplitude_volts,v_gs_volts,i_d_amps."""
    values = np.asarray(rows, dtype=float).ravel().tolist()
    line = f"\n{NUMBER},{NUMBER},{NUMBER}"
    return ("amplitude_volts,v_gs_volts,i_d_amps" + line * (len(values) // 3)
            + "\n") % tuple(values)
