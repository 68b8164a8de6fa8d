"""Text formats: array descriptions, query lists, rule files, CSV exports.

All CSV exports start with a header row whose column names carry units, use
the decimal point, and may use scientific notation.  Each export builds one
"%" template, with the columns it already knows (times) filled in, and fills
it with the flat list of its numbers: once for the whole file, except the
trace, which fills it once per distinct voltage column and prefixes each
row's copy with its row number.  The template fields come from
costmodel.NUMBER_SPEC, the spec of `_fmt`.  An array description programs
each distinct cell spec once and fills the array's thresholds by index.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import cell as cell_mod
from .array import FecamArray, SearchResult, _check_size
from .cell import TernaryBit, program_analog, program_digital
from .config import GlobalConfig, parse_floats
from .costmodel import NUMBER_SPEC
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

    Cells not mentioned default to digital X (match-anything).  A statement
    of a known kind must have exactly the tokens of its form, and `rows`,
    `cols`, each matchline field and each cell may be set only once.
    """
    rows = cols = None
    ml_overrides = {}
    cell_specs = []
    seen = {}  # what a rows, cols or matchline statement sets -> its line
    for number, line in _content_lines(text):
        tokens = line.split()
        kind = tokens[0].lower()
        try:
            if kind == "rows":
                key, rows = "rows", int(_exact(tokens, "rows R", number)[1])
            elif kind == "cols":
                key, cols = "cols", int(_exact(tokens, "cols C", number)[1])
            elif kind == "matchline":
                _, field, value = _exact(tokens, "matchline <field> <value>", number)
                key, ml_overrides[field] = f"matchline {field}", float(value)
            elif kind == "cell":
                cell_specs.append((number, int(tokens[1]), int(tokens[2]),
                                   tokens[3].lower(), tokens[4:]))
                continue  # a repeated cell is found as the grid fills
            else:
                raise ParseError(f"unknown statement {kind!r}", line=number)
        except (IndexError, ValueError) as exc:
            raise ParseError(f"bad statement {line!r}: {exc}", line=number)
        if key in seen:
            raise ParseError(f"{key} repeats line {seen[key]}", line=number)
        seen[key] = number
    if rows is None or cols is None:
        raise ParseError("array description needs both rows and cols")

    try:
        ml_params = replace(config.matchline, **ml_overrides)
    except (TypeError, FecamError) as exc:
        raise ParseError(f"bad matchline override: {exc}")

    _check_size(rows, cols)
    cfg, params = config.cell, config.device
    # the wildcard, then one cell per distinct spec; each grid cell's index into them
    cells = [program_digital(TernaryBit.DONT_CARE, cfg, params)]
    index = [0] * (rows * cols)  # row by row
    first = [0] * (rows * cols)  # the line that set each grid cell, or 0
    programmed = {}  # (spec, *args) -> index of its cell
    for number, r, c, spec, args in cell_specs:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ParseError(f"cell ({r}, {c}) outside {rows}x{cols} array",
                             line=number)
        key = (spec, *args)
        k = programmed.get(key)
        if k is None:
            cells.append(_program_cell(spec, args, cfg, params, number))
            k = programmed[key] = len(cells) - 1
        at = r * cols + c
        if first[at]:
            raise ParseError(f"cell {r} {c} repeats line {first[at]}", line=number)
        index[at], first[at] = k, number
    upper, lower = np.array([(c.upper_fet.vth, c.lower_fet.vth) for c in cells])[index].T
    vth = np.hstack((upper.reshape(rows, cols), lower.reshape(rows, cols)))
    return FecamArray.from_vth(vth, ml_params, cfg, params)


def _exact(tokens, form: str, number: int):
    """tokens, when there are as many as in form; else a ParseError."""
    if len(tokens) != len(form.split()):
        raise ParseError(f"expected {form!r}, got {' '.join(tokens)!r}", line=number)
    return tokens


def _program_cell(spec: str, args, cfg, params, number: int):
    forms = {"analog": "analog <lo> <hi>", "level": "level <k>", "digital": "digital 0|1|X"}
    if spec not in forms:
        raise ParseError(f"unknown cell spec {spec!r}", line=number)
    _exact([spec, *args], forms[spec], number)
    try:
        if spec == "analog":
            return program_analog(float(args[0]), float(args[1]), cfg, params)
        if spec == "level":
            k = int(args[0])
            return cell_mod.program_level_window(k, k, cfg, params)
        return program_digital(TernaryBit.from_char(args[0]), cfg, params)
    except (ValueError, FecamError) as exc:
        raise ParseError(f"bad cell spec: {exc}", line=number)


def parse_query_file(text: str):
    """Queries, one per line: whitespace or comma separated voltages."""
    queries = []
    for number, line in _content_lines(text):
        try:
            queries.append(list(parse_floats(line)))
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
    """Per-row match-line transient: row,t_seconds,v_ml_volts.  The times go
    into one template by a single "%", which leaves a voltage field on each
    line; each distinct voltage column fills it once, keyed on its bytes (so
    -0.0 and 0.0 stay apart), and is copied for each of its rows with the
    row number in front of every line."""
    times = result.times.tolist()
    template = (("\n" + NUMBER + ",%" + NUMBER) * len(times)) % tuple(times)
    texts = {}  # column bytes -> its lines, each after a newline
    blocks = ["row,t_seconds,v_ml_volts"]
    for row, column in enumerate(result.ml_voltages.T):
        key = column.tobytes()
        if key not in texts:
            texts[key] = template % tuple(column.tolist())
        blocks.append(texts[key].replace("\n", f"\n{row},"))
    blocks.append("\n")
    return "".join(blocks)


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
