"""Command-line front end.

Subcommands: transfer (programmed transfer-curve families), search (array
search from description files), sweep (array-size and search-voltage
sweeps), route (range-rule compilation and comparison), bench (calibrated
cost figures).  Physical constants come from one config file; the path is
taken from --config, else the FECAM_CONFIG environment variable, else the
built-in defaults.  Exit status is 0 on success and 2 on failure, a bad
command line included, with a single machine-parsable error line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import array as array_mod
from . import costmodel, encoder, fileio
from .cell import program_analog
from .config import GlobalConfig, default_config, load_config, parse_floats
from .costmodel import CamKind, _fmt
from .device import WritePulse, drain_current, vth_from_pulse
from .errors import FecamError, InvalidParameterError, ParseError, check_real

CONFIG_ENV_VAR = "FECAM_CONFIG"
NEGATIVE_VALUES = ("A negative number in exponent form, or -inf, reads as an "
                   "option: join it to its option, as in --sense-time=-1e-9, "
                   "or write it as a plain decimal.")


def _write_out(path, text: str, suffix: str = "") -> None:
    """Write text to stdout when path is None or "-", else to path with the
    suffix put before its extension."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        path = Path(path)
        path.with_name(f"{path.stem}{suffix}{path.suffix}").write_text(text)


def _read(path) -> str:
    """An input file's text; bytes that do not decode raise ParseError."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {path}: {exc}") from None


def _load(args) -> GlobalConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return load_config(path)
    return default_config()


def _parse_floats(raw: str):
    try:
        return parse_floats(raw)
    except ValueError as exc:
        raise InvalidParameterError(f"bad number list {raw!r}: {exc}") from None


def cmd_transfer(args) -> int:
    config = _load(args)
    params = config.device
    amplitudes = _parse_floats(args.amplitudes)
    lo, hi, step = args.vgs_range
    # NaN fails every comparison; a quotient past 2^63 fails arange outright
    if not (0 < step < np.inf and lo <= hi < np.inf and (hi - lo) / step < 2 ** 63):
        raise InvalidParameterError(
            "v_gs range needs finite lo <= hi, step > 0 and under 2^63 points")
    check_real(args.vds, "--vds")
    v_gs = np.arange(lo, hi + step / 2, step)
    rows = []
    for amplitude in amplitudes:
        vth = vth_from_pulse(params, WritePulse(amplitude))
        currents = drain_current(params, v_gs, args.vds, vth)
        rows.extend((amplitude, v, i) for v, i in zip(v_gs, currents))
    _write_out(args.out, fileio.transfer_csv(rows))
    return 0


def cmd_search(args) -> int:
    config = _load(args)
    arr = fileio.parse_array_file(_read(args.array), config)
    queries = fileio.parse_query_file(_read(args.queries))
    try:
        t_sense = None if args.sense_time == "auto" else float(args.sense_time)
    except ValueError:
        raise InvalidParameterError(
            f"sense time must be a number or 'auto', got {args.sense_time!r}") from None
    summary = []
    for index, query in enumerate(queries):
        result = array_mod.search(arr, query, t_sense)
        if args.out:
            _write_out(args.out, fileio.trace_csv(result),
                       f"_q{index}" if len(queries) > 1 else "")
        summary.append(f"query_{index}_matches = "
                       + ",".join(str(m).lower() for m in result.matches))
        summary.append(f"query_{index}_sense_time_seconds = "
                       + _fmt(result.sense_time))
    sys.stdout.write("\n".join(summary) + ("\n" if summary else ""))
    return 0


def _uniform_array(config: GlobalConfig, rows: int, cols: int, window):
    cell = program_analog(window[0], window[1], config.cell, config.device)
    return array_mod.FecamArray.filled(rows, cols, cell, config.matchline,
                                       config.cell, config.device)


def cmd_sweep(args) -> int:
    config = _load(args)
    window = tuple(args.window)
    lines = []
    if args.axis in ("rows", "cols"):
        values = _parse_floats(args.values)
        if not values or not all(v.is_integer() and v >= 1 for v in values):
            raise InvalidParameterError(
                f"axis values must be positive integers, got {args.values!r}")
        values = sorted(int(v) for v in values)
        header = (f"{args.axis},lower_bound_volts,upper_bound_volts,"
                  "sense_time_seconds")
        lines.append(header)
        for value in values:
            rows, cols = (value, args.cols) if args.axis == "rows" else (args.rows, value)
            arr = _uniform_array(config, rows, cols, window)
            t_sense = arr.auto_sense_time()
            bounds = array_mod.measure_bounds(arr, 0, t_sense)
            lo, hi = bounds if bounds else (float("nan"), float("nan"))
            lines.append(f"{value},{_fmt(lo)},{_fmt(hi)},{_fmt(t_sense)}")
    elif args.axis == "v_sl":
        arr = _uniform_array(config, args.rows, args.cols, window)
        values = _parse_floats(args.values)
        grid = (np.asarray(sorted(values)) if values
                else array_mod.sweep_grid(config.cell))
        queries = np.repeat(grid[:, None], arr.cols, axis=1)
        matches = array_mod.batch_search(arr, queries)
        _write_out(args.out, fileio.bounds_sweep_csv(grid, matches))
        return 0
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_route(args) -> int:
    config = _load(args)
    rules = fileio.parse_rules_file(_read(args.rules))
    want = (["ternary", "analog"] if args.mode == "both" else [args.mode])
    levels = config.cell.level_count
    bits_per_cell = levels.bit_length() - 1  # analog cells store log2(levels) bits
    if "analog" in want and (levels < 2 or levels != 1 << bits_per_cell):
        raise InvalidParameterError(  # a ternary table stores a bit per cell, not levels
            f"an analog route needs a power-of-two level_count (bounds minus one), got {levels}")
    tables = {}
    out_lines = []
    for name in want:
        mode = (encoder.TableMode.TERNARY if name == "ternary"
                else encoder.TableMode.ANALOG3B)
        table = encoder.compile_table(rules, mode, bits_per_cell)
        tables[name] = table
        if len(want) == 1:  # "both" reports counts through the comparison
            out_lines.append(f"{name}_entries = {table.n_entries}")
            out_lines.append(f"{name}_cells = {table.n_cells}")
        if args.out:
            _write_out(args.out, encoder.table_text(table), f"_{name}" if len(want) > 1 else "")
    if len(want) > 1:
        report = costmodel.routing_report(config.cost, tables["ternary"],
                                          tables["analog"])
        out_lines.append(report.kv_lines().rstrip("\n"))
    if args.verify:
        if args.samples < 0:
            raise InvalidParameterError("--samples must be >= 0")
        verdicts = encoder._verify_tables(rules, tables.values())
        out_lines += [f"verify_{name} = {'pass' if same else 'fail'}"
                      for name, same in zip(tables, verdicts)]
    sys.stdout.write("\n".join(out_lines) + ("\n" if out_lines else ""))
    return 0


def cmd_bench(args) -> int:
    config = _load(args)
    cost, mlp, vdd = config.cost, config.matchline, config.cell.vdd
    lines = []
    for kind in CamKind:
        lines.append(f"energy_per_bit_{kind.value}_joules = "
                     + _fmt(cost.energy_per_bit[kind]))
        lines.append(f"area_per_bit_{kind.value} = "
                     + _fmt(cost.area_per_bit(kind)))
        lines.append(f"word_search_energy_{kind.value}_joules = "
                     + _fmt(costmodel.word_search_energy(cost, kind)))
    for kind in (CamKind.FECAM_DIGITAL, CamKind.FECAM_ANALOG):
        lines.append(f"energy_ratio_vs_cmos_{kind.value} = "
                     + _fmt(costmodel.energy_ratio_vs_cmos(cost, kind)))
        estimate = costmodel.ml_energy_estimate(mlp, cost.word_cells[kind], vdd)
        calibrated = costmodel.word_search_energy(cost, kind)
        lines.append(f"ml_word_energy_estimate_{kind.value}_joules = "
                     + _fmt(estimate))
        lines.append(f"ml_word_energy_estimate_over_calibrated_{kind.value} = "
                     + _fmt(estimate / calibrated))
    text = "\n".join(lines) + "\n"
    _write_out(args.out, text)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in the one-line form of every failure."""

    def error(self, message):
        self.exit(2, f"error: {InvalidParameterError.category}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fecam",
        description="Behavioral simulator and range encoder for 2-FeFET "
                    "universal content-addressable memory arrays.",
        epilog=NEGATIVE_VALUES)
    parser.add_argument("--config", help="config file path (overrides "
                        f"${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer", help="programmed transfer-curve families",
                       epilog=NEGATIVE_VALUES)
    p.add_argument("--amplitudes", required=True,
                   help="comma/space separated write amplitudes in volts "
                        "(empty string for a header-only CSV)")
    p.add_argument("--vgs-range", nargs=3, type=float, default=[0.0, 1.2, 0.01],
                   metavar=("LO", "HI", "STEP"), help="gate sweep in volts")
    p.add_argument("--vds", type=float, default=1.0, help="drain bias in volts")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("search", help="search an array against query vectors",
                       epilog=NEGATIVE_VALUES)
    p.add_argument("--array", required=True, help="array description file")
    p.add_argument("--queries", required=True, help="query file, one per line")
    p.add_argument("--sense-time", default="auto",
                   help="sense time in seconds, or 'auto'")
    p.add_argument("--out", help="trace CSV path, - for stdout (multi-query runs get _qN)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="bounds and timing vs array size or v_sl",
                       epilog=NEGATIVE_VALUES)
    p.add_argument("--axis", required=True, choices=["rows", "cols", "v_sl"])
    p.add_argument("--values", default="",
                   help="axis values (v_sl default: full range at 1 mV)")
    p.add_argument("--window", nargs=2, type=float, default=[0.4, 0.6],
                   metavar=("LO", "HI"), help="programmed window in volts")
    p.add_argument("--rows", type=int, default=1, help="fixed row count")
    p.add_argument("--cols", type=int, default=1, help="fixed column count")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("route", help="compile range rules into CAM tables")
    p.add_argument("--rules", required=True, help="rule file: lo hi width action")
    p.add_argument("--mode", default="both", choices=["ternary", "analog", "both"])
    p.add_argument("--out", help="table listing path, - for stdout (both modes get suffixes)")
    p.add_argument("--verify", action="store_true",
                   help="check every table against the rules at every address")
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="accepted for old command lines; the --verify check is "
                        "exact and this count no longer changes it (must be >= 0)")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("bench", help="calibrated energy and area figures")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    """Run one command.  Its warnings, as the caller's filters let them
    through, become `warning: <message>` lines on stderr, ahead of any error
    line; the caller's warning state is restored on return."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args)
        except FecamError as exc:
            error = f"{exc.category}: {exc}"
        except OSError as exc:
            error = f"io-error: {exc}"
        except MemoryError as exc:
            error = f"out-of-memory: {exc}"
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    print(f"error: {error}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
