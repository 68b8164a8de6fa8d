"""Command-line front end.

Subcommands: transfer (programmed transfer-curve families), search (array
search from description files), sweep (array-size and search-voltage
sweeps), route (range-rule compilation and comparison), bench (calibrated
cost figures).  Physical constants come from one config file; the path is
taken from --config, else the FECAM_CONFIG environment variable, else the
built-in defaults.  Exit status is 0 on success and 2 on failure with a
single machine-parsable error line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import array as array_mod
from . import costmodel, encoder, fileio
from .cell import program_analog
from .config import GlobalConfig, default_config, load_config
from .costmodel import CamKind, _fmt
from .device import WritePulse, vth_from_pulse, saturated_current, vds_factor
from .errors import FecamError, InvalidParameterError

CONFIG_ENV_VAR = "FECAM_CONFIG"
VERIFY_CHUNK = 1 << 16  # route --verify samples drawn and checked at once


def _write_out(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _load(args) -> GlobalConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if path:
        return load_config(path)
    return default_config()


def _parse_floats(raw: str):
    try:
        return [float(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise InvalidParameterError(f"bad number list {raw!r}: {exc}") from None


def cmd_transfer(args) -> int:
    config = _load(args)
    params = config.device
    amplitudes = _parse_floats(args.amplitudes)
    lo, hi, step = args.vgs_range
    if step <= 0 or hi < lo:
        raise InvalidParameterError("v_gs range needs lo <= hi and step > 0")
    v_gs = np.arange(lo, hi + step / 2, step)
    rows = []
    for amplitude in amplitudes:
        vth = vth_from_pulse(params, WritePulse(amplitude))
        currents = saturated_current(params, v_gs, vth) * vds_factor(params, args.vds)
        rows.extend((amplitude, v, i) for v, i in zip(v_gs, currents))
    _write_out(args.out, fileio.transfer_csv(rows))
    return 0


def cmd_search(args) -> int:
    config = _load(args)
    arr = fileio.parse_array_file(Path(args.array).read_text(), config)
    queries = fileio.parse_query_file(Path(args.queries).read_text())
    t_sense = None if args.sense_time == "auto" else float(args.sense_time)
    summary = []
    for index, query in enumerate(queries):
        result = array_mod.search(arr, query, t_sense)
        if args.out:
            out = Path(args.out)
            if len(queries) > 1:
                out = out.with_name(f"{out.stem}_q{index}{out.suffix}")
            _write_out(out, fileio.trace_csv(result))
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
        vdd = config.cell.vdd  # arange can overshoot vdd by an ulp
        grid = (np.asarray(sorted(values))
                if values else np.minimum(np.arange(0.0, vdd + 5e-4, 1e-3), vdd))
        queries = np.repeat(grid[:, None], arr.cols, axis=1)
        matches = array_mod.batch_search(arr, queries)
        _write_out(args.out, fileio.bounds_sweep_csv(grid, matches))
        return 0
    _write_out(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_route(args) -> int:
    config = _load(args)
    rules = fileio.parse_rules_file(Path(args.rules).read_text())
    want = (["ternary", "analog"] if args.mode == "both" else [args.mode])
    tables = {}
    out_lines = []
    for name in want:
        mode = (encoder.TableMode.TERNARY if name == "ternary"
                else encoder.TableMode.ANALOG3B)
        table = encoder.compile_table(rules, mode)
        tables[name] = table
        if len(want) == 1:  # "both" reports counts through the comparison
            out_lines.append(f"{name}_entries = {table.n_entries}")
            out_lines.append(f"{name}_cells = {table.n_cells}")
        if args.out:
            path = Path(args.out)
            if len(want) > 1:
                path = path.with_name(f"{path.stem}_{name}{path.suffix}")
            _write_out(path, encoder.table_text(table))
    if len(want) > 1:
        report = costmodel.routing_report(config.cost, tables["ternary"],
                                          tables["analog"])
        out_lines.append(report.kv_lines().rstrip("\n"))
    if args.verify:
        out_lines.append(_verify_tables(config, rules, tables, args.samples))
    sys.stdout.write("\n".join(out_lines) + ("\n" if out_lines else ""))
    return 0


def _verify_tables(config, rules, tables, samples: int) -> str:
    """Sampled first-match check of every table against the rules' own index,
    in chunks of VERIFY_CHUNK samples so memory does not grow with samples."""
    if samples < 0:
        raise InvalidParameterError("--samples must be >= 0")
    rng = np.random.default_rng(config.rng_seed)
    width = rules[0].width if rules else 0
    starts, first = encoder._interval_index([(r.lo, r.hi) for r in rules], width)

    def agrees(table, n: int) -> bool:
        if width < 63:
            addrs = rng.integers(0, 1 << width, size=n)
        else:  # wider than int64: join 32-bit words into Python ints
            words = rng.integers(0, 1 << 32, size=((width + 31) // 32, n))
            addrs = sum(w.astype(object) << 32 * k for k, w in enumerate(words))
            addrs %= 1 << width
        expected = first[np.searchsorted(starts, addrs, side="right") - 1]
        return np.array_equal(encoder.lookup_many(table, addrs), expected)

    verdicts = []
    for name, table in tables.items():
        same = all(agrees(table, min(VERIFY_CHUNK, samples - done))
                   for done in range(0, samples, VERIFY_CHUNK))
        verdicts.append(f"verify_{name} = {'pass' if same else 'fail'}")
    return "\n".join(verdicts)


def cmd_bench(args) -> int:
    config = _load(args)
    cost, mlp = config.cost, config.matchline
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
        estimate = costmodel.ml_energy_estimate(mlp, cost.word_cells[kind])
        calibrated = costmodel.word_search_energy(cost, kind)
        lines.append(f"ml_word_energy_estimate_{kind.value}_joules = "
                     + _fmt(estimate))
        lines.append(f"ml_word_energy_estimate_over_calibrated_{kind.value} = "
                     + _fmt(estimate / calibrated))
    text = "\n".join(lines) + "\n"
    _write_out(args.out, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fecam",
        description="Behavioral simulator and range encoder for 2-FeFET "
                    "universal content-addressable memory arrays.")
    parser.add_argument("--config", help="config file path (overrides "
                        f"${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer", help="programmed transfer-curve families")
    p.add_argument("--amplitudes", required=True,
                   help="comma/space separated write amplitudes in volts "
                        "(empty string for a header-only CSV)")
    p.add_argument("--vgs-range", nargs=3, type=float, default=[0.0, 1.2, 0.01],
                   metavar=("LO", "HI", "STEP"), help="gate sweep in volts")
    p.add_argument("--vds", type=float, default=1.0, help="drain bias in volts")
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("search", help="search an array against query vectors")
    p.add_argument("--array", required=True, help="array description file")
    p.add_argument("--queries", required=True, help="query file, one per line")
    p.add_argument("--sense-time", default="auto",
                   help="sense time in seconds, or 'auto'")
    p.add_argument("--out", help="trace CSV path (multi-query runs get _qN)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="bounds and timing vs array size or v_sl")
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
    p.add_argument("--out", help="table listing path (both modes get suffixes)")
    p.add_argument("--verify", action="store_true",
                   help="run the sampled membership check")
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="membership samples for --verify")
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("bench", help="calibrated energy and area figures")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FecamError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: io-error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out-of-memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
