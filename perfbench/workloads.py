"""The four seeded workloads: inputs, set-up, measured loop and checks.

Every workload draws its inputs from `--seed` alone, drives fecam from one
synchronous caller (a closed loop: the next call starts when the previous
one returns), checks every answer against an oracle and counts a wrong
answer or an exception as a failed operation without stopping the run.

The loop runs in rounds; each round makes a few calls of every kind the
workload has, so that every kind is sampled across the whole run.  Every
workload fills the same sample lists, which the runner turns into the
end-to-end metrics:

- ``bulk``: (items, seconds) per call of the workload's batched read path
- ``build``: (items, seconds) per call of its build, write or characterise step
- ``single``: seconds per single-item call
- ``discrete``/``volts``: outputs of round 0, the simulation digest that lets a
  simulator-only change prove it left results unchanged

Timed calls are on the reference clock (`Clock`): the host this was tuned on
(a 2-CPU KVM guest on a shared machine) ran the same code at three or more
speeds up to 2.6x apart, each held for seconds to minutes, longer than a
run, so no statistic of raw host time repeated from run to run.  A fixed reference kernel, timed every 50 ms
between calls, slows down with the host, and dividing by it removes most
of that swing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

import fecam as F
import fecam.cli  # noqa: F401  (binds F.cli and F.fileio)

WIDTH = 24                # address bits of every rule set
BITS_PER_CELL = 3         # analog tables store one octal digit per cell
BOUNDS_TOLERANCE = 0.02   # V, measured window edge vs programmed (criterion 1)
EDGE_BAND = 0.025         # V, sweep points this close to an edge go unchecked
REFERENCE_SECONDS = 2.5e-4  # reference-kernel time that defines the clock's unit
REFERENCE_EVERY = 0.05     # s, least time between two reference-kernel runs
REFERENCE_WINDOW = 9       # reference runs (about 0.5 s) a call is scaled by
# Host-speed sensitivity of calls whose time goes into numpy array kernels
# (the batched searches of array-search and cam-program, the cli sweep):
# when the host slows down they slow down only about half as much (in log
# terms) as the interpreter-bound reference kernel.
ARRAY_BOUND = 0.5

_REF_START = np.linspace(0.0, 1.0, 64)
_REF_BUFFER = np.empty(64)


def _reference_step(i: int, weights: tuple) -> int:
    return weights[i % 3] * i % 7


def reference_kernel() -> float:
    """Fixed interpreter-bound work shaped like fecam's own calls: Python
    function calls and integer arithmetic, then a chain of numpy ufuncs on
    64 elements, in place.  It allocates almost nothing, so its time does
    not depend on the heap the workload has built, and it never touches
    fecam, so no change to the package can move it."""
    total = 0
    weights = (1, 2, 3)
    for i in range(1200):
        total += _reference_step(i, weights)
    x, y = _REF_START.copy(), _REF_BUFFER
    for _ in range(60):
        np.multiply(x, x, out=y)
        y += 1.0
        np.sqrt(y, out=x)
    return total + float(x[0])


class Clock:
    """Times calls in host seconds scaled to the reference speed: a call's
    host time times (REFERENCE_SECONDS / r) ** sensitivity, where r is the
    median of the last REFERENCE_WINDOW runs of the reference kernel, which
    runs at most once every REFERENCE_EVERY seconds, just before a call.

    `sensitivity` is how strongly the call's time follows the reference
    kernel's when the host slows down: 1 for interpreter-bound calls, which
    slow down as much as the kernel, ARRAY_BOUND for calls that spend their
    time in numpy array kernels and slow down less.  With `scaled` false
    (the traced run) calls are timed in plain host seconds and the kernel
    never runs."""

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self.host = []
        self._due = 0.0

    def _scale(self) -> float:
        if time.perf_counter() >= self._due:
            # warm-up: a cold run measures the cache state the previous
            # call left behind, not the host
            reference_kernel()
            t0 = time.perf_counter()
            reference_kernel()
            t1 = time.perf_counter()
            self.host.append(t1 - t0)
            self._due = t1 + REFERENCE_EVERY
        return REFERENCE_SECONDS / statistics.median(self.host[-REFERENCE_WINDOW:])

    def time(self, fn, *args, sensitivity: float = 1.0):
        """(result, seconds) of one call; an exception propagates."""
        scale = self._scale() ** sensitivity if self.scaled else 1.0
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self.last = (time.perf_counter() - t0) * scale
        return result, self.last


class Ledger:
    """Attempted and failed operations; the first few failures are kept."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def call(self, what: str, fn, *args, sensitivity: float = 1.0):
        """Time one call on the clock; an exception is a failed operation.
        Returns (result, seconds, raised)."""
        try:
            result, seconds = self.clock.time(fn, *args, sensitivity=sensitivity)
        except Exception as exc:  # any exception is a failed op, never fatal
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None, self.clock.last, True
        return result, seconds, False


class Samples:
    def __init__(self):
        self.bulk, self.build, self.single = [], [], []
        self.discrete, self.volts = [], []

    def digest(self) -> dict:
        text = json.dumps(self.discrete, sort_keys=True, default=str)
        return {"discrete_sha256": hashlib.sha256(text.encode()).hexdigest(),
                "volts": [float(v) for v in self.volts]}


def stream(seed: int, kind: int, *unit: int):
    """Independent generator per (seed, input kind, round, ...), so that the
    inputs of a round never depend on how fast earlier rounds ran."""
    return np.random.default_rng([seed, kind, *unit])


def level_centers(cfg) -> np.ndarray:
    b = np.asarray(cfg.level_bounds)
    return 0.5 * (b[:-1] + b[1:])


def range_rules(rng, n_rules: int):
    """First-match rule set over WIDTH-bit addresses.

    Wide ranges have random unaligned endpoints (long covers), narrow ranges
    are short, and half of the narrow ones sit inside a wide range so that
    rule order decides the answer for some addresses.  Returns (lo, hi).
    """
    top = 1 << WIDTH
    n_wide = max(1, n_rules * 3 // 10)
    n_narrow = n_rules - n_wide
    n_nested = n_narrow // 2
    wide_len = rng.integers(1 << 13, 1 << 16, n_wide, endpoint=True)
    wide_lo = rng.integers(0, top - wide_len)
    narrow_len = rng.integers(1, 256, n_narrow, endpoint=True)
    host = rng.integers(0, n_wide, n_nested)
    nested_lo = wide_lo[host] + rng.integers(
        0, wide_len[host] - narrow_len[:n_nested], endpoint=True)
    free_lo = rng.integers(0, top - narrow_len[n_nested:])
    lo = np.concatenate([wide_lo, nested_lo, free_lo])
    hi = lo + np.concatenate([wide_len, narrow_len]) - 1
    order = rng.permutation(n_rules)
    return lo[order].astype(np.int64), hi[order].astype(np.int64)


def rules_from(lo, hi):
    return [F.RangeRule(int(a), int(b), WIDTH, f"r{i}")
            for i, (a, b) in enumerate(zip(lo, hi))]


def rule_addresses(rng, lo, hi, n: int) -> np.ndarray:
    """Half drawn inside a random rule, half uniform over the addresses no
    rule holds, in random order.  The hit share is fixed, not drawn, because
    a miss scans the whole table and a hit stops early: a drawn share would
    make the cost per address differ from seed to seed."""
    pick = rng.integers(0, lo.size, n - n // 2)
    inside = rng.integers(lo[pick], hi[pick], endpoint=True)
    misses = np.empty(0, dtype=np.int64)
    while misses.size < n // 2:
        draw = rng.integers(0, 1 << WIDTH, 2 * n)
        misses = np.concatenate([misses, draw[first_rule(draw, lo, hi) < 0]])
    return rng.permutation(np.concatenate([inside, misses[:n // 2]]))


def first_rule(addrs, lo, hi) -> np.ndarray:
    """Oracle: index of the first rule whose interval holds each address."""
    hit = (addrs[:, None] >= lo[None, :]) & (addrs[:, None] <= hi[None, :])
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


class RouteTable:
    """Encoder only: compile both table modes and report, batch lookups on
    both tables, scalar lookups on the ternary table."""

    name = "route-table"
    singles_per_round = 10    # timed together; single = mean time per lookup
    min_rounds = 10
    fixed_rounds = 3

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.batch = 100 if tiny else 1000
        self.lo, self.hi = range_rules(stream(seed, 1), 40 if tiny else 300)

    def setup(self):
        rules = rules_from(self.lo, self.hi)
        return (rules, F.compile_table(rules, F.TableMode.TERNARY),
                F.compile_table(rules, F.TableMode.ANALOG3B))

    def _build(self, rules):
        cost = F.default_config().cost
        ternary = F.compile_table(rules, F.TableMode.TERNARY)
        analog = F.compile_table(rules, F.TableMode.ANALOG3B)
        report = F.routing_report(cost, ternary, analog)
        return ternary, analog, report, F.table_text(ternary), F.table_text(analog)

    def round(self, state, r, ledger, out, span, paused):
        rules, ternary, analog = state
        with span("bench.route-table.build"):
            got, seconds, raised = ledger.call("compile", self._build, rules)
        if not raised:
            t, a, report, t_text, a_text = got
            ledger.check(
                (t.n_entries, a.n_entries) == (ternary.n_entries, analog.n_entries)
                and (report.ternary_entries, report.analog_entries)
                == (t.n_entries, a.n_entries)
                and t_text.count("\n") == t.n_entries
                and a_text.count("\n") == a.n_entries, "compiled tables differ")
            out.build.append((len(rules), seconds))
            if r == 0:
                out.discrete += [t.n_entries, a.n_entries, t.n_cells, a.n_cells,
                                 hashlib.sha256((t_text + a_text).encode()).hexdigest()]

        addrs = rule_addresses(stream(self.seed, 2, r), self.lo, self.hi, self.batch)
        want = first_rule(addrs, self.lo, self.hi)
        with span("bench.route-table.bulk"):
            got, seconds, raised = ledger.call(
                "lookup_many", lambda: (F.lookup_many(ternary, addrs),
                                        F.lookup_many(analog, addrs)))
        if not raised:
            ledger.check(np.array_equal(got[0], want) and np.array_equal(got[1], want),
                         f"lookup_many batch {r} disagrees with the rules")
            out.bulk.append((2 * addrs.size, seconds))
            if r == 0:
                out.discrete.append(got[0].tolist())

        addrs = rule_addresses(stream(self.seed, 3, r), self.lo, self.hi,
                               self.singles_per_round).tolist()
        want = first_rule(np.array(addrs), self.lo, self.hi).tolist()
        with span("bench.route-table.single"):
            got, seconds, raised = ledger.call(
                "lookup", lambda: [F.lookup(ternary, a) for a in addrs])
        if not raised:
            for addr, index, action in zip(addrs, want, got):
                expected = rules[index].action if index >= 0 else None
                ledger.check(action == expected, f"lookup({addr}) gave {action}")
            out.single.append(seconds / len(addrs))
            if r == 0:
                out.discrete.append(got)


class ArraySearch:
    """Array and device only: batch search, traced single search and bounds
    on one 64x64 array at the column-adapted (auto) sense time.

    Every row holds one seeded quantized level in all its cells, so that a
    common search-voltage sweep (`measure_bounds`) reproduces the programmed
    window, as acceptance criteria 1, 3 and 4 require.  Queries come in three
    equal shares: all columns at one row's level centre (rows at that level
    must match, all others must not); the same with one column moved two
    levels outside (no row may match); and uniform voltages (checked only
    for agreement between `search` and `batch_search`).  The mismatch is two
    levels, not one: a cell one level (50 mV) outside draws ~105 nA, far
    below the 64 x 25 nA the auto sense time is sized for, so the model
    correctly reports a 64-column row with one such cell as matching.
    """

    name = "array-search"
    singles_per_round = 7
    bounds_per_round = 3
    min_rounds = 10
    fixed_rounds = 2

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.size = 16 if tiny else 64
        self.batch = 64 if tiny else 512
        self.levels = stream(seed, 1).integers(0, 8, self.size)
        self.bound_rows = stream(seed, 4).permutation(self.size)
        self.config = F.default_config()
        self.centers = level_centers(self.config.cell)

    def setup(self):
        c = self.config
        grid = [[F.program_level_window(int(k), int(k), c.cell, c.device)
                 for _ in range(self.size)] for k in self.levels]
        return F.FecamArray(cells=grid, ml_params=c.matchline, cfg=c.cell,
                            params=c.device)

    def _queries(self, rng, n: int):
        """(queries, kind, target row): kind 0 match, 1 single mismatch,
        2 uniform."""
        kind = rng.integers(0, 3, n)
        target = rng.integers(0, self.size, n)
        level = self.levels[target]
        q = np.repeat(self.centers[level][:, None], self.size, axis=1)
        column = rng.integers(0, self.size, n)
        down = (rng.random(n) < 0.5) & (level >= 2) | (level >= 6)
        moved = self.centers[np.where(down, level - 2, level + 2)]
        single = kind == 1
        q[single, column[single]] = moved[single]
        uniform = kind == 2
        q[uniform] = rng.uniform(0.0, self.config.cell.vdd, (uniform.sum(), self.size))
        return q, kind, target

    def _built_ok(self, flags, kind, target) -> np.ndarray:
        """Per query: do the flags give the answer the query was built for?"""
        want = self.levels[None, :] == self.levels[target][:, None]
        want[kind == 1] = False
        return (flags == want).all(axis=1) | (kind == 2)

    def round(self, arr, r, ledger, out, span, paused):
        q, kind, target = self._queries(stream(self.seed, 2, r), self.batch)
        with span("bench.array-search.bulk"):
            flags, seconds, raised = ledger.call("batch_search", F.batch_search, arr, q,
                                                 sensitivity=ARRAY_BOUND)
        if not raised:
            ledger.check(bool(self._built_ok(flags, kind, target).all()),
                         f"batch_search batch {r}: built answers differ")
            out.bulk.append((q.shape[0], seconds))
            if r == 0:
                out.discrete.append(np.packbits(flags).tobytes().hex())

        q, kind, target = self._queries(stream(self.seed, 3, r), self.singles_per_round)
        with paused():
            batch = F.batch_search(arr, q)
        built = self._built_ok(batch, kind, target)
        for i in range(q.shape[0]):
            with span("bench.array-search.single"):
                got, seconds, raised = ledger.call("search", F.search, arr, q[i])
            if raised:
                continue
            ledger.check(got.matches == tuple(bool(x) for x in batch[i]) and built[i],
                         f"search round {r} query {i}: flags differ")
            out.single.append(seconds)
            if r == 0:
                out.discrete.append(got.matches)
                if i == 0:
                    out.volts += got.ml_voltages[::250, :4].ravel().tolist()

        b = self.config.cell.level_bounds
        for i in range(self.bounds_per_round):
            row = int(self.bound_rows[(r * self.bounds_per_round + i) % self.size])
            with span("bench.array-search.build"):
                got, seconds, raised = ledger.call("measure_bounds",
                                                   F.measure_bounds, arr, row)
            if raised:
                continue
            k = int(self.levels[row])
            ledger.check(got is not None
                         and abs(got[0] - b[k]) <= BOUNDS_TOLERANCE
                         and abs(got[1] - b[k + 1]) <= BOUNDS_TOLERANCE,
                         f"measure_bounds row {row} gave {got}")
            out.build.append((1, seconds))
            if r == 0 and got is not None:
                out.volts += list(got)


class CamProgram:
    """Writes beside reads: a seeded analog table written row by row into
    64x8 banks, and addresses resolved through the banks at the
    single-mismatch sense time; `lookup_many` on the same table is the oracle.

    Round r rewrites bank r mod n_banks (erase-then-program, so every pass
    leaves the same thresholds) and, once every bank has been written,
    resolves a batch of addresses and then its first two addresses one at a
    time.  The table is the first `entries` entries
    compiled from the rules, so that the bank count, and with it the work per
    lookup, is the same for every seed.
    """

    name = "cam-program"
    batches_per_round = 1
    singles_per_round = 2

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.bank_rows = 16 if tiny else 64
        self.entries = 40 if tiny else 448
        self.batch = 16 if tiny else 64
        self.n_banks = math.ceil(self.entries / self.bank_rows)
        self.fixed_rounds = self.n_banks
        self.min_rounds = self.n_banks + (2 if tiny else 6)
        self.lo, self.hi = range_rules(stream(seed, 1), 30 if tiny else 150)
        self.config = F.default_config()

    def setup(self):
        c = self.config
        table = F.compile_table(rules_from(self.lo, self.hi), F.TableMode.ANALOG3B)
        if table.n_entries < self.entries:
            raise ValueError(f"rules compiled to {table.n_entries} entries, "
                             f"fewer than the {self.entries} the banks hold")
        stored = replace(table, entries=table.entries[:self.entries])
        blank = F.program_digital(F.TernaryBit.DONT_CARE, c.cell, c.device)
        cols = WIDTH // BITS_PER_CELL
        banks = [F.FecamArray.filled(self.bank_rows, cols, blank, c.matchline,
                                     c.cell, c.device) for _ in range(self.n_banks)]
        t_sense = F.single_mismatch_sense_time(c.matchline, c.device, c.cell, cols)
        return stored, banks, t_sense

    def _write(self, banks, index, entry):
        c = self.config
        cells = [F.program_analog(lo, hi, c.cell, c.device)
                 for lo, hi in F.entry_to_cells(entry, c.cell)]
        bank, row = divmod(index, self.bank_rows)
        banks[bank], _ = F.write_cells(banks[bank], row, cells)
        return cells

    def _addresses(self, rng, stored) -> np.ndarray:
        """Half inside a random stored entry, half uniform."""
        n = self.batch
        digits = np.array([t.entry.digits for t in stored.entries])  # (E, D, 2)
        pick = digits[rng.integers(0, len(digits), n)]
        inside = rng.integers(pick[..., 0], pick[..., 1], endpoint=True)
        weights = 1 << (BITS_PER_CELL * np.arange(digits.shape[1])[::-1])
        inside = (inside * weights).sum(axis=1)
        uniform = rng.integers(0, 1 << WIDTH, n)
        return np.where(rng.random(n) < 0.5, inside, uniform)

    def _resolve(self, banks, addrs, t_sense, n_entries):
        """Rule index of the first matching stored entry per address."""
        c = self.config
        q = np.array([F.address_query_voltages(int(a), WIDTH, BITS_PER_CELL, c.cell)
                      for a in addrs])
        first = np.full(len(addrs), n_entries)
        for b, bank in enumerate(banks):
            flags = F.batch_search(bank, q, t_sense)[:, :n_entries - b * self.bank_rows]
            hit = np.where(flags.any(axis=1), flags.argmax(axis=1) + b * self.bank_rows,
                           n_entries)
            first = np.minimum(first, hit)
        return first

    def round(self, state, r, ledger, out, span, paused):
        stored, banks, t_sense = state
        bank = r % self.n_banks
        for index in range(bank * self.bank_rows,
                           min((bank + 1) * self.bank_rows, self.entries)):
            with span("bench.cam-program.write"):
                cells, seconds, raised = ledger.call(
                    "write_cells", self._write, banks, index,
                    stored.entries[index].entry)
            if raised:
                continue
            got = banks[bank].cells[index % self.bank_rows]
            ledger.check(all(abs(g.upper_fet.vth - w.upper_fet.vth) <= 1e-3
                             and abs(g.lower_fet.vth - w.lower_fet.vth) <= 1e-3
                             for g, w in zip(got, cells)),
                         f"write of entry {index} missed its thresholds")
            out.build.append((1, seconds))
            if r == 0 and index == 0:
                out.discrete.append([str(t.entry) for t in stored.entries])
                out.volts += [v for g in got for v in (g.upper_fet.vth, g.lower_fet.vth)]
        if r < self.n_banks - 1:
            return

        rule = np.array([t.rule_index for t in stored.entries] + [-1])
        for b in range(self.batches_per_round):
            addrs = self._addresses(stream(self.seed, 2, r, b), stored)
            with paused():
                want = F.lookup_many(stored, addrs)
            with span("bench.cam-program.bulk"):
                got, seconds, raised = ledger.call("resolve", self._resolve, banks,
                                                   addrs, t_sense, self.entries,
                                                   sensitivity=ARRAY_BOUND)
            if not raised:
                ledger.check(np.array_equal(rule[got], want),
                             f"bank lookup round {r} disagrees with lookup_many")
                out.bulk.append((addrs.size, seconds))
                if r == self.n_banks - 1:
                    out.discrete.append(got.tolist())

        for i in range(self.singles_per_round):
            with span("bench.cam-program.single"):
                got, seconds, raised = ledger.call("resolve one", self._resolve, banks,
                                                   addrs[i:i + 1], t_sense, self.entries)
            if not raised:
                ledger.check(rule[got[0]] == want[i],
                             f"single-address lookup round {r} disagrees with lookup_many")
                out.single.append(seconds)


class Cli:
    """In-process `fecam.cli.main` runs of route --verify, search --out and
    sweep --axis v_sl on generated input files and a config file."""

    name = "cli"
    # two routes per round: one route is the noisiest call of the four workloads
    commands = ("route", "search", "search", "route", "search", "search", "sweep")
    fixed_rounds = 2

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.size = 16 if tiny else 64
        self.samples = 500 if tiny else 4000
        self.min_rounds = 3 if tiny else 10
        self.lo, self.hi = range_rules(stream(seed, 1), 20 if tiny else 200)
        rng = stream(seed, 2)
        self.levels = rng.integers(0, 8, self.size)
        self.target = int(rng.integers(0, self.size))
        w = np.sort(rng.integers(0, 8, 2))
        b = F.default_config().cell.level_bounds
        self.window = (b[w[0]], b[w[1] + 1])

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self):
        """Write the input files, then read them back through fecam."""
        config = replace(F.default_config(), rng_seed=self.seed)
        centers = level_centers(config.cell)
        files = {
            "fecam.cfg": F.config.config_text(config),
            "rules.txt": "".join(f"{a} {b} {WIDTH} r{i}\n"
                                 for i, (a, b) in enumerate(zip(self.lo, self.hi))),
            "array.txt": f"rows {self.size}\ncols {self.size}\n" + "".join(
                f"cell {r} {c} level {k}\n" for r, k in enumerate(self.levels)
                for c in range(self.size)),
            "queries.txt": " ".join(repr(float(centers[self.levels[self.target]]))
                                    for _ in range(self.size)) + "\n",
        }
        for name, text in files.items():
            Path(self._path(name)).write_text(text)
        loaded = F.load_config(self._path("fecam.cfg"))
        rules = F.fileio.parse_rules_file(files["rules.txt"])
        F.fileio.parse_array_file(files["array.txt"], loaded)
        F.fileio.parse_query_file(files["queries.txt"])
        return rules

    def _argv(self, command: str):
        base = ["--config", self._path("fecam.cfg")]
        if command == "route":
            return base + ["route", "--rules", self._path("rules.txt"), "--mode",
                           "both", "--verify", "--samples", str(self.samples)]
        if command == "search":
            return base + ["search", "--array", self._path("array.txt"), "--queries",
                           self._path("queries.txt"), "--out", self._path("trace.csv")]
        side = str(self.size // 4)
        return base + ["sweep", "--axis", "v_sl", "--rows", side, "--cols", side,
                       "--window", repr(self.window[0]), repr(self.window[1]),
                       "--out", self._path("sweep.csv")]

    def _run(self, command: str):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = F.cli.main(self._argv(command))
            except SystemExit as exc:
                code = exc.code
        return code, stdout.getvalue()

    def _check(self, command: str, code, text: str, out, first: bool) -> bool:
        ok = code == 0
        if command == "route":
            ok = ok and "verify_ternary = pass" in text and "verify_analog = pass" in text
            if first:
                out.discrete.append(text)
        elif command == "search":
            want = ",".join(str(bool(x)).lower()
                            for x in self.levels == self.levels[self.target])
            lines = Path(self._path("trace.csv")).read_text().splitlines()
            ok = (ok and f"query_0_matches = {want}" in text
                  and len(lines) == 1 + self.size * 1001)
            if first:
                out.discrete.append(text)
                out.volts += [float(line.rsplit(",", 1)[1])
                              for line in lines[1001::1001][:8]]
        else:
            lines = Path(self._path("sweep.csv")).read_text().splitlines()[1:]
            lo, hi = self.window
            ok = ok and len(lines) == 1001
            for line in lines:
                fields = line.split(",")
                v = float(fields[0])
                if min(abs(v - lo), abs(v - hi)) > EDGE_BAND:
                    want = "1" if lo < v < hi else "0"
                    ok = ok and all(f == want for f in fields[1:])
            if first:
                out.discrete.append(hashlib.sha256("\n".join(lines).encode()).hexdigest())
        return ok

    def round(self, rules, r, ledger, out, span, paused):
        for i, command in enumerate(self.commands):
            with span(f"bench.cli.{command}"):
                got, seconds, raised = ledger.call(
                    command, self._run, command,
                    sensitivity=ARRAY_BOUND if command == "sweep" else 1.0)
            if raised:
                continue
            with paused():
                first = r == 0 and self.commands.index(command) == i
                ok = self._check(command, got[0], got[1], out, first)
            ledger.check(ok, f"fecam {command} exited {got[0]} or gave a wrong answer")
            if command == "route":
                out.build.append((len(rules), seconds))
            elif command == "search":
                out.single.append(seconds)
            else:
                out.bulk.append((1001, seconds))


WORKLOADS = {w.name: w for w in (RouteTable, ArraySearch, CamProgram, Cli)}


def measure(workload, state, ledger, span=None, paused=None,
            seconds: float | None = None, setup_times: list | None = None):
    """Closed loop of rounds: a fixed number for the traced pass, else rounds
    until `seconds` have passed and `min_rounds` are done.  When
    `setup_times` is given, every round also times one fresh set-up, so set-up
    is sampled across the whole run like everything else."""
    span = span or untraced
    paused = paused or untraced
    out = Samples()
    started, r = time.perf_counter(), 0
    while (r < workload.fixed_rounds if seconds is None else
           r < workload.min_rounds or time.perf_counter() - started < seconds):
        if setup_times is not None:
            setup_times.append(ledger.clock.time(workload.setup)[1])
        workload.round(state, r, ledger, out, span, paused)
        r += 1
    return out


def untraced(*_):
    """Stands in for both Tracer.span and Tracer.paused when not tracing."""
    return nullcontext()
