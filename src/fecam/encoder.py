"""Compiles integer ranges into CAM tables.

Two covers are produced for a range [lo, hi]: a minimal prefix cover for
ternary (0/1/X) entries, and a greedy base-2^b digit-range cover for
multi-bit analog entries where each cell stores an interval of quantized
levels.  Both are exact: an address matches the cover iff it lies in the
range.  Every cover entry is one address interval, so table lookup is one
`searchsorted` into an interval index (segment starts, each labelled with
its first rule), keyed on Python ints from 63 bits up: any width works.
"""

from __future__ import annotations

import enum
import functools
import heapq
from dataclasses import dataclass

import numpy as np

from .cell import CellConfig
from .errors import InvalidParameterError, OutOfRangeError


@dataclass(frozen=True)
class TernaryEntry:
    """One ternary CAM row as a string of '0'/'1'/'X' characters, MSB first.

    Entries produced here are always prefix-form (wildcards form a suffix).
    """

    bits: str

    def __post_init__(self):
        if not self.bits or any(ch not in "01X" for ch in self.bits):
            raise InvalidParameterError(f"bad ternary bits: {self.bits!r}")

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def is_prefix_form(self) -> bool:
        return "X" not in self.bits.rstrip("X")

    def value_and_mask(self):
        """Integer compare form: addr matches iff (addr & mask) == value."""
        mask = self.bits.replace("0", "1").replace("X", "0")
        return int(self.bits.replace("X", "0"), 2), int(mask, 2)

    @property
    def interval(self):
        """(lo, hi) of the addresses the entry matches; prefix form only."""
        if not self.is_prefix_form:
            raise InvalidParameterError(f"entry {self} is not one address interval")
        return int(self.bits.replace("X", "0"), 2), int(self.bits.replace("X", "1"), 2)

    def __str__(self):
        return self.bits


@dataclass(frozen=True)
class AnalogEntry:
    """One analog CAM row: a level interval [d_lo, d_hi] per cell, MSB first."""

    digits: tuple             # ((d_lo, d_hi), ...) most-significant first
    bits_per_cell: int = 3

    def __post_init__(self):
        digits = tuple((int(a), int(b)) for a, b in self.digits)
        object.__setattr__(self, "digits", digits)
        top = (1 << self.bits_per_cell) - 1
        for d_lo, d_hi in digits:
            if not 0 <= d_lo <= d_hi <= top:
                raise InvalidParameterError(
                    f"digit range [{d_lo}, {d_hi}] invalid for "
                    f"{self.bits_per_cell} bits per cell")

    @property
    def width(self) -> int:
        return len(self.digits) * self.bits_per_cell

    @property
    def interval(self):
        """(lo, hi) of the addresses the entry matches."""
        lo, hi, size = 0, 0, 1  # size: how many addresses the entry matches
        for d_lo, d_hi in self.digits:
            lo, hi = lo << self.bits_per_cell | d_lo, hi << self.bits_per_cell | d_hi
            size *= d_hi - d_lo + 1
        if hi - lo + 1 != size:
            raise InvalidParameterError(f"entry {self} is not one address interval")
        return lo, hi

    def __str__(self):
        return "".join(f"[{a}-{b}]" for a, b in self.digits)


@dataclass(frozen=True)
class RangeRule:
    """One routing rule: match addresses in [lo, hi] and return the action."""

    lo: int
    hi: int
    width: int
    action: str

    def __post_init__(self):
        if not (type(self.width) is int and self.width > 0):
            raise InvalidParameterError(
                f"rule width must be a positive int, got {self.width!r}")
        if not 0 <= self.lo <= self.hi < (1 << self.width):
            raise InvalidParameterError(
                f"range [{self.lo}, {self.hi}] invalid for width {self.width}")


def range_to_prefixes(lo: int, hi: int, width: int):
    """Minimal prefix cover of [lo, hi]: disjoint, ascending, exact.

    Greedy: at each cursor emit the largest power-of-two aligned block that
    starts there and fits in the remaining range.
    """
    RangeRule(lo, hi, width, "")  # reuse the invariant check
    entries = []
    cursor = lo
    while cursor <= hi:
        size = cursor & -cursor if cursor else 1 << width
        while cursor + size - 1 > hi:
            size >>= 1
        wild = size.bit_length() - 1
        if wild == width:
            bits = "X" * width
        else:
            bits = format(cursor >> wild, f"0{width - wild}b") + "X" * wild
        entries.append(TernaryEntry(bits))
        cursor += size
    return entries


def range_to_analog_entries(lo: int, hi: int, width: int,
                            bits_per_cell: int = 3):
    """Greedy digit-range cover of [lo, hi] in base 2^bits_per_cell.

    Each entry fixes the high digits, bounds one digit by an interval, and
    wildcards the lower digits; entries are disjoint, ascending, and their
    union is exactly the range.
    """
    if bits_per_cell < 1:
        raise InvalidParameterError("bits_per_cell must be >= 1")
    if width % bits_per_cell != 0:
        raise InvalidParameterError(
            f"width {width} not divisible by {bits_per_cell} bits per cell")
    RangeRule(lo, hi, width, "")
    base = 1 << bits_per_cell
    n_digits = width // bits_per_cell
    entries = []
    cursor = lo
    while cursor <= hi:
        k = 0
        while (k + 1 < n_digits and cursor % base ** (k + 1) == 0
               and cursor + base ** (k + 1) - 1 <= hi):
            k += 1
        d_lo = (cursor // base ** k) % base
        span = 1
        while d_lo + span <= base - 1 and cursor + (span + 1) * base ** k - 1 <= hi:
            span += 1
        digits = []
        for pos in range(n_digits - 1, -1, -1):
            if pos > k:
                d = (cursor // base ** pos) % base
                digits.append((d, d))
            elif pos == k:
                digits.append((d_lo, d_lo + span - 1))
            else:
                digits.append((0, base - 1))
        entries.append(AnalogEntry(tuple(digits), bits_per_cell))
        cursor += span * base ** k
    return entries


def _addresses(addrs, width: int) -> np.ndarray:
    """Integer address array checked against the width: int64 below 63 bits,
    Python ints from 63 bits up.  Width 0 (a table without rules) bounds
    nothing.  A non-integer address raises at any width."""
    narrow = 0 < width < 63
    a = np.asarray(addrs) if narrow else np.asarray(addrs, dtype=object)
    kind = a.dtype.kind
    if kind == "O":  # wide, or ints too wide for int64
        integral = all(isinstance(x, (int, np.integer)) for x in a.flat)
    else:
        integral = kind in "biu" or not a.size
    if not integral:
        raise InvalidParameterError("addresses must be integers")
    if width and a.size and (a.min() < 0 or a.max() >= 1 << width):
        raise OutOfRangeError(f"addresses outside width {width}")
    return a.astype(np.int64, copy=False) if narrow else a


def _interval_index(intervals, width: int):
    """First-match index of ordered (lo, hi) intervals: sorted segment starts
    (as `_addresses`), and per segment its first interval's position or -1."""
    points = sorted({0, *(lo for lo, _ in intervals),
                     *(hi + 1 for _, hi in intervals)} - {1 << width})
    waiting = sorted(range(len(intervals)), key=lambda i: -intervals[i][0])
    active, first = [], []
    for point in points:
        while waiting and intervals[waiting[-1]][0] <= point:
            heapq.heappush(active, waiting.pop())
        while active and intervals[active[0]][1] < point:
            heapq.heappop(active)  # ended intervals never hold a later point
        first.append(active[0] if active else -1)
    return _addresses(points, width), np.array(first, dtype=np.int64)


def entries_match(entries, addr: int, width: int) -> bool:
    """True when any entry matches the address (membership oracle)."""
    return bool(entries_match_many(entries, [addr], width)[0])


def entries_match_many(entries, addrs, width: int) -> np.ndarray:
    """Vectorized entries_match over an integer address array."""
    a = _addresses(addrs, width)
    out = np.zeros(a.shape, dtype=bool)
    for e in entries:
        if isinstance(e, TernaryEntry):
            value, mask = e.value_and_mask()
            out |= (a & mask) == value
        else:
            hit = np.ones(a.shape, dtype=bool)
            for pos, (d_lo, d_hi) in enumerate(reversed(e.digits)):
                digit = (a >> (pos * e.bits_per_cell)) & ((1 << e.bits_per_cell) - 1)
                hit &= (digit >= d_lo) & (digit <= d_hi)
            out |= hit
    return out


def entry_to_cells(entry: AnalogEntry, cfg: CellConfig):
    """Per-cell analog windows [b_dlo, b_(dhi+1)] realizing the entry."""
    if cfg.level_count != (1 << entry.bits_per_cell):
        raise InvalidParameterError(
            f"{entry.bits_per_cell} bits per cell needs "
            f"{1 << entry.bits_per_cell} levels, config has {cfg.level_count}")
    b = cfg.level_bounds
    return [(b[d_lo], b[d_hi + 1]) for d_lo, d_hi in entry.digits]


def address_query_voltages(addr: int, width: int, bits_per_cell: int,
                           cfg: CellConfig):
    """Digit-center search voltages encoding an address, MSB first."""
    if width % bits_per_cell != 0:
        raise InvalidParameterError(
            f"width {width} not divisible by {bits_per_cell} bits per cell")
    if not 0 <= addr < (1 << width):
        raise OutOfRangeError(f"address {addr} outside width {width}")
    base = 1 << bits_per_cell
    if cfg.level_count != base:
        raise InvalidParameterError(
            f"config has {cfg.level_count} levels, need {base}")
    n_digits = width // bits_per_cell
    b = cfg.level_bounds
    voltages = []
    for pos in range(n_digits - 1, -1, -1):
        d = (addr >> (pos * bits_per_cell)) % base
        voltages.append(0.5 * (b[d] + b[d + 1]))
    return voltages


class TableMode(enum.Enum):
    TERNARY = "ternary"
    ANALOG3B = "analog3b"


@dataclass(frozen=True)
class TableEntry:
    entry: object             # TernaryEntry or AnalogEntry
    action: str
    rule_index: int


@dataclass(frozen=True)
class RoutingTable:
    """Compiled CAM table; entry order carries first-match priority."""

    mode: TableMode
    width: int
    entries: tuple
    rules: tuple

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    @property
    def cells_per_entry(self) -> int:
        return self.width if self.mode is TableMode.TERNARY else self.width // 3

    @property
    def n_cells(self) -> int:
        return self.n_entries * self.cells_per_entry

    @functools.cached_property
    def _index(self):
        """Entry interval index labelled with rule indices; built lazily."""
        starts, first = _interval_index(
            [tagged.entry.interval for tagged in self.entries], self.width)
        rule = np.array([tagged.rule_index for tagged in self.entries] + [-1])
        return starts, rule[first]


def compile_table(rules, mode: TableMode) -> RoutingTable:
    """Concatenate per-rule covers into one table, first-match priority.

    All rules must share one search width; overlaps between rules are
    resolved by rule order at lookup time.
    """
    rules = tuple(rules)
    width = rules[0].width if rules else 0
    if any(r.width != width for r in rules):
        raise InvalidParameterError("rules mix different widths")
    entries = []
    for index, rule in enumerate(rules):
        if mode is TableMode.TERNARY:
            cover = range_to_prefixes(rule.lo, rule.hi, rule.width)
        elif mode is TableMode.ANALOG3B:
            cover = range_to_analog_entries(rule.lo, rule.hi, rule.width, 3)
        else:
            raise InvalidParameterError(f"unknown table mode: {mode}")
        entries.extend(TableEntry(e, rule.action, index) for e in cover)
    return RoutingTable(mode=mode, width=width, entries=tuple(entries),
                        rules=rules)


def lookup(table: RoutingTable, addr: int):
    """Action of the first matching entry, or None when nothing matches:
    `lookup_many` of one address, so it works at any address width."""
    index = lookup_many(table, [addr])[0]
    return table.rules[index].action if index >= 0 else None


def lookup_many(table: RoutingTable, addrs) -> np.ndarray:
    """Rule index of the first matching entry per address (-1 for none): one
    `searchsorted` into the table's interval index, at any address width."""
    starts, rule = table._index
    found = np.searchsorted(starts, _addresses(addrs, table.width), side="right")
    return rule[found - 1]


def table_text(table: RoutingTable) -> str:
    """One entry per line: the entry pattern and its action."""
    lines = [f"{tagged.entry}\t{tagged.action}" for tagged in table.entries]
    return "\n".join(lines) + ("\n" if lines else "")
