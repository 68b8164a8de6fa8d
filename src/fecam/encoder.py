"""Compiles integer ranges into CAM tables.

One greedy cover serves both modes: at b bits per cell it gives digit-range
entries (each cell an interval of quantized levels); at one bit per cell,
where a digit interval is 0, 1 or X, it is the minimal ternary prefix cover.
Both are exact.  The covers check their arguments once and share one core,
`_cover`, which runs on checked Python ints and builds its entries unchecked;
`compile_table` checks its rules once (each a `RangeRule`, so its ends and
width are checked ints) and builds every entry of its table that way.  Every
entry is one address interval, so table lookup is a search of one interval
index: `bisect` for one address over Python ints, `searchsorted` for many,
keyed on Python ints from 63 bits up.  Any width works.  The index is
canonical (each segment holds its first rule or -1, no two adjacent alike),
so `route --verify` checks every address by comparing a table's with its rules'.
"""

from __future__ import annotations

import bisect
import enum
import functools
import heapq
from dataclasses import dataclass

import numpy as np

from .cell import CellConfig
from .errors import (DimensionMismatchError, InvalidParameterError, OutOfRangeError,
                     check_int, is_int)

MAX_RULE_WIDTH = 1024     # widest rule: a ternary cover holds ~2 w entries of w cells

_new, _set = object.__new__, object.__setattr__  # the unchecked constructors' tools


@dataclass(frozen=True)
class TernaryEntry:
    """One ternary CAM row as a string of '0'/'1'/'X' characters, MSB first.

    Entries produced here are always prefix-form (wildcards form a suffix).
    """

    bits: str

    def __post_init__(self):
        if not (isinstance(self.bits, str) and self.bits and not self.bits.strip("01X")):
            raise InvalidParameterError(f"bad ternary bits: {self.bits!r}")

    @classmethod
    def _unchecked(cls, bits: str):
        """The entry of bits known to be a '0'/'1'/'X' str, made without a check."""
        entry = _new(cls)
        _set(entry, "bits", bits)
        return entry

    @property
    def width(self) -> int:
        return len(self.bits)

    @property
    def is_prefix_form(self) -> bool:
        return "X" not in self.bits.rstrip("X")

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
        _, bits, _ = _geometry(0, self.bits_per_cell)  # any digit count fits the width
        top = (1 << bits) - 1
        try:  # check_int words any error
            digits = tuple([(lo := check_int(a, "digit low end", 0, top),
                             check_int(b, "digit high end", lo, top)) for a, b in self.digits])
        except (TypeError, ValueError):  # not an iterable of pairs
            raise InvalidParameterError("digits must be (lo, hi) pairs") from None
        if not digits:
            raise InvalidParameterError("an analog entry needs at least one digit")
        object.__setattr__(self, "digits", digits)
        if type(self.bits_per_cell) is not int:  # hold a Python int
            object.__setattr__(self, "bits_per_cell", bits)

    @classmethod
    def _unchecked(cls, digits: tuple, bits_per_cell: int):
        """The entry of digits known to be a tuple of in-range Python int
        pairs and of a checked Python int bits_per_cell, made without a check."""
        entry = _new(cls)
        _set(entry, "digits", digits)
        _set(entry, "bits_per_cell", bits_per_cell)
        return entry

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
        return "".join(map(_pair_text, self.digits))


_pair_text = functools.lru_cache(maxsize=4096)("[%d-%d]".__mod__)  # one digit pair's text


@dataclass(frozen=True)
class RangeRule:
    """One routing rule: match addresses in [lo, hi] and return the action,
    a non-empty str without whitespace, as a rules file holds it.  The ends
    and the width are stored as Python ints."""

    lo: int
    hi: int
    width: int
    action: str

    def __post_init__(self):
        width = check_int(self.width, "rule width", 1, MAX_RULE_WIDTH)
        top = (1 << width) - 1
        lo = check_int(self.lo, "range low end", 0, top)
        hi = check_int(self.hi, "range high end", lo, top)
        if not (isinstance(self.action, str) and self.action.split() == [self.action]):
            raise InvalidParameterError(f"rule action must be one word, got {self.action!r}")
        if not type(self.lo) is type(self.hi) is type(self.width) is int:  # hold Python ints
            self.__dict__.update(lo=lo, hi=hi, width=width)


def _geometry(width: int, bits_per_cell: int) -> tuple:
    """(width, bits per cell, digits) of an entry as Python ints: the one
    geometry check.  A width of 0 holds no rules; a digit is no wider than
    the widest rule."""
    bits_per_cell = check_int(bits_per_cell, "bits per cell", 1, MAX_RULE_WIDTH)
    width = check_int(width, "width", 0, MAX_RULE_WIDTH)
    if width % bits_per_cell:
        raise InvalidParameterError(
            f"width {width} not divisible by {bits_per_cell} bits per cell")
    return width, bits_per_cell, width // bits_per_cell


def _check_levels(bits_per_cell: int, cfg: CellConfig) -> None:
    """The one levels-per-digit check: b bits per cell need 2^b levels."""
    if cfg.level_count != 1 << bits_per_cell:
        raise InvalidParameterError(
            f"{bits_per_cell} bits per cell needs {1 << bits_per_cell} levels, "
            f"config has {cfg.level_count}")


class _Exact:
    """The exact pair (d, d) of any digit d, made when it is read."""

    def __getitem__(self, d):
        return d, d


def _cover(rules, width: int, bits_per_cell: int, analog: bool) -> list:
    """The one cover core, on the checked Python ints of RangeRules: per rule,
    the greedy cover of [lo, hi] as entries made unchecked, AnalogEntrys when
    analog is set, else TernaryEntrys (one bit per cell).  Each entry is span
    aligned blocks of 2^(b k) addresses from start, differing only in digit k
    (b bits).  k is as large as start's alignment, the room left and the
    digit count allow, then span as large as digit k and the room allow.  An
    analog entry fixes the digits above k, bounds digit k and wildcards the
    digits below; its exact digit pairs come from one list per cover up to 8
    bits per cell and are made on use above, so no cover makes 2^b of them.
    A ternary one is the bits of start above w = k + span - 1 (kept with
    their zeros under a leading 1), then w X's."""
    b, top_k = bits_per_cell, width // bits_per_cell - 1
    base = 1 << b
    top = base - 1
    if analog:
        exact = [(d, d) for d in range(base)] if b <= 8 else _Exact()
        wild = ((0, top),) * top_k
        analog_entry = AnalogEntry._unchecked
    ternary_entry = TernaryEntry._unchecked
    covers = []
    for rule in rules:
        cover, start, hi = [], rule.lo, rule.hi
        while start <= hi:
            room = hi - start + 1
            aligned = (start & -start).bit_length() - 1 if start else width
            k = min(aligned // b, (room.bit_length() - 1) // b, top_k)
            shift = k * b
            d = start >> shift & top
            span = min(base - d, room >> shift)
            if analog:
                cover.append(analog_entry(
                    (*[exact[start >> s & top] for s in range(width - b, shift, -b)],
                     (d, d + span - 1), *wild[:k]), b))
            else:
                w = k + span - 1
                cover.append(ternary_entry(bin(start >> w | 1 << width - w)[3:] + "X" * w))
            start += span << shift
        covers.append(cover)
    return covers


def range_to_prefixes(lo: int, hi: int, width: int):
    """Minimal prefix cover of [lo, hi]: disjoint, ascending, exact; the
    greedy cover at one bit per cell."""
    rule = RangeRule(lo, hi, width, "-")  # reuse the invariant check
    return _cover([rule], rule.width, 1, False)[0]


def range_to_analog_entries(lo: int, hi: int, width: int,
                            bits_per_cell: int = 3):
    """Greedy digit-range cover of [lo, hi] in base 2^bits_per_cell.

    Each entry fixes the high digits, bounds digit k by an interval, and
    wildcards the lower digits; entries are disjoint, ascending, and their
    union is exactly the range.
    """
    rule = RangeRule(lo, hi, width, "-")  # reuse the invariant check
    width, bits_per_cell, _ = _geometry(rule.width, bits_per_cell)
    return _cover([rule], width, bits_per_cell, True)[0]


def _addresses(addrs, width: int) -> np.ndarray:
    """Integer address array checked against the width: int64 below 63 bits,
    Python ints from 63 bits up.  Width 0 (a table without rules) bounds
    nothing.  A non-integer address, a bool among them, raises at any width:
    a typed array is judged by its dtype, anything else element by element."""
    width = check_int(width, "width", 0, MAX_RULE_WIDTH)
    if isinstance(addrs, np.ndarray) and addrs.dtype.kind != "O":
        a, integral = addrs, addrs.dtype.kind in "iu" or not addrs.size
    else:  # a bool turns into an int in a typed array, so look at each one
        a = np.asarray(addrs, dtype=object)
        integral = all(map(is_int, a.flat))
    if not integral:
        raise InvalidParameterError("addresses must be integers")
    if width and a.size and (a.min() < 0 or a.max() >= 1 << width):
        raise OutOfRangeError(f"addresses outside width {width}")
    return a.astype(np.int64 if 0 < width < 63 else object, copy=False)


def _interval_index(intervals, width: int, labels):
    """Canonical first-match index of ordered (lo, hi) intervals: sorted
    segment starts (as `_addresses`), and per segment its first interval's
    label or -1, no two adjacent alike; one first-match map, one index."""
    points = sorted({0, *(lo for lo, _ in intervals),
                     *(hi + 1 for _, hi in intervals)} - {1 << width})
    waiting = sorted(range(len(intervals)), key=lambda i: -intervals[i][0])
    active, first = [], []
    for point in points:
        while waiting and intervals[waiting[-1]][0] <= point:
            heapq.heappush(active, waiting.pop())
        while active and intervals[active[0]][1] < point:
            heapq.heappop(active)  # ended intervals never hold a later point
        first.append(labels[active[0]] if active else -1)
    first = np.array(first, dtype=np.int64)
    new = np.diff(first, prepend=-2) != 0  # segments that change the label
    return _addresses(points, width)[new], first[new]


def _verify_tables(rules, tables) -> list:
    """Per table, whether it answers every address as the rules do: its index,
    from its entries' own intervals, equals the rules' own, built once."""
    width = rules[0].width if rules else 0
    want = _interval_index([(r.lo, r.hi) for r in rules], width, range(len(rules)))
    return [all(map(np.array_equal, table._index, want)) for table in tables]


def entries_match(entries, addr: int, width: int) -> bool:
    """True when any entry matches the address (membership oracle)."""
    return bool(entries_match_many(entries, [addr], width)[0])


def entries_match_many(entries, addrs, width: int) -> np.ndarray:
    """Vectorized entries_match over an integer address array; every entry
    must be width bits wide."""
    a = _addresses(addrs, width)
    out = np.zeros(a.shape, dtype=bool)
    for e in entries:
        if not isinstance(e, (TernaryEntry, AnalogEntry)):
            raise InvalidParameterError(f"not a TernaryEntry or AnalogEntry: {e!r}")
        if e.width != width:
            raise DimensionMismatchError(f"entry {e} is {e.width} bits wide, not {width}")
        if isinstance(e, TernaryEntry):  # addr & mask == value, X bits unmasked
            mask = int(e.bits.replace("0", "1").replace("X", "0"), 2)
            out |= (a & mask) == int(e.bits.replace("X", "0"), 2)
        else:
            hit = np.ones(a.shape, dtype=bool)
            for pos, (d_lo, d_hi) in enumerate(reversed(e.digits)):
                digit = (a >> (pos * e.bits_per_cell)) & ((1 << e.bits_per_cell) - 1)
                hit &= (digit >= d_lo) & (digit <= d_hi)
            out |= hit
    return out


def entry_to_cells(entry: AnalogEntry, cfg: CellConfig):
    """Per-cell analog windows [b_dlo, b_(dhi+1)] realizing the entry."""
    if not isinstance(entry, AnalogEntry):
        raise InvalidParameterError(f"not an AnalogEntry: {entry!r}")
    _check_levels(entry.bits_per_cell, cfg)
    b = cfg.level_bounds
    return [(b[d_lo], b[d_hi + 1]) for d_lo, d_hi in entry.digits]


def address_query_voltages(addr: int, width: int, bits_per_cell: int,
                           cfg: CellConfig):
    """Digit-center search voltages encoding an address, MSB first."""
    width, bits_per_cell, n_digits = _geometry(width, bits_per_cell)
    addr = check_int(addr, "address", 0, (1 << width) - 1, OutOfRangeError)
    _check_levels(bits_per_cell, cfg)
    base = 1 << bits_per_cell
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
    rule_index: int           # the rule it covers, which holds the action

    @classmethod
    def _unchecked(cls, entry, rule_index: int):
        """The table entry, made without the dataclass `__init__`."""
        tagged = _new(cls)
        _set(tagged, "entry", entry)
        _set(tagged, "rule_index", rule_index)
        return tagged


@dataclass(frozen=True)
class RoutingTable:
    """Compiled CAM table; entry order carries first-match priority."""

    mode: TableMode
    width: int
    entries: tuple
    rules: tuple
    bits_per_cell: int        # address bits per cell; 1 for ternary tables

    @property
    def n_entries(self) -> int:
        return len(self.entries)

    @property
    def cells_per_entry(self) -> int:
        return self.width // self.bits_per_cell

    @property
    def n_cells(self) -> int:
        return self.n_entries * self.cells_per_entry

    @functools.cached_property
    def _index(self):
        """Index of the entries' own intervals by rule index; built lazily."""
        return _interval_index([tagged.entry.interval for tagged in self.entries],
                               self.width, [tagged.rule_index for tagged in self.entries])

    @functools.cached_property
    def _bisect_index(self):
        """`_index` as Python lists, for one-address `bisect`; built lazily."""
        starts, rule = self._index
        return starts.tolist(), rule.tolist()


def compile_table(rules, mode: TableMode, bits_per_cell: int = 3) -> RoutingTable:
    """Concatenate per-rule covers into one table, first-match priority.

    Every rule must be a `RangeRule` (so its ends and width are checked
    Python ints), and all must share one search width; overlaps between
    rules are resolved by rule order at lookup time.  bits_per_cell sets the
    digit size of analog covers; ternary tables store one bit per cell.  The
    rules are checked once, and the entries are built unchecked from them.
    """
    rules = tuple(rules)
    for rule in rules:
        if not isinstance(rule, RangeRule):
            raise InvalidParameterError(f"not a RangeRule: {rule!r}")
    width = rules[0].width if rules else 0
    if any(r.width != width for r in rules):
        raise InvalidParameterError("rules mix different widths")
    if mode is TableMode.TERNARY:
        bits_per_cell = 1
    elif mode is not TableMode.ANALOG3B:
        raise InvalidParameterError(f"unknown table mode {mode!r}")
    _, bits_per_cell, _ = _geometry(width, bits_per_cell)  # checked also without rules
    covers = _cover(rules, width, bits_per_cell, mode is TableMode.ANALOG3B)
    tagged = TableEntry._unchecked
    entries = tuple([tagged(e, index) for index, cover in enumerate(covers)
                     for e in cover])
    return RoutingTable(mode=mode, width=width, entries=entries,
                        rules=rules, bits_per_cell=bits_per_cell)


def lookup(table: RoutingTable, addr: int):
    """Action of the first matching entry, or None when nothing matches: one
    `bisect` into the table's interval index, at any address width.  Checks
    and errors are those of `lookup_many`."""
    if not is_int(addr):
        raise InvalidParameterError("addresses must be integers")
    addr, width = int(addr), table.width
    if width and not 0 <= addr < 1 << width:
        raise OutOfRangeError(f"addresses outside width {width}")
    starts, rule = table._bisect_index
    index = rule[bisect.bisect_right(starts, addr) - 1]
    return table.rules[index].action if index >= 0 else None


def lookup_many(table: RoutingTable, addrs) -> np.ndarray:
    """Rule index of the first matching entry per address (-1 for none): one
    `searchsorted` into the table's interval index, at any address width."""
    starts, rule = table._index
    found = np.searchsorted(starts, _addresses(addrs, table.width), side="right")
    return rule[found - 1]


def table_text(table: RoutingTable) -> str:
    """One entry per line: the entry pattern and its rule's action."""
    rules = table.rules
    lines = [f"{tagged.entry}\t{rules[tagged.rule_index].action}"
             for tagged in table.entries]
    return "\n".join(lines) + ("\n" if lines else "")
