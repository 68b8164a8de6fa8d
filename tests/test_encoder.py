
import hashlib
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fecam import (AnalogEntry, CellConfig, DimensionMismatchError, FecamArray,
                   InvalidParameterError, OutOfRangeError, RangeRule, TableMode,
                   TernaryEntry, address_query_voltages, batch_search, compile_table,
                   entries_match, entries_match_many, entry_to_cells, lookup,
                   lookup_many, program_analog, range_to_analog_entries,
                   range_to_prefixes, single_mismatch_sense_time, table_text)
from fecam.encoder import TableEntry, _verify_tables

CASE_LO, CASE_HI, CASE_WIDTH = 98305, 14712838, 24


def minimal_prefix_cover_count(lo, hi):
    """Independent oracle: exact minimum over all aligned-block tilings,
    by bottom-up dynamic programming over the cursor position."""
    best = {hi + 1: 0}
    for cursor in range(hi, lo - 1, -1):
        candidate = None
        size = 1
        while cursor + size - 1 <= hi:
            sub = 1 + best[cursor + size]
            candidate = sub if candidate is None else min(candidate, sub)
            if cursor % (2 * size) != 0:
                break
            size *= 2
        best[cursor] = candidate
    return best[lo]


# The two greedy loops that the one block cover replaced, kept as the
# entry-for-entry reference.
def reference_prefix_bits(lo, hi, width):
    """Prefix greedy: at each cursor the largest power-of-two aligned block
    that starts there and fits in the remaining range."""
    bits, cursor = [], lo
    while cursor <= hi:
        size = cursor & -cursor if cursor else 1 << width
        while cursor + size - 1 > hi:
            size >>= 1
        wild = size.bit_length() - 1
        if wild == width:
            bits.append("X" * width)
        else:
            bits.append(format(cursor >> wild, f"0{width - wild}b") + "X" * wild)
        cursor += size
    return bits


def reference_digit_ranges(lo, hi, width, bits_per_cell):
    """Digit greedy in base 2^bits_per_cell: grow the wildcarded low digits,
    then the interval of the next digit, while the block still fits."""
    base = 1 << bits_per_cell
    n_digits = width // bits_per_cell
    entries, cursor = [], lo
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
        entries.append(tuple(digits))
        cursor += span * base ** k
    return entries


@st.composite
def cover_cases(draw):
    """A width of 1-130 bits, a bits per cell of 1-4 that divides it, and a
    range whose ends are drawn from 0, the top address and random points."""
    width = draw(st.integers(1, 130))
    bits_per_cell = draw(st.sampled_from([b for b in (1, 2, 3, 4) if width % b == 0]))
    end = st.one_of(st.just(0), st.just((1 << width) - 1),
                    st.integers(0, (1 << width) - 1))
    lo, hi = sorted((draw(end), draw(end)))
    return lo, hi, width, bits_per_cell


def random_ranges(rng, width, count):
    pairs = rng.integers(0, 1 << width, size=(count, 2))
    return [tuple(sorted(map(int, pair))) for pair in pairs]


class TestRangeToPrefixes:
    def test_case_study_entry_count(self):
        entries = range_to_prefixes(CASE_LO, CASE_HI, CASE_WIDTH)
        assert len(entries) == 27
        assert all(e.width == CASE_WIDTH for e in entries)

    def test_full_space_single_wildcard(self):
        entries = range_to_prefixes(0, (1 << 24) - 1, 24)
        assert [e.bits for e in entries] == ["X" * 24]

    def test_small_known_cover(self):
        entries = range_to_prefixes(1, 6, 3)
        assert [e.bits for e in entries] == ["001", "01X", "10X", "110"]
        assert minimal_prefix_cover_count(1, 6) == 4

    def test_prefix_form_and_disjoint(self):
        rng = np.random.default_rng(3)
        for width in (4, 8, 12):
            addrs = np.arange(1 << width)
            for lo, hi in random_ranges(rng, width, 20):
                entries = range_to_prefixes(lo, hi, width)
                assert all(e.is_prefix_form for e in entries)
                per_entry = sum(entries_match_many([e], addrs, width).astype(int)
                                for e in entries)
                assert per_entry.max() <= 1

    def test_greedy_count_is_minimal(self):
        rng = np.random.default_rng(5)
        for width in (6, 10, 12):
            for lo, hi in random_ranges(rng, width, 15):
                greedy = len(range_to_prefixes(lo, hi, width))
                assert greedy == minimal_prefix_cover_count(lo, hi)

    def test_exhaustive_exactness(self):
        rng = np.random.default_rng(9)
        for width in (4, 9, 13):
            addrs = np.arange(1 << width)
            for lo, hi in random_ranges(rng, width, 20):
                entries = range_to_prefixes(lo, hi, width)
                got = entries_match_many(entries, addrs, width)
                assert np.array_equal(got, (addrs >= lo) & (addrs <= hi))


class TestRangeToAnalogEntries:
    def test_case_study_entry_count(self):
        entries = range_to_analog_entries(CASE_LO, CASE_HI, CASE_WIDTH, 3)
        assert len(entries) == 10

    def test_full_space_single_entry(self):
        entries = range_to_analog_entries(0, (1 << 24) - 1, 24, 3)
        assert len(entries) == 1
        assert entries[0].digits == tuple([(0, 7)] * 8)

    def test_small_known_cover(self):
        entries = range_to_analog_entries(1, 62, 6, 3)
        assert [e.digits for e in entries] == [
            ((0, 0), (1, 7)), ((1, 6), (0, 7)), ((7, 7), (0, 6))]
        # oracle: exhaustive membership over the 64 addresses
        addrs = np.arange(64)
        got = entries_match_many(entries, addrs, 6)
        assert np.array_equal(got, (addrs >= 1) & (addrs <= 62))

    def test_width_must_divide(self):
        with pytest.raises(InvalidParameterError):
            range_to_analog_entries(0, 100, 8, 3)

    def test_exhaustive_exactness_and_disjointness(self):
        rng = np.random.default_rng(13)
        for width in (6, 9, 12):
            addrs = np.arange(1 << width)
            for lo, hi in random_ranges(rng, width, 20):
                entries = range_to_analog_entries(lo, hi, width, 3)
                got = entries_match_many(entries, addrs, width)
                assert np.array_equal(got, (addrs >= lo) & (addrs <= hi))
                per_entry = sum(entries_match_many([e], addrs, width).astype(int)
                                for e in entries)
                assert per_entry.max() <= 1

    @pytest.mark.parametrize("bits_per_cell", [1, 3])
    def test_never_more_entries_than_ternary(self, bits_per_cell):
        rng = np.random.default_rng(29)
        width = 12
        for lo, hi in random_ranges(rng, width, 30):
            analog = range_to_analog_entries(lo, hi, width, bits_per_cell)
            ternary = range_to_prefixes(lo, hi, width)
            assert len(analog) <= len(ternary)


class TestOneBlockCover:
    @settings(max_examples=300)
    @given(cover_cases())
    def test_both_covers_equal_the_greedy_references(self, case):
        lo, hi, width, bits_per_cell = case
        assert [e.bits for e in range_to_prefixes(lo, hi, width)] == \
            reference_prefix_bits(lo, hi, width)
        assert [e.digits for e in range_to_analog_entries(lo, hi, width, bits_per_cell)] \
            == reference_digit_ranges(lo, hi, width, bits_per_cell)

    def test_wide_digits_cost_only_the_pairs_used(self):
        # the cover made (d, d) for all 2^b digits before its first entry:
        # 6 MB for a range of 6 addresses at 16 bits per cell
        tracemalloc.start()
        try:
            range_to_analog_entries(0, 5, 32, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        for lo, hi, width, bits_per_cell in [(0, 5, 32, 16), (3, (1 << 36) - 5, 36, 12),
                                             (513, (1 << 18) - 8, 18, 9)]:
            assert [e.digits for e in range_to_analog_entries(lo, hi, width, bits_per_cell)] \
                == reference_digit_ranges(lo, hi, width, bits_per_cell)

    def test_one_bit_digit_cover_is_the_prefix_cover(self):
        # at one bit per cell a digit interval (0,0), (1,1) or (0,1) is 0, 1 or X
        symbol = {(0, 0): "0", (1, 1): "1", (0, 1): "X"}
        rng = np.random.default_rng(17)
        for width in (1, 5, 11):
            for lo, hi in random_ranges(rng, width, 30):
                digits = range_to_analog_entries(lo, hi, width, 1)
                assert ["".join(symbol[d] for d in e.digits) for e in digits] == \
                    [e.bits for e in range_to_prefixes(lo, hi, width)]


class TestEntriesMatch:
    def test_full_space_matches_anything(self):
        entry = TernaryEntry("X" * 8)
        assert entries_match([entry], 0, 8)
        assert entries_match([entry], 255, 8)

    def test_small_cover_membership(self):
        entries = range_to_prefixes(1, 6, 3)
        assert not entries_match(entries, 0, 3)
        assert entries_match(entries, 6, 3)

    def test_case_study_boundaries(self):
        # oracle: plain interval containment
        for entries in (range_to_prefixes(CASE_LO, CASE_HI, CASE_WIDTH),
                        range_to_analog_entries(CASE_LO, CASE_HI, CASE_WIDTH, 3)):
            assert not entries_match(entries, CASE_LO - 1, CASE_WIDTH)
            assert entries_match(entries, CASE_LO, CASE_WIDTH)
            assert entries_match(entries, CASE_HI, CASE_WIDTH)
            assert not entries_match(entries, CASE_HI + 1, CASE_WIDTH)

    def test_address_range_checked(self):
        with pytest.raises(OutOfRangeError):
            entries_match([TernaryEntry("0X")], 4, 2)

    @pytest.mark.parametrize("entry", [5, None, "01"])
    def test_entries_of_the_wrong_kind_rejected(self, entry):
        # each used to raise a bare AttributeError on .digits
        with pytest.raises(InvalidParameterError, match="not a TernaryEntry or AnalogEntry"):
            entries_match_many([TernaryEntry("0X"), entry], [1], 2)

    @pytest.mark.parametrize("entries, width", [
        ([AnalogEntry(((0, 7),))], 9), ([AnalogEntry(((0, 7),) * 3)], 6),
        ([TernaryEntry("01X")], 6), ([TernaryEntry("0X"), TernaryEntry("01X")], 2)],
        ids=["analog-narrow", "analog-wide", "ternary-narrow", "ternary-wide"])
    def test_entries_must_have_the_width(self, entries, width):
        # each read the addresses as if the entries fit: a 3-bit entry matched
        # the 9-bit 100, and "01X" the 6-bit address 2
        with pytest.raises(DimensionMismatchError, match=f"bits wide, not {width}$"):
            entries_match_many(entries, [100 % (1 << width)], width)
        with pytest.raises(DimensionMismatchError):
            entries_match(entries, 2, width)

    def test_width_bounded(self):
        # 1 << 140 used to raise a bare OverflowError from 1 << width
        top = (1 << 1024) - 1
        entry = TernaryEntry("1" + "X" * 1023)
        assert entries_match_many([entry], [0, top], 1024).tolist() == [False, True]
        for width in (1025, 1 << 140, 10 ** 5000, -1, 8.0):
            with pytest.raises(InvalidParameterError, match="width must be an int"):
                entries_match_many([], [0], width)


class TestEntryToCells:
    def test_full_digit_range_spans_grid(self, cfg):
        entry = AnalogEntry(tuple([(0, 7)] * 8), 3)
        windows = entry_to_cells(entry, cfg)
        assert windows == [(cfg.level_bounds[0], cfg.level_bounds[-1])] * 8

    def test_single_level_window(self, cfg):
        entry = AnalogEntry(((3, 3),), 3)
        assert entry_to_cells(entry, cfg) == [(cfg.level_bounds[3],
                                               cfg.level_bounds[4])]

    def test_entry_must_be_analog(self, cfg):
        # a bare AttributeError on .bits_per_cell
        with pytest.raises(InvalidParameterError, match="not an AnalogEntry"):
            entry_to_cells(TernaryEntry("01"), cfg)

    def test_level_count_must_match(self, cfg):
        entry = AnalogEntry(((0, 1),), 1)
        with pytest.raises(InvalidParameterError):
            entry_to_cells(entry, cfg)

    def test_digit_validation(self):
        with pytest.raises(InvalidParameterError):
            AnalogEntry(((0, 8),), 3)
        with pytest.raises(InvalidParameterError):
            AnalogEntry(())  # width 0, like TernaryEntry("")
        # int() read 0.5 as 0, and "a" raised a bare ValueError
        for digits in (((0.5, 1),), (("a", 1),), ((0, True),), ((np.float64(1), 2),)):
            with pytest.raises(InvalidParameterError, match="digit (low|high) end must be an integer"):
                AnalogEntry(digits, 3)
        for bad in (1.5, True, None, -1, 10 ** 5000):
            for digits in (((bad, 1),), ((0, bad),)):
                with pytest.raises(InvalidParameterError,
                                   match="digit (low|high) end must be an integer"):
                    AnalogEntry(digits, 3)
        for digits in (((0, 1, 2),), (1, 2), 7):
            with pytest.raises(InvalidParameterError, match=r"\(lo, hi\) pairs"):
                AnalogEntry(digits, 3)
        entry = AnalogEntry(((np.int64(1), np.uint8(2)), (0, 7)), 3)
        assert entry == AnalogEntry(((1, 2), (0, 7)), 3)
        assert all(type(d) is int for pair in entry.digits for d in pair)

    @pytest.mark.parametrize("bits_per_cell", [-1, 0, 1.0, None, 1025, 1 << 140])
    def test_bits_per_cell_must_be_a_positive_int(self, bits_per_cell):
        # -1 used to raise "negative shift count", and 0 was accepted
        with pytest.raises(InvalidParameterError, match="bits per cell"):
            AnalogEntry(((0, 0),), bits_per_cell)

    @pytest.mark.parametrize("bits", [123, None, b"01", "", "01x", "0 1"])
    def test_ternary_bits_must_be_a_01x_string(self, bits):
        # an int used to raise a bare TypeError
        with pytest.raises(InvalidParameterError, match="bad ternary bits"):
            TernaryEntry(bits)


class TestAddressQueryVoltages:
    def test_digit_centres(self, cfg):
        b = cfg.level_bounds
        assert address_query_voltages(0o57, 6, 3, cfg) == [
            0.5 * (b[5] + b[6]), 0.5 * (b[7] + b[8])]

    @pytest.mark.parametrize("bits_per_cell", [0, -3, 1.5, 1 << 140])
    def test_bits_per_cell_checked_first(self, cfg, bits_per_cell):
        # 0 used to raise ZeroDivisionError
        with pytest.raises(InvalidParameterError, match="bits per cell"):
            address_query_voltages(5, 6, bits_per_cell, cfg)

    @pytest.mark.parametrize("addr", [5.5, 5.0, "5", None])
    def test_address_must_be_an_integer(self, cfg, addr):
        # 5.5 used to raise a bare TypeError
        with pytest.raises(InvalidParameterError, match="integer"):
            address_query_voltages(addr, 6, 3, cfg)
        assert address_query_voltages(np.int64(5), 6, 3, cfg) == \
            address_query_voltages(5, 6, 3, cfg)

    @pytest.mark.parametrize("addr", [-1, 64])
    def test_address_within_width(self, cfg, addr):
        with pytest.raises(OutOfRangeError):
            address_query_voltages(addr, 6, 3, cfg)

    def test_width_must_divide(self, cfg):
        with pytest.raises(InvalidParameterError, match="not divisible"):
            address_query_voltages(5, 8, 3, cfg)

    def test_width_bounded(self, cfg):
        # 1 << 140 used to raise a bare OverflowError from 1 << width
        two_levels = CellConfig(level_bounds=(0.1, 0.5, 0.9))
        top = address_query_voltages((1 << 1024) - 1, 1024, 1, two_levels)
        assert top == [0.7] * 1024
        for width in (1025, 1 << 140):
            with pytest.raises(InvalidParameterError, match="width must be an int"):
                address_query_voltages(0, width, 1, cfg)

    def test_levels_per_digit_checked(self, cfg):
        with pytest.raises(InvalidParameterError,
                           match="2 bits per cell needs 4 levels, config has 8"):
            address_query_voltages(5, 8, 2, cfg)
        with pytest.raises(InvalidParameterError,
                           match="2 bits per cell needs 4 levels, config has 8"):
            entry_to_cells(AnalogEntry(((0, 1),), 2), cfg)


class TestEndToEnd:
    def test_cover_programmed_into_array_reproduces_membership(self, mlp, cfg,
                                                               params):
        # oracle: entries_match, itself checked above against containment
        entries = range_to_analog_entries(CASE_LO, CASE_HI, CASE_WIDTH, 3)
        rows = [[program_analog(lo, hi, cfg, params)
                 for lo, hi in entry_to_cells(e, cfg)] for e in entries]
        arr = FecamArray(cells=rows, ml_params=mlp, cfg=cfg, params=params)
        t_sense = single_mismatch_sense_time(mlp, params, cfg, arr.cols)
        rng = np.random.default_rng(42)
        addrs = np.concatenate([
            rng.integers(0, 1 << CASE_WIDTH, 100),
            [CASE_LO - 1, CASE_LO, CASE_HI, CASE_HI + 1, 0, (1 << CASE_WIDTH) - 1]])
        queries = np.array([address_query_voltages(int(a), CASE_WIDTH, 3, cfg)
                            for a in addrs])
        matched = batch_search(arr, queries, t_sense)
        want = np.array([entries_match(entries, int(a), CASE_WIDTH) for a in addrs])
        assert np.array_equal(matched.any(axis=1), want)
        # covers are disjoint, so at most one row fires
        assert matched.sum(axis=1).max() <= 1


class TestRoutingTable:
    def rule(self):
        return RangeRule(CASE_LO, CASE_HI, CASE_WIDTH, "portA")

    def test_case_study_cell_counts(self):
        ternary = compile_table([self.rule()], TableMode.TERNARY)
        analog = compile_table([self.rule()], TableMode.ANALOG3B)
        assert (ternary.n_entries, ternary.n_cells) == (27, 648)
        assert (analog.n_entries, analog.n_cells) == (10, 80)
        assert ternary.n_cells / analog.n_cells == pytest.approx(8.1, abs=1e-9)

    def test_lookup_inside_and_outside(self):
        for mode in (TableMode.TERNARY, TableMode.ANALOG3B):
            table = compile_table([self.rule()], mode)
            assert lookup(table, (CASE_LO + CASE_HI) // 2) == "portA"
            assert lookup(table, 0) is None

    def test_modes_agree_on_samples(self):
        ternary = compile_table([self.rule()], TableMode.TERNARY)
        analog = compile_table([self.rule()], TableMode.ANALOG3B)
        rng = np.random.default_rng(31)
        addrs = rng.integers(0, 1 << CASE_WIDTH, 1_000_000)
        assert np.array_equal(lookup_many(ternary, addrs),
                              lookup_many(analog, addrs))

    @pytest.mark.parametrize("mode", ["ternary", None, 1])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(InvalidParameterError, match="unknown table mode"):
            compile_table([self.rule()], mode)

    def test_first_match_priority(self):
        rules = [RangeRule(0, 100, 12, "low"), RangeRule(50, 200, 12, "wide")]
        table = compile_table(rules, TableMode.TERNARY)
        assert lookup(table, 75) == "low"
        assert lookup(table, 150) == "wide"
        assert lookup(table, 300) is None

    @pytest.mark.parametrize("width", [8, 62, 63, 130])
    def test_non_integer_addresses_rejected(self, width):
        # a cast to int64 would read 5.5 as address 5
        table = compile_table([RangeRule(0, 10, width, "a")], TableMode.TERNARY)
        entries = [e.entry for e in table.entries]
        for bad in ([5.5, 2.9], [5.0], np.array([5.0]), [np.float64(5)], ["5"],
                    [True, False], np.array([True, False]), [True, 2],
                    [2, np.bool_(False)]):
            with pytest.raises(InvalidParameterError, match="integers"):
                lookup_many(table, bad)
            with pytest.raises(InvalidParameterError, match="integers"):
                entries_match_many(entries, bad, width)
        with pytest.raises(InvalidParameterError, match="integers"):
            lookup(table, 5.5)
        with pytest.raises(InvalidParameterError, match="integers"):
            entries_match(entries, 5.5, width)
        for good in ([5, 2], np.array([5, 2], dtype=np.uint8), [np.int64(5), 2]):
            assert lookup_many(table, good).tolist() == [0, 0]
        assert lookup_many(table, []).size == 0
        with pytest.raises(OutOfRangeError):
            lookup_many(table, [5, 1 << width])

    @pytest.mark.parametrize("width", [0, -1, -64, 3.0, True, "8", None, 1025, 1 << 140,
                                       1.5, pytest.param(10 ** 5000, id="10**5000")])
    def test_width_must_be_a_positive_int(self, width):
        # width 0 used to fail later on empty ternary bits, -1 on a shift count
        with pytest.raises(InvalidParameterError, match=r"rule width must be an integer in \[1, 1024\]"):
            RangeRule(0, 0, width, "a")
        with pytest.raises(InvalidParameterError, match=r"rule width must be an integer in \[1, 1024\]"):
            range_to_prefixes(0, 0, width)

    @pytest.mark.parametrize("lo, hi", [(0.5, 3), (0, 3.0), (0, "3"), (None, 3),
                                        (False, True), (1.5, 3), (True, 3), (0, None),
                                        (-1, 3), pytest.param(0, 10 ** 5000, id="0-10**5000")])
    def test_ends_must_be_integers(self, lo, hi):
        # a float end used to raise a bare TypeError inside compile_table
        with pytest.raises(InvalidParameterError, match="range (low|high) end must be an integer"):
            RangeRule(lo, hi, 4, "a")

    @pytest.mark.parametrize("action", [None, "", "a b", "a\nb", 3])
    def test_action_must_be_one_word(self, action):
        # None used to compile and read as a miss; a newline split table_text
        with pytest.raises(InvalidParameterError, match="rule action must be"):
            RangeRule(0, 3, 4, action)

    @pytest.mark.parametrize("mode", list(TableMode))
    def test_numpy_int_ends_compile_like_python_ints(self, mode):
        # np.int64 ends used to pass the check and fail on int.bit_length
        plain = [RangeRule(1, 5, 6, "a"), RangeRule(3, 41, 6, "b")]
        numpy = [RangeRule(np.int64(1), np.uint8(5), np.int64(6), "a"),
                 RangeRule(np.int32(3), np.int64(41), 6, "b")]
        assert all(type(x) is int for r in numpy for x in (r.lo, r.hi, r.width))
        assert compile_table(numpy, mode) == compile_table(plain, mode)
        assert range_to_prefixes(np.int64(1), np.int64(5), np.int64(6)) == \
            range_to_prefixes(1, 5, 6)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_table_carries_bits_per_cell(self, bits):
        rules = [self.rule()]
        analog = compile_table(rules, TableMode.ANALOG3B, bits)
        ternary = compile_table(rules, TableMode.TERNARY, bits)
        assert (analog.bits_per_cell, ternary.bits_per_cell) == (bits, 1)
        assert all(e.entry.bits_per_cell == bits for e in analog.entries)
        assert analog.n_cells == analog.n_entries * CASE_WIDTH // bits
        assert ternary.n_cells == ternary.n_entries * CASE_WIDTH
        assert lookup(analog, CASE_LO) == "portA"
        assert lookup(analog, CASE_LO - 1) is None

    def test_bad_bits_per_cell_rejected(self):
        for bits in (0, -3):
            with pytest.raises(InvalidParameterError, match="bits per cell"):
                compile_table([], TableMode.ANALOG3B, bits)
        with pytest.raises(InvalidParameterError, match="not divisible"):
            compile_table([self.rule()], TableMode.ANALOG3B, 5)

    def test_width_one_is_the_smallest(self):
        table = compile_table([RangeRule(1, 1, 1, "a")], TableMode.TERNARY)
        assert [lookup(table, a) for a in (0, 1)] == [None, "a"]

    def test_mixed_widths_rejected(self):
        with pytest.raises(InvalidParameterError):
            compile_table([RangeRule(0, 1, 12, "a"), RangeRule(0, 1, 24, "b")],
                          TableMode.TERNARY)

    def test_empty_rules(self):
        table = compile_table([], TableMode.TERNARY)
        assert table.n_entries == 0
        assert table.n_cells == 0

    def test_table_text_formats(self):
        ternary = compile_table([RangeRule(1, 6, 3, "hop")], TableMode.TERNARY)
        lines = table_text(ternary).splitlines()
        assert lines[0] == "001\thop"
        analog = compile_table([RangeRule(1, 62, 6, "hop")], TableMode.ANALOG3B)
        assert table_text(analog).splitlines()[0] == "[0-0][1-7]\thop"


def first_match_scan(table, addr):
    """Reference: rule index of the first entry, in table order, that
    entries_match accepts; -1 when none does."""
    for tagged in table.entries:
        if entries_match([tagged.entry], addr, table.width):
            return tagged.rule_index
    return -1


@st.composite
def overlapping_tables(draw, max_width=130):
    width = draw(st.integers(1, max_width))
    mode = draw(st.sampled_from([TableMode.TERNARY, TableMode.ANALOG3B]
                                if width % 3 == 0 else [TableMode.TERNARY]))
    address = st.integers(0, (1 << width) - 1)
    pairs = draw(st.lists(st.tuples(address, address), max_size=4))
    rules = [RangeRule(min(p), max(p), width, f"hop{i}")
             for i, p in enumerate(pairs)]
    return width, rules, compile_table(rules, mode), draw(st.lists(address, max_size=4))


@st.composite
def tables_and_one_address(draw):
    """A drawn table (width 0 when it has no rules) and one address: in range
    as an int, np.int64 or np.uint64 (when it fits), a bool, a float, a
    string, or one step outside the width."""
    table = draw(overlapping_tables())[2]
    top = (1 << table.width) - 1 if table.width else 1 << 140
    inside = draw(st.integers(0, top))
    candidates = [inside, -1, 1 << table.width, float(inside), str(inside),
                  draw(st.booleans()), np.bool_(draw(st.booleans())),
                  draw(st.floats()), draw(st.text(max_size=3))]
    if inside < 1 << 63:
        candidates.append(np.int64(inside))
    if inside < 1 << 64:
        candidates.append(np.uint64(inside))
    return table, draw(st.sampled_from(candidates))


def outcome(call):
    """A call's result, or the class and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # the outcomes are compared, not handled
        return type(exc), str(exc)


class TestIntervalIndex:
    @settings(max_examples=300)
    @given(tables_and_one_address())
    def test_lookup_agrees_with_lookup_many(self, drawn):
        # one address by bisection, many by searchsorted: same answer, same error
        table, addr = drawn
        want = outcome(lambda: lookup_many(table, [addr])[0])
        if not isinstance(want, tuple):
            want = table.rules[want].action if want >= 0 else None
        assert outcome(lambda: lookup(table, addr)) == want


    @settings(max_examples=150)
    @given(overlapping_tables())
    def test_lookup_agrees_with_entry_scan(self, drawn):
        width, rules, table, extra = drawn
        top = (1 << width) - 1
        addrs = sorted({0, top, *extra,
                        *(a for r in rules for a in (r.lo - 1, r.lo, r.hi, r.hi + 1)
                          if 0 <= a <= top)})
        want = [first_match_scan(table, a) for a in addrs]
        # the entries' scan itself agrees with plain containment in the rules
        assert want == [next((i for i, r in enumerate(rules) if r.lo <= a <= r.hi), -1)
                        for a in addrs]
        assert lookup_many(table, addrs).tolist() == want
        assert [lookup(table, a) for a in addrs] == [
            rules[i].action if i >= 0 else None for i in want]
        assert entries_match_many([t.entry for t in table.entries], addrs,
                                  width).tolist() == [i >= 0 for i in want]
        if rules:  # an empty table has width 0 and bounds no address
            for bad in (-1, top + 1):
                with pytest.raises(OutOfRangeError):
                    lookup(table, bad)
                with pytest.raises(OutOfRangeError):
                    lookup_many(table, [0, bad])

    @settings(max_examples=100)
    @given(overlapping_tables())
    def test_index_is_canonical(self, drawn):
        # segments ascend from 0, and no two adjacent ones share a label
        starts, labels = drawn[2]._index
        assert starts[0] == 0 and all(starts[1:] > starts[:-1])
        assert all(labels[1:] != labels[:-1])

    @settings(max_examples=150)
    @given(overlapping_tables(max_width=12), st.data())
    def test_verify_is_exact(self, drawn, data):
        # the verdict, for a table as compiled or without one of its entries,
        # is a comparison with the rules at every address of the width
        width, rules, table, _ = drawn
        drop = data.draw(st.integers(-1, table.n_entries - 1))
        if drop >= 0:
            table = replace(table, entries=table.entries[:drop] + table.entries[drop + 1:])
        addrs = list(range(1 << width))
        same = lookup_many(table, addrs).tolist() == [
            next((i for i, r in enumerate(rules) if r.lo <= a <= r.hi), -1) for a in addrs]
        assert _verify_tables(rules, [table]) == [same]

    def test_empty_table_matches_nothing(self):
        table = compile_table([], TableMode.TERNARY)
        assert lookup(table, 0) is None
        assert lookup(table, (1 << 130) - 1) is None
        assert lookup_many(table, [0, (1 << 24) - 1]).tolist() == [-1, -1]

    @settings(max_examples=200)
    @given(st.text("01X", min_size=1, max_size=10))
    def test_ternary_interval_is_exact_or_refused(self, bits):
        self.check_interval(TernaryEntry(bits))

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=3))
    def test_analog_interval_is_exact_or_refused(self, digits):
        self.check_interval(AnalogEntry(tuple(sorted(d) for d in digits), 3))

    @staticmethod
    def check_interval(entry):
        # oracle: exhaustive membership over every address of the width
        members = np.flatnonzero(entries_match_many(
            [entry], np.arange(1 << entry.width), entry.width))
        if members[-1] - members[0] + 1 == members.size:
            assert entry.interval == (members[0], members[-1])
        else:
            with pytest.raises(InvalidParameterError):
                entry.interval

    @pytest.mark.parametrize("entry", [TernaryEntry("0X1"),
                                       AnalogEntry(((0, 1), (0, 1)))])
    def test_hand_built_non_interval_refused(self, entry):
        with pytest.raises(InvalidParameterError):
            entry.interval


def check_entries(entries):
    """Each entry, built unchecked by the cover, equals itself built by its
    checked constructor, hash included, and holds plain Python ints."""
    for e in entries:
        if isinstance(e, TernaryEntry):
            checked = TernaryEntry(e.bits)
            assert type(e.bits) is str
        else:
            checked = AnalogEntry(e.digits, e.bits_per_cell)
            assert type(e.bits_per_cell) is int
            assert all(type(d) is int for pair in e.digits for d in pair)
        assert checked == e and hash(checked) == hash(e)


def check_table(table):
    check_entries([tagged.entry for tagged in table.entries])
    for tagged in table.entries:
        assert type(tagged.rule_index) is int
        again = TableEntry(tagged.entry, tagged.rule_index)
        assert again == tagged and hash(again) == hash(tagged)


def seeded_rules(seed, count, width):
    """count rules of the width: every third one of any length, the rest at
    most 4096 addresses long, each from a random low end."""
    rng = np.random.default_rng(seed)
    rules = []
    for i in range(count):
        lo = int(rng.integers(0, 1 << width))
        span = int(rng.integers(0, 1 << width)) if i % 3 == 0 else int(rng.integers(0, 4096))
        rules.append(RangeRule(lo, min(lo + span, (1 << width) - 1), width, f"hop{i % 17}"))
    return rules


class TestCompiledEntries:
    @settings(max_examples=150)
    @given(cover_cases())
    def test_cover_entries_equal_their_checked_selves(self, case):
        lo, hi, width, bits_per_cell = case
        check_entries(range_to_prefixes(lo, hi, width))
        check_entries(range_to_analog_entries(lo, hi, width, bits_per_cell))
        rules = [RangeRule(lo, hi, width, "a")]
        check_table(compile_table(rules, TableMode.TERNARY))
        check_table(compile_table(rules, TableMode.ANALOG3B, bits_per_cell))

    @settings(max_examples=100)
    @given(overlapping_tables())
    def test_table_entries_equal_their_checked_selves(self, drawn):
        check_table(drawn[2])

    # sha256 of table_text for seeded_rules(300, 300, 24), as the entries'
    # checked constructors wrote it
    TEXT_SHA256 = {
        TableMode.TERNARY: "5ff46c367979b2cf28ea5bfc6384262ffc55840b5d9be9c81b7c6b5104739771",
        TableMode.ANALOG3B: "4843d5de176582053158789bb3bb80b791b894fc3e6b675d852bbd4dad59a3e5"}

    @pytest.mark.parametrize("mode", list(TableMode))
    def test_table_text_is_pinned(self, mode):
        text = table_text(compile_table(seeded_rules(300, 300, 24), mode))
        assert hashlib.sha256(text.encode()).hexdigest() == self.TEXT_SHA256[mode]

    @pytest.mark.parametrize("mode", list(TableMode))
    @pytest.mark.parametrize("rule", [(1, 5, 6, "a"),
                                      SimpleNamespace(lo=1, hi=5, width=6, action="a")],
                             ids=["tuple", "duck-typed"])
    def test_rules_must_be_range_rules(self, mode, rule):
        # the rule's ends and width are checked by RangeRule alone
        with pytest.raises(InvalidParameterError, match="not a RangeRule"):
            compile_table([RangeRule(0, 3, 6, "b"), rule], mode)
