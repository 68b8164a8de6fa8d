
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fecam import (AnalogEntry, FecamArray, InvalidParameterError,
                   OutOfRangeError, RangeRule, TableMode, TernaryEntry,
                   address_query_voltages, batch_search, compile_table,
                   entries_match, entries_match_many, entry_to_cells, lookup,
                   lookup_many, program_analog, range_to_analog_entries,
                   range_to_prefixes, single_mismatch_sense_time, table_text)

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


class TestEntryToCells:
    def test_full_digit_range_spans_grid(self, cfg):
        entry = AnalogEntry(tuple([(0, 7)] * 8), 3)
        windows = entry_to_cells(entry, cfg)
        assert windows == [(cfg.level_bounds[0], cfg.level_bounds[-1])] * 8

    def test_single_level_window(self, cfg):
        entry = AnalogEntry(((3, 3),), 3)
        assert entry_to_cells(entry, cfg) == [(cfg.level_bounds[3],
                                               cfg.level_bounds[4])]

    def test_level_count_must_match(self, cfg):
        entry = AnalogEntry(((0, 1),), 1)
        with pytest.raises(InvalidParameterError):
            entry_to_cells(entry, cfg)

    def test_digit_validation(self):
        with pytest.raises(InvalidParameterError):
            AnalogEntry(((0, 8),), 3)


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
        for bad in ([5.5, 2.9], [5.0], np.array([5.0]), [np.float64(5)], ["5"]):
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

    @pytest.mark.parametrize("width", [0, -1, -64, 3.0, True, "8", None])
    def test_width_must_be_a_positive_int(self, width):
        # width 0 used to fail later on empty ternary bits, -1 on a shift count
        with pytest.raises(InvalidParameterError, match="width must be a positive int"):
            RangeRule(0, 0, width, "a")
        with pytest.raises(InvalidParameterError, match="width must be a positive int"):
            range_to_prefixes(0, 0, width)

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
def overlapping_tables(draw):
    width = draw(st.integers(1, 130))
    mode = draw(st.sampled_from([TableMode.TERNARY, TableMode.ANALOG3B]
                                if width % 3 == 0 else [TableMode.TERNARY]))
    address = st.integers(0, (1 << width) - 1)
    pairs = draw(st.lists(st.tuples(address, address), max_size=4))
    rules = [RangeRule(min(p), max(p), width, f"hop{i}")
             for i, p in enumerate(pairs)]
    return width, rules, compile_table(rules, mode), draw(st.lists(address, max_size=4))


class TestIntervalIndex:
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
