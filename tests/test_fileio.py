import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fecam import (InconsistentInputError, ParseError, SearchResult, TernaryBit, fileio,
                   match_window, program_digital, search)
from fecam.cell import program_analog, program_level_window
from fecam.costmodel import _fmt
from fecam.config import parse_floats
from fecam.fileio import (bounds_sweep_csv, parse_array_file, parse_query_file,
                          parse_rules_file, trace_csv, transfer_csv)


# The per-value writers that the one-template writers replaced, kept as the
# byte-for-byte reference.
def reference_trace_csv(result):
    lines = ["row,t_seconds,v_ml_volts"]
    times = [_fmt(t) for t in result.times]
    n_rows = result.ml_voltages.shape[1]
    for row in range(n_rows):
        for t, v in zip(times, result.ml_voltages[:, row]):
            lines.append(f"{row},{t},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def reference_bounds_sweep_csv(v_sl_grid, matches):
    matches = np.asarray(matches)
    n_rows = matches.shape[1]
    header = "v_sl_volts," + ",".join(f"match_{r}" for r in range(n_rows))
    lines = [header]
    for v, row in zip(v_sl_grid, matches):
        lines.append(_fmt(v) + "," + ",".join(str(int(m)) for m in row))
    return "\n".join(lines) + "\n"


def reference_transfer_csv(rows):
    lines = ["amplitude_volts,v_gs_volts,i_d_amps"]
    for amplitude, v_gs, i_d in rows:
        lines.append(f"{_fmt(amplitude)},{_fmt(v_gs)},{_fmt(i_d)}")
    return "\n".join(lines) + "\n"


# 0 and vdd, subnormals, values that round up or down at the 10th significant
# digit, then any float at all (nan, inf and -0.0 included)
EDGE_VOLTS = [0.0, 1.0, -0.0, 5e-324, 2.2250738585072e-308, 1e-310,
              0.12345678905, 0.99999999995, 0.999999999949, 1.0000000005,
              9.9999999995e-9, 123456789.05, 1.5e-7, 0.5]
volts = st.one_of(st.sampled_from(EDGE_VOLTS), st.floats(0.0, 1.0), st.floats())


def volt_arrays(rows, cols):
    return hnp.arrays(float, st.tuples(rows, cols), elements=volts)


class TestArrayFile:
    def test_dimensions_and_cell_specs(self, config):
        arr = parse_array_file(
            "rows 2\n"
            "cols 3\n"
            "cell 0 0 analog 0.4 0.6\n"
            "cell 0 1 level 3\n"
            "cell 0 2 digital 1\n",
            config)
        assert (arr.rows, arr.cols) == (2, 3)
        assert arr.cells[0][0].upper_fet.vth == pytest.approx(0.6)
        b = config.cell.level_bounds
        assert arr.cells[0][1].upper_fet.vth == pytest.approx(b[4])
        assert arr.cells[0][1].lower_fet.vth == pytest.approx(1.0 - b[3])

    def test_unspecified_cells_default_to_wildcard(self, config):
        arr = parse_array_file("rows 1\ncols 2\n", config)
        wild = program_digital(TernaryBit.DONT_CARE, config.cell, config.device)
        assert match_window(arr.cells[0][0], config.cell, config.device) == \
            match_window(wild, config.cell, config.device)

    def test_matchline_override(self, config):
        arr = parse_array_file(
            "rows 1\ncols 1\nmatchline delta_v_ml 0.25\n"
            "cell 0 0 analog 0.4 0.6\n", config)
        assert arr.ml_params.delta_v_ml == 0.25
        assert arr.ml_params.c_pmos == config.matchline.c_pmos

    def test_comments_and_blank_lines_ignored(self, config):
        arr = parse_array_file(
            "# layout\n\nrows 1  # one row\ncols 1\n", config)
        assert (arr.rows, arr.cols) == (1, 1)

    def test_missing_dimensions(self, config):
        with pytest.raises(ParseError):
            parse_array_file("cols 2\n", config)

    def test_cell_outside_grid_names_line(self, config):
        with pytest.raises(ParseError, match="line 3"):
            parse_array_file("rows 1\ncols 1\ncell 0 5 digital X\n", config)

    def test_unknown_statement(self, config):
        with pytest.raises(ParseError):
            parse_array_file("rows 1\ncols 1\nvoodoo 1\n", config)

    def test_repeated_specs_match_separate_programming(self, config, monkeypatch):
        cfg, params = config.cell, config.device
        calls = []
        program_cell = fileio._program_cell
        monkeypatch.setattr(fileio, "_program_cell",
                            lambda *args: calls.append(args) or program_cell(*args))
        specs = ["level 3", "analog 0.25 0.75", "digital 1", "level 3",
                 "digital X", "analog 0.25 0.75", "level 0", "digital 1"]
        arr = parse_array_file("rows 2\ncols 4\n" + "".join(
            f"cell {i // 4} {i % 4} {spec}\n" for i, spec in enumerate(specs)),
            config)
        for i, spec in enumerate(specs):
            kind, arg, *rest = spec.split()
            if kind == "level":
                want = program_level_window(int(arg), int(arg), cfg, params)
            elif kind == "analog":
                want = program_analog(float(arg), float(rest[0]), cfg, params)
            else:
                want = program_digital(TernaryBit.from_char(arg), cfg, params)
            assert arr.cells[i // 4][i % 4] == want
        assert len(calls) == 5  # each distinct spec programmed once

    def test_seen_spec_outside_grid_names_its_own_line(self, config):
        text = "rows 1\ncols 2\ncell 0 0 level 3\ncell 0 1 level 3\ncell 1 0 level 3\n"
        with pytest.raises(ParseError, match="line 5"):
            parse_array_file(text, config)

    def test_repeated_bad_spec_names_first_line(self, config):
        text = "rows 1\ncols 3\ncell 0 0 level 1\ncell 0 1 level 9\ncell 0 2 level 9\n"
        with pytest.raises(ParseError, match="line 4"):
            parse_array_file(text, config)

    @pytest.mark.parametrize("statement", [
        "rows 1 5", "cols 1 5", "matchline c_pmos 1e-16 5", "cell 0 0 analog 0.4 0.6 0.9",
        "cell 0 0 level 3 4", "cell 0 0 digital 1 0", "rows", "matchline c_pmos",
        "cell 0 0 analog 0.4", "cell 0 0 level"])
    def test_wrong_token_count_names_line(self, config, statement):
        # extra tokens used to be ignored: "analog 0.4 0.6 0.9" read as 0.4-0.6 V
        text = "rows 1\ncols 1\ncell 0 0 level 2\n"
        with pytest.raises(ParseError, match=r"line 4.*expected '"):
            parse_array_file(text + statement + "\n", config)

    @pytest.mark.parametrize("text, first", [
        ("rows 2\ncols 2\n# a comment\nrows 3\n", 1),
        ("cols 2\nrows 2\n\ncols 2\n", 1),
        ("rows 2\ncols 2\nmatchline c_pmos 1e-16\nmatchline c_pmos 2e-16\n", 3),
        ("rows 2\ncols 2\ncell 0 0 level 1\ncell 0 0 level 5\n", 3),
        ("rows 2\ncols 2\ncell 1 1 level 1\ncell 01 1 digital X\n", 3)],
        ids=["rows", "cols", "matchline", "cell", "cell-spelled-apart"])
    def test_repeated_statement_names_both_lines(self, config, text, first):
        # the last one used to win without a word: rows 2, rows 3 built 3 rows
        with pytest.raises(ParseError, match=rf"^line 4: .* repeats line {first}$"):
            parse_array_file(text, config)

    def test_unknown_cell_spec_names_line(self, config):
        with pytest.raises(ParseError, match="line 3.*unknown cell spec"):
            parse_array_file("rows 1\ncols 1\ncell 0 0 fuzzy 1\n", config)


class TestQueryAndRuleFiles:
    def test_query_lines(self):
        queries = parse_query_file("0.3\n0.1, 0.2, 0.3\n# skip\n")
        assert queries == [[0.3], [0.1, 0.2, 0.3]]

    def test_query_line_is_a_number_list(self):
        # one parser reads query lines, config lists and CLI lists
        line = "0.1, 0.2\t0.3,0.4"
        assert parse_query_file(line) == [list(parse_floats(line))]
        assert parse_floats(line) == (0.1, 0.2, 0.3, 0.4)
        with pytest.raises(ValueError):
            parse_floats("0.1 fast")

    def test_query_bad_token(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_query_file("0.3\nfast\n")

    def test_rules(self):
        rules = parse_rules_file("98305 14712838 24 portA\n0 7 3 portB\n")
        assert rules[0].action == "portA"
        assert (rules[1].lo, rules[1].hi, rules[1].width) == (0, 7, 3)

    def test_rule_wrong_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_rules_file("1 2 3\n")

    @pytest.mark.parametrize("width", ["0", "-1"])
    def test_rule_bad_width_names_line(self, width):
        with pytest.raises(ParseError, match=r"line 2.*rule width must be an integer in \[1, 1024\]"):
            parse_rules_file(f"0 7 3 portB\n0 0 {width} portA\n")

    def test_rule_bad_range(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_rules_file("7 3 4 portA\n")


class TestCsvWriters:
    def test_trace_header_and_shape(self, config, mlp):
        arr = parse_array_file("rows 2\ncols 1\ncell 0 0 analog 0.4 0.6\n",
                               config)
        result = search(arr, [0.5])
        lines = trace_csv(result).splitlines()
        assert lines[0] == "row,t_seconds,v_ml_volts"
        assert len(lines) == 1 + 2 * len(result.times)
        assert lines[1].startswith("0,0,1")

    def test_bounds_sweep_header(self):
        text = bounds_sweep_csv([0.1, 0.2], np.array([[True, False],
                                                      [False, False]]))
        lines = text.splitlines()
        assert lines[0] == "v_sl_volts,match_0,match_1"
        assert lines[1] == "0.1,1,0"

    def test_bounds_sweep_length_mismatch(self):
        with pytest.raises(InconsistentInputError):
            bounds_sweep_csv([0.1, 0.2, 0.3], np.zeros((2, 1), dtype=bool))

    def test_transfer_header_only(self):
        assert transfer_csv([]) == "amplitude_volts,v_gs_volts,i_d_amps\n"


class TestWritersMatchReference:
    """Each one-template writer gives the same bytes as its per-value reference."""

    @settings(max_examples=60)
    @given(v=volt_arrays(st.integers(0, 12), st.integers(1, 70)),
           t_end=st.sampled_from([0.0, 1e-8, 2.5e-9, 1.0]))
    def test_trace(self, v, t_end):
        result = SearchResult(matches=(True,) * v.shape[1], sense_time=t_end,
                              times=np.linspace(0.0, t_end, v.shape[0]),
                              ml_voltages=v)
        assert trace_csv(result) == reference_trace_csv(result)

    @settings(max_examples=60)
    @given(data=st.data(), n_points=st.integers(0, 12), n_rows=st.integers(1, 40))
    def test_trace_of_repeated_columns(self, data, n_points, n_rows):
        """Rows that share a column, among columns apart only in the sign of a
        zero or all NaN, give the reference bytes: the writer formats each
        distinct column once."""
        drawn = data.draw(volt_arrays(st.just(n_points), st.integers(0, 3)))
        signs = np.where(np.arange(n_points) % 2, 0.0, -0.0)
        pool = np.column_stack((drawn, np.zeros(n_points), np.full(n_points, -0.0),
                                signs, -signs, np.full(n_points, np.nan)))
        column_of = data.draw(hnp.arrays(np.intp, n_rows,
                                         elements=st.integers(0, pool.shape[1] - 1)))
        v = pool[:, column_of]
        result = SearchResult(matches=(True,) * n_rows, sense_time=1e-8,
                              times=np.linspace(0.0, 1e-8, n_points), ml_voltages=v)
        assert trace_csv(result) == reference_trace_csv(result)

    def test_trace_of_a_search(self, config):
        arr = parse_array_file("rows 3\ncols 2\ncell 0 0 level 2\n"
                               "cell 1 1 analog 0.1 0.35\n", config)
        result = search(arr, [0.25, 0.25])
        assert trace_csv(result) == reference_trace_csv(result)

    @settings(max_examples=60)
    @given(grid=volt_arrays(st.integers(0, 40), st.just(1)),
           n_rows=st.integers(0, 70), dtype=st.sampled_from([bool, np.int64]),
           data=st.data())
    def test_bounds_sweep(self, grid, n_rows, dtype, data):
        grid = grid[:, 0]
        matches = data.draw(hnp.arrays(dtype, (grid.size, n_rows)))
        assert bounds_sweep_csv(grid, matches) == \
            reference_bounds_sweep_csv(grid, matches)
        if grid.size:  # as lists: an empty list of rows has no row length
            assert bounds_sweep_csv(grid.tolist(), matches.tolist()) == \
                reference_bounds_sweep_csv(grid.tolist(), matches.tolist())

    @settings(max_examples=60)
    @given(v=volt_arrays(st.integers(0, 70), st.just(3)),
           numpy_scalars=st.booleans())
    def test_transfer(self, v, numpy_scalars):
        rows = [tuple(row) if numpy_scalars else tuple(row.tolist()) for row in v]
        assert transfer_csv(rows) == reference_transfer_csv(rows)
