import contextlib
import io
import re
import time
import tracemalloc
import warnings
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from fecam import AnalogEntry, CamKind, cli, encoder, entry_to_cells, load_config
from fecam.array import MAX_SWEEP_STEPS
from fecam.cli import main

DEMO_ARRAY = """\
rows 1
cols 1
cell 0 0 analog 0.4 0.6
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def demo_files(tmp_path):
    array = tmp_path / "array.txt"
    array.write_text(DEMO_ARRAY)
    queries = tmp_path / "queries.txt"
    queries.write_text("0.3\n0.5\n0.7\n")
    rules = tmp_path / "rules.txt"
    rules.write_text("98305 14712838 24 portA\n")
    return tmp_path, array, queries, rules


class TestTransfer:
    def test_sweep_shape(self, capsys, tmp_path):
        out = tmp_path / "transfer.csv"
        code, _, _ = run(capsys, "transfer", "--amplitudes",
                         ",".join(str(2.0 + 0.05 * k) for k in range(41)),
                         "--vgs-range", "0", "1.2", "0.01",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "amplitude_volts,v_gs_volts,i_d_amps"
        assert len(lines) == 1 + 41 * 121
        amplitudes = {line.split(",")[0] for line in lines[1:]}
        assert len(amplitudes) == 41

    def test_empty_amplitudes_header_only(self, capsys):
        code, out, _ = run(capsys, "transfer", "--amplitudes", "")
        assert code == 0
        assert out == "amplitude_volts,v_gs_volts,i_d_amps\n"

    def test_bad_amplitude_rejected(self, capsys):
        code, _, err = run(capsys, "transfer", "--amplitudes", "9.0")
        assert code == 2
        assert err.startswith("error: invalid-pulse:")

    def test_non_finite_config_rejected(self, capsys, tmp_path):
        # NaN passes a `<= 0` check; only a finiteness check stops it
        ini = tmp_path / "fecam.ini"
        ini.write_text("[device]\ncoercive_sigma = nan\n")
        code, out, err = run(capsys, "--config", str(ini), "transfer",
                             "--amplitudes", "3")
        assert code == 2
        assert out == ""
        # the config loader files every rejected value under parse-error
        assert err.startswith("error: parse-error:")
        assert "coercive_sigma must be in (0, inf), got nan" in err

    @pytest.mark.parametrize("argv", [
        ["--vgs-range", "0", "nan", "0.1"],    # numpy: arange cannot compute length
        ["--vgs-range", "0", "inf", "0.1"],    # numpy: maximum allowed size exceeded
        ["--vgs-range", "0", "1e300", "1e-300"],
        ["--vgs-range", "0", "1", "inf"],
        ["--vgs-range", "0", "1", "nan"],
        ["--vds", "nan"],                      # exited 0 with NaN currents
        ["--vds", "inf"]])
    def test_non_finite_numbers_rejected(self, capsys, argv):
        code, out, err = run(capsys, "transfer", "--amplitudes", "3", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameter:")
        assert len(err.splitlines()) == 1

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_steep_slope_saturates_without_warning(self, capsys, tmp_path):
        # 10 uV/decade once overflowed 10 ** exponent ahead of the i_on clamp
        ini = tmp_path / "slope.cfg"
        ini.write_text("[device]\nsubthreshold_slope = 1e-5\ni_off = 0\n")
        code, out, err = run(capsys, "--config", str(ini), "transfer", "--amplitudes", "3")
        assert (code, err) == (0, "")
        currents = [line.split(",")[2] for line in out.splitlines()[1:]]
        # vth 0.6 V: off below it, i_threshold on it, i_on above it
        assert currents == ["0"] * 60 + ["2.5e-08"] + ["1e-06"] * 60

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    @pytest.mark.parametrize("command", ["transfer", "search"])
    def test_current_ratio_past_the_float_range(self, capsys, demo_files, command):
        # i_on / i_threshold = 1e310: 10 ** exponent and the kernel's exp once
        # overflowed past their clamps, though the currents came out right
        tmp_path, array, queries, _ = demo_files
        ini = tmp_path / "ratio.cfg"
        ini.write_text("[device]\ni_threshold = 1e-300\ni_on = 1e10\ni_off = 0\n"
                       "subthreshold_slope = 1e-5\n")
        argv = {"transfer": ["transfer", "--amplitudes", "3"],
                "search": ["search", "--array", str(array), "--queries", str(queries),
                           "--out", str(tmp_path / "trace.csv")]}[command]
        code, out, err = run(capsys, "--config", str(ini), *argv)
        assert (code, err) == (0, "")
        if command == "transfer":
            currents = [line.split(",")[2] for line in out.splitlines()[1:]]
            assert currents == ["0"] * 60 + ["1e-300"] + ["1e+10"] * 60
        else:
            assert [line for line in out.splitlines() if "matches" in line] == [
                "query_0_matches = false", "query_1_matches = true",
                "query_2_matches = false"]

    def test_out_of_memory_exits_two(self, capsys):
        # 10^18 grid points: numpy refuses the 6.9 EiB request at once
        code, out, err = run(capsys, "transfer", "--amplitudes", "3",
                             "--vgs-range", "0", "1e9", "1e-9")
        assert code == 2
        assert err.startswith("error: out-of-memory:")
        assert "Traceback" not in err and len(err.splitlines()) == 1


class TestSearch:
    def test_demo_scenario(self, capsys, demo_files):
        tmp_path, array, queries, _ = demo_files
        trace = tmp_path / "trace.csv"
        code, out, _ = run(capsys, "search", "--array", str(array),
                           "--queries", str(queries), "--out", str(trace))
        assert code == 0
        assert "query_0_matches = false" in out
        assert "query_1_matches = true" in out
        assert "query_2_matches = false" in out
        per_query = tmp_path / "trace_q0.csv"
        assert per_query.read_text().splitlines()[0] == "row,t_seconds,v_ml_volts"

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_subnormal_capacitance_override_refused(self, capsys, tmp_path):
        # it used to exit 0 and print the trace 0,0,nan
        array = tmp_path / "array.txt"
        array.write_text("rows 2\ncols 2\n"
                         + "".join(f"matchline {name} 5e-320\n"
                                   for name in ("c_pmos", "c_drain", "c_parasitic"))
                         + "".join(f"cell {r} {c} analog 0.4 0.6\n"
                                   for r in range(2) for c in range(2)))
        queries = tmp_path / "queries.txt"
        queries.write_text("0.5 0.5\n")
        code, out, err = run(capsys, "search", "--array", str(array),
                             "--queries", str(queries), "--out", "-")
        assert (code, out) == (2, "")
        assert err == ("error: parse-error: bad matchline override: c_pmos must be in "
                       "[2.2250738585072014e-308, inf), got 5e-320\n")

    def test_dash_out_writes_the_traces_to_stdout(self, capsys, demo_files, monkeypatch):
        """--out - prints each query's trace, in order, ahead of the summary,
        as a file per query would hold it, and creates no file."""
        tmp_path, array, queries, _ = demo_files
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "search", "--array", str(array),
                           "--queries", str(queries), "--out", "-")
        assert code == 0
        assert not list(tmp_path.glob("-*"))
        _, summary, _ = run(capsys, "search", "--array", str(array),
                            "--queries", str(queries), "--out", "trace.csv")
        traces = "".join((tmp_path / f"trace_q{i}.csv").read_text() for i in range(3))
        assert out == traces + summary

    def test_rerun_byte_identical(self, capsys, demo_files):
        _, array, queries, _ = demo_files
        argv = ("search", "--array", str(array), "--queries", str(queries))
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_query_out_of_range_rejected(self, capsys, demo_files):
        tmp_path, array, _, _ = demo_files
        bad = tmp_path / "bad.txt"
        bad.write_text("1.5\n")
        code, _, err = run(capsys, "search", "--array", str(array),
                           "--queries", str(bad))
        assert code == 2
        assert err.startswith("error: out-of-range:")

    @pytest.mark.parametrize("sense_time", ["abc", "", "nan", "0", "inf"])
    def test_bad_sense_time_rejected(self, capsys, demo_files, sense_time):
        # abc used to end in a bare ValueError from float()
        _, array, queries, _ = demo_files
        code, out, err = run(capsys, "search", "--array", str(array),
                             "--queries", str(queries), "--sense-time", sense_time)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameter:")
        assert len(err.splitlines()) == 1

    def test_dimension_mismatch_names_both_lengths(self, capsys, demo_files):
        tmp_path, array, _, _ = demo_files
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 0.5\n")
        code, _, err = run(capsys, "search", "--array", str(array),
                           "--queries", str(bad))
        assert code == 2
        assert err.startswith("error: dimension-mismatch:")
        assert "2" in err and "1" in err

    def test_array_parse_error_carries_line(self, capsys, demo_files):
        tmp_path, _, queries, _ = demo_files
        broken = tmp_path / "broken.txt"
        broken.write_text("rows 1\ncols 1\ncell 0 0 analog x y\n")
        code, _, err = run(capsys, "search", "--array", str(broken),
                           "--queries", str(queries))
        assert code == 2
        assert err.startswith("error: parse-error:")
        assert "line 3" in err

    @pytest.mark.parametrize("size", ["rows 100000000\ncols 1",
                                      "rows 1\ncols 100000000",
                                      "rows 2048\ncols 1024",
                                      "rows 0\ncols 4"])
    def test_array_size_capped_before_the_grid(self, capsys, demo_files, size):
        # 10^8 cells used to be built, at about 80 ns each, before any check
        tmp_path, _, queries, _ = demo_files
        huge = tmp_path / "huge.txt"
        huge.write_text(size + "\ncell 0 0 analog 0.4 0.6\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "search", "--array", str(huge),
                             "--queries", str(queries))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameter:")


    def test_overflowing_auto_sense_time_names_the_matchline(self, capsys, demo_files):
        # it used to read "t_sense must be positive and finite, got inf", as if given
        tmp_path, _, queries, _ = demo_files
        array = tmp_path / "slow.txt"
        array.write_text(DEMO_ARRAY + "matchline c_pmos 1e302\n")
        code, out, err = run(capsys, "search", "--array", str(array),
                             "--queries", str(queries))
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: invalid-parameter: the auto sense time of the "
                            r"\[matchline\] parameters must be in \(0, inf\), got inf\n", err)

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_huge_sense_time_discharges_without_warnings(self, capsys, tmp_path):
        # numpy used to warn of an overflow in multiply and in divide
        array, queries = tmp_path / "array.txt", tmp_path / "queries.txt"
        array.write_text("rows 2\ncols 2\ncell 0 0 analog 0.4 0.6\n")
        queries.write_text("0.5 0.5\n0.1 0.9\n")
        code, out, err = run(capsys, "search", "--array", str(array), "--queries",
                             str(queries), "--sense-time=1e300")
        assert (code, err) == (0, "")
        assert "query_0_matches = false,false\n" in out
        assert "query_1_matches = false,false\n" in out


class TestSweep:
    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_size_warning_is_one_line(self, capsys, tmp_path):
        # it used to print as two lines, its source path and its code line
        state = list(warnings.filters), warnings.showwarning
        code, out, err = run(capsys, "sweep", "--axis", "rows", "--values", "65")
        assert (code, len(out.splitlines())) == (0, 2)
        assert err.startswith("warning: 65 rows exceeds 64") and err.count("\n") == 1
        assert (list(warnings.filters), warnings.showwarning) == state
        # a failure after a warning: the warning line, then the error line
        (tmp_path / "array.txt").write_text("rows 65\ncols 1\n")
        (tmp_path / "queries.txt").write_text("0.5 0.5\n")
        code, out, err = run(capsys, "search", "--array", str(tmp_path / "array.txt"),
                             "--queries", str(tmp_path / "queries.txt"))
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("warning: 65 rows exceeds 64")
        assert lines[1].startswith("error: dimension-mismatch:")

    @pytest.mark.filterwarnings("default::RuntimeWarning")
    def test_row_current_past_the_float_range_prints_no_warning(self, capsys, tmp_path):
        # it used to print "warning: overflow encountered in matmul"
        ini = tmp_path / "fecam.ini"
        ini.write_text("[device]\ni_on = 1e307\nsubthreshold_slope = 1e-3\n")
        code, out, err = run(capsys, "--config", str(ini), "sweep", "--axis", "cols",
                             "--values", "8,64")
        assert (code, err) == (0, "")
        assert [line.split(",")[1:3] for line in out.splitlines()[1:]] == [
            ["0.401", "0.599"]] * 2

    def test_supply_past_a_thousand_volts(self, capsys, tmp_path):
        # at vdd = 2000 V, the cols axis used to exit 2 on a "resolution" the
        # CLI has no option for, and the v_sl axis to sweep 2,000,001 points
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\nvdd = 2000\n[device]\nvth_high = 2000\n")
        code, out, err = run(capsys, "--config", str(ini), "sweep", "--axis", "cols",
                             "--values", "1")
        assert (code, err) == (0, "") and len(out.splitlines()) == 2
        csv = tmp_path / "sweep.csv"
        code, _, err = run(capsys, "--config", str(ini), "sweep", "--axis", "v_sl",
                           "--rows", "1", "--cols", "1", "--out", str(csv))
        assert (code, err) == (0, "")
        with open(csv) as handle:
            assert sum(1 for _ in handle) == 1 + MAX_SWEEP_STEPS + 1

    def test_rows_axis_constant_bounds(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "rows",
                           "--values", "1,16,64")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rows,lower_bound_volts,upper_bound_volts,sense_time_seconds"
        bounds = {tuple(line.split(",")[1:3]) for line in lines[1:]}
        assert len(bounds) == 1

    def test_cols_axis_decreasing_time(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "cols",
                           "--values", "1,8,32,64")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        times = [float(r[3]) for r in rows]
        assert times == sorted(times, reverse=True)
        for r in rows:
            assert abs(float(r[1]) - 0.4) <= 0.02
            assert abs(float(r[2]) - 0.6) <= 0.02

    def test_vsl_axis_bounds_sweep_export(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "v_sl",
                           "--values", "0.3,0.5,0.7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "v_sl_volts,match_0"
        assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "0"]

    def test_vsl_axis_default_grid_ends_at_supply(self, capsys, tmp_path):
        # the 1 mV grid overshoots a 1.13 V supply by an ulp unless clipped;
        # the one supply is [cell] vdd, so the match line follows it
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\nvdd = 1.13\n")
        code, out, err = run(capsys, "--config", str(ini), "sweep", "--axis", "v_sl")
        assert code == 0, err
        lines = out.splitlines()
        assert len(lines) == 1 + 1131
        assert lines[-1].split(",") == ["1.13", "0"]

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    @pytest.mark.parametrize("values", ["1.5", "2,3.25", "inf", "nan", "0", "-2", "abc", ""])
    def test_size_axis_needs_positive_integers(self, capsys, axis, values):
        # 1.5 used to run one row and exit 0; inf, nan and abc used to end in a traceback
        code, out, err = run(capsys, "sweep", "--axis", axis, "--values", values)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameter:")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("axis", ["rows", "cols"])
    def test_size_axis_capped_before_the_grid(self, capsys, axis):
        start = time.perf_counter()
        code, out, err = run(capsys, "sweep", "--axis", axis, "--values", "1e30")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameter:")

    def test_size_axis_accepts_integral_floats(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "rows", "--values", "2.0,1")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1", "2"]

    def test_unknown_axis_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "diagonal"])
        err = capsys.readouterr().err
        assert "rows" in err and "cols" in err and "v_sl" in err


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "diagonal"],
        ["search", "--array", "a.txt", "--queries", "q.txt", "--sense-time", "-1e-9"],
        ["transfer", "--amplitudes", "3", "--vgs-range", "-inf", "0", "0.1"]])
    def test_argparse_errors_take_the_one_line_form(self, capsys, argv):
        # these used to print argparse's usage text and message instead
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: invalid-parameter:")

    def test_joined_negative_value_reaches_its_check(self, capsys, demo_files):
        _, array, queries, _ = demo_files
        code, out, err = run(capsys, "search", "--array", str(array),
                             "--queries", str(queries), "--sense-time=-1e-9")
        assert (code, out) == (2, "")
        assert err == "error: invalid-parameter: t_sense must be in (0, inf), got -1e-09\n"

    def test_help_names_the_joined_form(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--help"])
        assert exc.value.code == 0
        assert "--sense-time=-1e-9" in capsys.readouterr().out


class TestRoute:
    def test_both_modes_with_report(self, capsys, demo_files):
        tmp_path, _, _, rules = demo_files
        table = tmp_path / "table.txt"
        code, out, _ = run(capsys, "route", "--rules", str(rules),
                           "--mode", "both", "--out", str(table))
        assert code == 0
        assert "ternary_entries = 27" in out
        assert "analog_entries = 10" in out
        assert "ternary_cells = 648" in out
        assert "analog_cells = 80" in out
        assert "cell_reduction_ratio = 8.1" in out
        ternary_lines = (tmp_path / "table_ternary.txt").read_text().splitlines()
        assert len(ternary_lines) == 27
        analog_lines = (tmp_path / "table_analog.txt").read_text().splitlines()
        assert len(analog_lines) == 10
        assert analog_lines[0].endswith("\tportA")

    def test_dash_out_writes_the_tables_to_stdout(self, capsys, demo_files, monkeypatch):
        """--out - prints both listings, ternary first, ahead of the report,
        as the per-mode files would hold them, and creates no file."""
        tmp_path, _, _, rules = demo_files
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "route", "--rules", str(rules), "--mode", "both",
                           "--out", "-")
        assert code == 0
        assert not list(tmp_path.glob("-*"))
        _, report, _ = run(capsys, "route", "--rules", str(rules), "--mode", "both",
                           "--out", "table.txt")
        tables = "".join((tmp_path / f"table_{m}.txt").read_text()
                         for m in ("ternary", "analog"))
        assert out == tables + report

    def test_verify_passes(self, capsys, demo_files):
        _, _, _, rules = demo_files
        code, out, _ = run(capsys, "route", "--rules", str(rules),
                           "--mode", "both", "--verify", "--samples", "50000")
        assert code == 0
        assert "verify_ternary = pass" in out
        assert "verify_analog = pass" in out

    def test_empty_rules_zero_costs(self, capsys, tmp_path):
        rules = tmp_path / "empty.txt"
        rules.write_text("# nothing here\n")
        code, out, _ = run(capsys, "route", "--rules", str(rules),
                           "--mode", "ternary")
        assert code == 0
        assert "ternary_entries = 0" in out
        assert "ternary_cells = 0" in out

    def test_verify_wide_rules(self, capsys, tmp_path):
        rules = tmp_path / "wide.txt"
        rules.write_text(f"{1 << 100} {(1 << 128) + 12345} 129 far\n"
                         f"5 {1 << 110} 129 near\n0 {(1 << 129) - 1} 129 rest\n")
        code, out, err = run(capsys, "route", "--rules", str(rules),
                             "--mode", "both", "--verify", "--samples", "2000")
        assert (code, err) == (0, "")
        assert "verify_ternary = pass" in out
        assert "verify_analog = pass" in out

    def test_verify_empty_rules(self, capsys, tmp_path):
        rules = tmp_path / "empty.txt"
        rules.write_text("# nothing here\n")
        code, out, _ = run(capsys, "route", "--rules", str(rules),
                           "--mode", "both", "--verify", "--samples", "100")
        assert code == 0
        assert "verify_ternary = pass" in out
        assert "verify_analog = pass" in out

    def test_negative_samples_rejected(self, capsys, demo_files):
        _, _, _, rules = demo_files
        code, _, err = run(capsys, "route", "--rules", str(rules),
                           "--verify", "--samples", "-1")
        assert code == 2
        assert err.startswith("error: invalid-parameter:")

    def test_verify_catches_a_dropped_entry(self, capsys, tmp_path, monkeypatch):
        # the oracle is built from the rules, so a table that lost an entry fails
        compile_table = encoder.compile_table

        def drop_first_entry(rules, mode, bits_per_cell=3):
            table = compile_table(rules, mode, bits_per_cell)
            return replace(table, entries=table.entries[1:])

        monkeypatch.setattr(encoder, "compile_table", drop_first_entry)
        rules = tmp_path / "rules.txt"
        rules.write_text("0 2047 12 low\n1024 4095 12 high\n")
        code, out, _ = run(capsys, "route", "--rules", str(rules),
                           "--mode", "both", "--verify", "--samples", "1000")
        assert code == 0
        assert "verify_ternary = fail" in out
        assert "verify_analog = fail" in out

    def test_verify_catches_a_dropped_one_address_entry(self, capsys, tmp_path,
                                                        monkeypatch):
        # a table without its smallest entry, one address of 2^24, fails in
        # both modes; 10^6 sampled addresses never drew it
        compile_table = encoder.compile_table
        dropped = []

        def drop_smallest_entry(rules, mode, bits_per_cell=3):
            table = compile_table(rules, mode, bits_per_cell)
            sizes = [hi - lo for lo, hi in (t.entry.interval for t in table.entries)]
            smallest = sizes.index(min(sizes))
            dropped.append(min(sizes) + 1)
            return replace(table, entries=table.entries[:smallest]
                           + table.entries[smallest + 1:])

        monkeypatch.setattr(encoder, "compile_table", drop_smallest_entry)
        rules = tmp_path / "rules.txt"
        rules.write_text("98305 14712838 24 portA\n5 70000 24 low\n")
        code, out, _ = run(capsys, "route", "--rules", str(rules), "--mode", "both",
                           "--verify", "--samples", "1000000")
        assert code == 0 and dropped == [1, 1]
        assert "verify_ternary = fail" in out
        assert "verify_analog = fail" in out

    def test_wide_verify_memory_is_bounded(self, capsys, tmp_path):
        # two 129-bit rules are checked by their indexes, so --samples costs
        # no memory; 200,000 samples drawn at once used to peak at 44 MB
        rules = tmp_path / "wide.txt"
        rules.write_text(f"{1 << 100} {(1 << 128) + 12345} 129 far\n"
                         f"5 {1 << 110} 129 near\n")
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "route", "--rules", str(rules), "--mode",
                               "ternary", "--verify", "--samples", "200000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "verify_ternary = pass" in out
        assert peak < 30e6

    def test_malformed_rule_names_line(self, capsys, tmp_path):
        rules = tmp_path / "bad.txt"
        rules.write_text("98305 14712838 24 portA\n1 2 3\n")
        code, _, err = run(capsys, "route", "--rules", str(rules))
        assert code == 2
        assert err.startswith("error: parse-error:")
        assert "line 2" in err


    def test_four_level_cells_compile_two_bit_entries(self, capsys, tmp_path):
        # 4 levels used to compile 3-bit entries that entry_to_cells refused
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\nlevel_bounds = 0.1 0.3 0.5 0.7 0.9\n")
        rules = tmp_path / "rules.txt"
        rules.write_text("98305 14712838 24 portA\n5 70000 24 low\n")
        listing = tmp_path / "table.txt"
        code, out, err = run(capsys, "--config", str(ini), "route", "--rules",
                             str(rules), "--mode", "analog", "--out", str(listing),
                             "--verify", "--samples", "20000")
        assert (code, err) == (0, "")
        counts = dict(line.split(" = ") for line in out.splitlines())
        assert counts["verify_analog"] == "pass"
        entries = listing.read_text().splitlines()
        assert int(counts["analog_entries"]) == len(entries)
        assert int(counts["analog_cells"]) == len(entries) * 24 // 2
        cfg = load_config(ini).cell
        for line in entries:
            digits = [tuple(map(int, d)) for d in
                      re.findall(r"\[(\d+)-(\d+)\]", line.split("\t")[0])]
            assert len(digits) == 12
            windows = entry_to_cells(AnalogEntry(tuple(digits), 2), cfg)
            assert len(windows) == 12

    def test_report_prices_the_table_bits_per_cell(self, capsys, tmp_path):
        # 2-bit cells were priced as 3-bit ones; now the calibration must match
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\nlevel_bounds = 0.1 0.3 0.5 0.7 0.9\n")
        rules = tmp_path / "rules.txt"
        rules.write_text("98305 14712838 24 portA\n5 70000 24 low\n")
        argv = ("--config", str(ini), "route", "--rules", str(rules), "--mode", "both")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: inconsistent-input:")
        assert "2 bits per cell" in err and "prices 3" in err
        ini.write_text(ini.read_text() + "[cost]\nbits_per_cell_fecam_analog = 2\n")
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        report = dict(line.split(" = ") for line in out.splitlines())
        per_bit = load_config(ini).cost.energy_per_bit[CamKind.FECAM_ANALOG]
        assert float(report["analog_energy_joules"]) == pytest.approx(
            int(report["analog_cells"]) * 2 * per_bit, rel=1e-9)

    def test_undecodable_input_is_a_parse_error(self, capsys, tmp_path, demo_files):
        # a rule or config file that is not UTF-8 used to end in a traceback
        _, _, _, rules = demo_files
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe 1 2 8 a\n")
        for argv in (["route", "--rules", str(bad)],
                     ["--config", str(bad), "route", "--rules", str(rules)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: parse-error:") and "bad.txt" in err

    def test_level_count_must_be_a_power_of_two(self, capsys, tmp_path, demo_files):
        _, _, _, rules = demo_files
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\nlevel_bounds = 0.1 0.2 0.3 0.5 0.7 0.9\n")
        code, out, err = run(capsys, "--config", str(ini), "route",
                             "--rules", str(rules))
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameter:")
        assert "level_count" in err

    def test_ternary_route_reads_no_levels(self, capsys, tmp_path, demo_files):
        # a ternary table stores one bit per cell; 3 levels used to stop it
        _, _, _, rules = demo_files
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\nlevel_bounds = 0.1 0.2 0.3 0.4\n")
        argv = ["--config", str(ini), "route", "--rules", str(rules), "--mode"]
        code, out, err = run(capsys, *argv, "ternary")
        assert (code, err) == (0, "")
        assert [line.split(" = ")[0] for line in out.splitlines()] == [
            "ternary_entries", "ternary_cells"]
        code, out, err = run(capsys, *argv, "analog")
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid-parameter:") and "level_count" in err

    def test_missing_rules_file_is_an_io_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "route", "--rules", str(tmp_path / "absent.txt"))
        assert (code, out) == (2, "")
        assert err.startswith("error: io-error:") and "absent.txt" in err


JUNK_TOKENS = st.one_of(
    st.sampled_from(["", "-1", "0", "1.5", "1e3", "0x1f", "x", "#", "1_0", "\u0663",
                     str(1 << 140)]),
    st.text(st.characters(codec="utf-8"), max_size=6))


@st.composite
def rule_files(draw):
    """Rule-file bytes: rules at one width, some with a token replaced by junk,
    or free text, or bytes that need not be UTF-8."""
    kind = draw(st.sampled_from(["rules", "rules", "rules", "text", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=24))
    if kind == "text":
        return draw(st.text(st.characters(codec="utf-8"), max_size=40)).encode()
    width = draw(st.integers(1, 43).map(lambda k: 3 * k) | st.integers(1, 130))
    address = st.integers(0, (1 << width) - 1)
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        lo, hi = sorted((draw(address), draw(address)))
        tokens = [str(lo), str(hi), str(width), draw(st.sampled_from(["a", "b", "hop"]))]
        if draw(st.booleans()):
            tokens[draw(st.integers(0, 3))] = draw(JUNK_TOKENS)
        lines.append(" ".join(tokens))
    return "\n".join(lines).encode()


def exits_cleanly(argv):
    """Run main in-process and hold it to its contract: exit 0 with only
    warning lines on stderr, or exit 2 with one categorized error line after
    them; never a traceback.  Returns the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors exit through SystemExit(2)
            code = exc.code
    lines = err.getvalue().splitlines(keepends=True)
    assert code in (0, 2)
    if code == 2:
        assert lines and re.fullmatch(r"error: [a-z-]+: [^\n]*\n", lines.pop()), lines
    # the size guideline is the only warning: numpy's own must not leak out
    assert all(re.fullmatch(r"warning: \d+ (rows|columns) exceeds 64; [^\n]*\n", line)
               for line in lines), lines
    return code, out.getvalue(), err.getvalue()


class TestRouteFuzz:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=rule_files(), mode=st.sampled_from(["ternary", "analog", "both"]),
           samples=st.integers(-3, 3000).map(lambda n: str(n) if n > -3 else "1.5"),
           verify=st.booleans())
    def test_route_exits_cleanly(self, tmp_path, text, mode, samples, verify):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(text)
        argv = ["route", "--rules", str(rules), "--mode", mode, "--samples", samples]
        code, out, err = exits_cleanly(argv + ["--verify"] * verify)
        if code == 0:
            assert err == ""
            assert "= fail" not in out


IN_RANGE = st.sampled_from(["0", "0.3", "0.5", "0.95", "1"])
VOLTS = IN_RANGE | st.sampled_from(["1.13", "2", "-0.1", "nan", "x"])

# config lines (section, key, value) that load, and ones that do not or that
# break what uses them: removed keys, the sense swing at or above
# the supply, bad supplies and bound lists, bad currents and costs
GOOD_CONFIG = st.sampled_from([
    ("cell", "vdd", "1.13"), ("cell", "vdd", "1.0"),
    ("cell", "level_bounds", "0.1 0.3 0.5 0.7 0.9"), ("cell", "digital_margin", "0.25"),
    ("matchline", "delta_v_ml", "0.4"), ("matchline", "delta_v_ml", "0.9"),
    ("matchline", "c_pmos", "1e-16"), ("device", "subthreshold_slope", "1e-5"),
    ("device", "subthreshold_slope", "1"), ("device", "i_off", "0"),
    ("device", "i_on", "1e-3"), ("device", "i_on", "1e307"),
    ("cost", "energy_per_bit_cmos_tcam", "1e-300"),
    ("cost", "bits_per_cell_fecam_analog", "4"),
    ("cost", "area_per_bit_ratio_analog_vs_cmos", "1e300")])
BAD_CONFIG = st.sampled_from([
    ("cell", "level_count", "8"), ("matchline", "vdd", "1.0"), ("cell", "inverter_gain", "5"),
    ("matchline", "delta_v_ml", "1.0"), ("matchline", "delta_v_ml", "1.13"),
    ("matchline", "delta_v_ml", "-1"), ("cell", "vdd", "0.5"), ("cell", "vdd", "x"),
    ("cell", "level_bounds", "0.5"), ("matchline", "i_discharge_avg", "0"),
    ("device", "i_off", "-1e-12"), ("device", "subthreshold_slope", "0"),
    ("cost", "bits_per_cell_cmos_tcam", "0"), ("cost", "energy_per_bit_fecam_digital", "-1"),
    ("cost", "cmos_cell_area", "1e300")])


@st.composite
def config_files(draw):
    """Config text of a few good lines and maybe a bad one, or None."""
    if draw(st.booleans()):
        return None
    chosen = {"cell": {}, "matchline": {}, "device": {}, "cost": {}}
    lines = draw(st.lists(GOOD_CONFIG, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(BAD_CONFIG))
    for section, key, value in lines:
        chosen[section][key] = value
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in chosen.items() if keys)


@st.composite
def search_files(draw):
    """Array and query text of at most 64x64 cells, with at most one fault:
    a bad size or header, a bad match-line override (the removed vdd among
    them), a bad or misplaced cell, or a query of the wrong width or with a
    bad voltage."""
    fault = draw(st.sampled_from([None, None, None, "size", "header", "override",
                                  "place", "spec", "width", "volt"]))
    rows, cols = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    if fault == "size":
        rows, cols = draw(st.sampled_from([(0, cols), (rows, 0), (-1, cols)]))
    lines = [f"rows {rows}", f"cols {cols}"]
    if fault == "header":
        lines = lines[:draw(st.integers(0, 1))]
    # overrides that load, the extreme ones stretching the auto sense time
    overrides = ["delta_v_ml 0.4", "c_drain 3e-16", "c_pmos 1e300", "i_discharge_avg 1e-300"]
    if fault == "override":
        overrides = ["vdd 1.0", "delta_v_ml 1.0", "bogus 1", "c_drain x", "c_drain 5e-320"]
    lines += ["matchline " + o for o in draw(st.lists(st.sampled_from(overrides),
                                                      min_size=fault == "override",
                                                      max_size=1))]
    cells = []
    for _ in range(draw(st.integers(0, 6))):
        r, c = draw(st.integers(0, max(rows - 1, 0))), draw(st.integers(0, max(cols - 1, 0)))
        spec = draw(st.integers(0, 7).map("level {}".format)
                    | st.sampled_from(["digital 0", "digital 1", "digital X",
                                       "analog 0.2 0.7", "analog 0 1"]))
        cells.append([r, c, spec])
    if cells and fault == "place":
        cells[0][draw(st.integers(0, 1))] = draw(st.sampled_from([-1, rows, cols]))
    if cells and fault == "spec":
        cells[0][2] = draw(st.sampled_from(["level 8", "level -1", "digital 2",
                                            "analog 0.7 0.2", "analog 0.4 nan",
                                            "analog 0.4", "window 1", ""]))
    lines += ["cell {} {} {}".format(*cell) for cell in cells]
    queries = [draw(st.lists(IN_RANGE, min_size=max(cols, 0), max_size=max(cols, 0)))
               for _ in range(draw(st.integers(0, 3)))]
    if queries and fault == "width":
        queries[0] = queries[0][:-1] or ["0.5", "0.5"]
    if queries and queries[0] and fault == "volt":
        queries[0][-1] = draw(VOLTS)
    sep = draw(st.sampled_from([" ", ","]))
    return ("\n".join(lines) + "\n",
            "\n".join(sep.join(query) for query in queries) + "\n")


def with_config(tmp_path, config):
    if config is None:
        return []
    path = tmp_path / "fecam.ini"
    path.write_text(config)
    return ["--config", str(path)]


# a warning stays a warning here, so that exits_cleanly sees each one's line
@pytest.mark.filterwarnings("default::RuntimeWarning")
class TestSearchAndSweepFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=config_files(), files=search_files(),
           sense_time=st.sampled_from(["auto", "1e-8", "1e-12", "1e-300", "1e300"])
           | st.sampled_from(["0", "-1e-9", "nan", "inf", "x"]), out=st.booleans())
    def test_search_exits_cleanly(self, tmp_path, config, files, sense_time, out):
        (tmp_path / "array.txt").write_text(files[0])
        (tmp_path / "queries.txt").write_text(files[1])
        exits_cleanly(with_config(tmp_path, config) + [
            "search", "--array", str(tmp_path / "array.txt"), "--queries",
            str(tmp_path / "queries.txt"), f"--sense-time={sense_time}"]
            + ["--out", str(tmp_path / "trace.csv")] * out)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=config_files(), data=st.data())
    def test_sweep_exits_cleanly(self, tmp_path, config, data):
        # at most one bad argument; a size axis sweeps up to 66 cells against
        # a fixed side of at most 62, so no array holds more than 64x64 cells
        fault = data.draw(st.sampled_from([None, None, None, "axis", "values",
                                           "window", "rows", "cols"]))
        axis = data.draw(st.sampled_from(["rows", "cols", "v_sl"]))
        sizes = axis in ("rows", "cols")
        good = (st.integers(1, 66).map(str) | st.sampled_from(["64", "65", "66"])
                if sizes else IN_RANGE)
        values = data.draw(st.lists(good, min_size=sizes, max_size=3))
        window = sorted(data.draw(st.lists(st.sampled_from(["0.1", "0.3", "0.5", "0.9"]),
                                           min_size=2, max_size=2, unique=True)))
        side = {"rows": str(data.draw(st.integers(1, 62 if axis == "cols" else 64))),
                "cols": str(data.draw(st.integers(1, 62 if axis == "rows" else 64)))}
        bad = st.sampled_from(["0", "-1", "1.5", "x", "", str(1 << 140)])
        if fault == "axis":
            axis = data.draw(st.sampled_from(["x", "diagonal", ""]))
        elif fault == "values":
            values.append(data.draw(bad if sizes else VOLTS))
        elif fault == "window":
            window = data.draw(st.tuples(VOLTS, VOLTS))
        elif fault:
            side[fault] = data.draw(bad)
        exits_cleanly(with_config(tmp_path, config) + [
            "sweep", "--axis", axis, f"--values={','.join(values)}", "--window",
            *window, f"--rows={side['rows']}", f"--cols={side['cols']}"])


# one bad transfer argument: amplitudes outside the programming range or not
# numbers; a gate range that is NaN, infinite, empty, reversed or too long
# to allocate; a drain bias that is not finite
BAD_TRANSFER = st.sampled_from([
    ("amplitudes", "9"), ("amplitudes", "-1"), ("amplitudes", "x"), ("amplitudes", "nan"),
    ("vgs", ["nan", "1", "0.1"]), ("vgs", ["0", "inf", "0.1"]), ("vgs", ["0", "1", "0"]),
    ("vgs", ["0", "1", "-0.1"]), ("vgs", ["0", "1e300", "1e-300"]),
    ("vgs", ["0", "1e9", "1e-9"]), ("vgs", ["1", "0", "0.1"]),
    ("vds", "nan"), ("vds", "inf"), ("vds", "x")])


# a warning stays a warning here, so that exits_cleanly sees each one's line
@pytest.mark.filterwarnings("default::RuntimeWarning")
class TestTransferAndBenchFuzz:
    # at most one bad argument; a good gate range has at most 2,200 points
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=config_files(),
           amplitudes=st.lists(st.sampled_from(["2", "3", "4", "-4", "2.5"]), max_size=3),
           vgs=st.tuples(st.sampled_from(["0", "-1", "0.5"]), st.sampled_from(["1.2", "0.5"]),
                         st.sampled_from(["0.01", "0.1", "0.5"])),
           vds=st.sampled_from(["1", "0.05", "0"]), fault=st.none() | BAD_TRANSFER,
           out=st.booleans())
    @example(config="[device]\nsubthreshold_slope = 1e-5\n", amplitudes=["3"],
             vgs=("0", "1.2", "0.01"), vds="1", fault=None, out=False)
    def test_transfer_exits_cleanly(self, tmp_path, config, amplitudes, vgs, vds, fault,
                                    out):
        args = {"amplitudes": amplitudes, "vgs": list(vgs), "vds": vds}
        if fault:
            name, value = fault
            args[name] = amplitudes + [value] if name == "amplitudes" else value
        exits_cleanly(with_config(tmp_path, config) + [
            "transfer", f"--amplitudes={','.join(args['amplitudes'])}", "--vgs-range",
            *args["vgs"], f"--vds={args['vds']}"]
            + ["--out", str(tmp_path / "transfer.csv")] * out)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=config_files(), out=st.booleans())
    def test_bench_exits_cleanly(self, tmp_path, config, out):
        exits_cleanly(with_config(tmp_path, config) + ["bench"]
                      + ["--out", str(tmp_path / "bench.txt")] * out)


class TestBenchAndConfig:
    def test_bench_reports_ratios(self, capsys):
        code, out, _ = run(capsys, "bench")
        assert code == 0
        assert "energy_ratio_vs_cmos_fecam_analog = 8.55" in out
        assert "energy_ratio_vs_cmos_fecam_digital = 3.24" in out

    def test_config_flag_overrides(self, capsys, tmp_path, demo_files):
        _, array, queries, _ = demo_files
        ini = tmp_path / "fecam.ini"
        ini.write_text("[matchline]\ndelta_v_ml = 0.4\n")
        code, out, _ = run(capsys, "--config", str(ini), "search",
                           "--array", str(array), "--queries", str(queries))
        assert code == 0
        assert "query_1_matches = true" in out

    def test_config_env_var(self, capsys, tmp_path, monkeypatch):
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cost]\nenergy_per_bit_cmos_tcam = 1.38e-15\n")
        monkeypatch.setenv("FECAM_CONFIG", str(ini))
        code, out, _ = run(capsys, "bench")
        assert code == 0
        assert "energy_per_bit_cmos_tcam_joules = 1.38e-15" in out

    def test_zero_inverter_gain_rejected(self, capsys, tmp_path, demo_files):
        # a zero gain turned every inverted search line into NaN, and any gain
        # moved windows off what was programmed: the key is gone, so any value
        # is refused as an unknown field
        _, array, queries, _ = demo_files
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\ninverter_gain = 0\n")
        code, out, err = run(capsys, "--config", str(ini), "search",
                             "--array", str(array), "--queries", str(queries))
        assert (code, out) == (2, "")
        assert err.startswith("error: parse-error:")
        assert "unknown field [cell] inverter_gain" in err

    def test_negative_reference_ratio_rejected(self, capsys, tmp_path, demo_files):
        # -60.5 used to print a negative reference_area_gap_percent; the
        # reference is now a constant of the cost model, not a key
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cost]\nreference_routing_area_ratio = -60.5\n")
        code, out, err = run(capsys, "--config", str(ini), "route",
                             "--rules", str(demo_files[3]))
        assert (code, out) == (2, "")
        assert err.startswith("error: parse-error:")
        assert "unknown field [cost] reference_routing_area_ratio" in err

    def test_negative_seed_rejected(self, capsys, tmp_path, demo_files):
        # -1 used to load and end route --verify in a numpy traceback
        ini = tmp_path / "fecam.ini"
        ini.write_text("[general]\nrng_seed = -1\n")
        code, out, err = run(capsys, "--config", str(ini), "route",
                             "--rules", str(demo_files[3]), "--verify")
        assert (code, out) == (2, "")
        assert err.startswith("error: parse-error:")
        assert "rng_seed" in err

    def test_broken_config_reports_category(self, capsys, tmp_path):
        ini = tmp_path / "fecam.ini"
        ini.write_text("[device]\nbogus = 1\n")
        code, _, err = run(capsys, "--config", str(ini), "bench")
        assert code == 2
        assert err.startswith("error: parse-error:")
