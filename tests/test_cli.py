import tracemalloc
from dataclasses import replace

import pytest

from fecam import cli, encoder
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
        assert "coercive_sigma must be finite" in err

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


class TestSweep:
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
        # the 1 mV grid overshoots a 1.13 V supply by an ulp unless clipped
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\nvdd = 1.13\n[matchline]\nvdd = 1.13\n")
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

    def test_size_axis_accepts_integral_floats(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "rows", "--values", "2.0,1")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["1", "2"]

    def test_unknown_axis_lists_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--axis", "diagonal"])
        err = capsys.readouterr().err
        assert "rows" in err and "cols" in err and "v_sl" in err


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

        def drop_first_entry(rules, mode):
            table = compile_table(rules, mode)
            return replace(table, entries=table.entries[1:])

        monkeypatch.setattr(encoder, "compile_table", drop_first_entry)
        rules = tmp_path / "rules.txt"
        rules.write_text("0 2047 12 low\n1024 4095 12 high\n")
        code, out, _ = run(capsys, "route", "--rules", str(rules),
                           "--mode", "both", "--verify", "--samples", "1000")
        assert code == 0
        assert "verify_ternary = fail" in out
        assert "verify_analog = fail" in out

    def test_wide_verify_memory_is_bounded(self, capsys, tmp_path):
        # 200,000 samples of two 129-bit rules go through in chunks of
        # VERIFY_CHUNK (peak about 15 MB); drawn at once they peaked at 44 MB
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

    def test_verify_chunks_cover_every_sample(self, capsys, tmp_path, monkeypatch):
        # every sample is checked, in full chunks and one short last chunk
        seen = []
        lookup_many = encoder.lookup_many

        def counting(table, addrs):
            seen.append(len(addrs))
            return lookup_many(table, addrs)

        monkeypatch.setattr(encoder, "lookup_many", counting)
        monkeypatch.setattr(cli, "VERIFY_CHUNK", 1000)
        rules = tmp_path / "rules.txt"
        rules.write_text("0 2047 12 low\n1024 4095 12 high\n")
        code, out, _ = run(capsys, "route", "--rules", str(rules), "--mode",
                           "ternary", "--verify", "--samples", "2500")
        assert code == 0 and "verify_ternary = pass" in out
        assert seen == [1000, 1000, 500]

    def test_malformed_rule_names_line(self, capsys, tmp_path):
        rules = tmp_path / "bad.txt"
        rules.write_text("98305 14712838 24 portA\n1 2 3\n")
        code, _, err = run(capsys, "route", "--rules", str(rules))
        assert code == 2
        assert err.startswith("error: parse-error:")
        assert "line 2" in err


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
        # a zero gain turned every inverted search line into NaN
        _, array, queries, _ = demo_files
        ini = tmp_path / "fecam.ini"
        ini.write_text("[cell]\ninverter_gain = 0\n")
        code, out, err = run(capsys, "--config", str(ini), "search",
                             "--array", str(array), "--queries", str(queries))
        assert (code, out) == (2, "")
        assert err.startswith("error: parse-error:")
        assert "inverter_gain must be positive" in err

    def test_broken_config_reports_category(self, capsys, tmp_path):
        ini = tmp_path / "fecam.ini"
        ini.write_text("[device]\nbogus = 1\n")
        code, _, err = run(capsys, "--config", str(ini), "bench")
        assert code == 2
        assert err.startswith("error: parse-error:")
