import pytest

from fecam import (CamKind, CostParams, InconsistentInputError, InvalidParameterError,
                   RangeRule, TableMode, area, compile_table, energy_ratio_vs_cmos,
                   ml_energy_estimate, routing_report, search_energy,
                   word_search_energy)

CASE_RULE = RangeRule(98305, 14712838, 24, "portA")


@pytest.fixture(scope="module")
def cost():
    return CostParams()


@pytest.fixture(scope="module")
def tables():
    return (compile_table([CASE_RULE], TableMode.TERNARY),
            compile_table([CASE_RULE], TableMode.ANALOG3B))


class TestSearchEnergy:
    def test_cmos_routing_table(self, cost):
        assert search_energy(cost, CamKind.CMOS_TCAM, 648) == pytest.approx(
            382.32e-15, rel=1e-9)

    def test_analog_routing_table(self, cost):
        assert search_energy(cost, CamKind.FECAM_ANALOG, 80) == pytest.approx(
            16.56e-15, rel=1e-9)

    def test_zero_cells(self, cost):
        for kind in CamKind:
            assert search_energy(cost, kind, 0) == 0.0

    def test_homogeneous_in_cell_count(self, cost):
        for kind in CamKind:
            assert (search_energy(cost, kind, 100)
                    == pytest.approx(search_energy(cost, kind, 60)
                                     + search_energy(cost, kind, 40), rel=1e-12))


class TestArea:
    def test_analog_per_bit_ratio(self, cost):
        ratio = cost.area_per_bit(CamKind.FECAM_ANALOG) / cost.area_per_bit(
            CamKind.CMOS_TCAM)
        assert ratio == pytest.approx(0.045, rel=1e-12)

    def test_digital_cell_is_analog_cell(self, cost):
        # same 2-FeFET structure; the analog cell just packs 3 bits into it
        assert cost.cell_area(CamKind.FECAM_DIGITAL) == pytest.approx(
            cost.cell_area(CamKind.FECAM_ANALOG), rel=1e-12)
        assert (cost.area_per_bit(CamKind.FECAM_DIGITAL)
                == pytest.approx(3 * cost.area_per_bit(CamKind.FECAM_ANALOG),
                                 rel=1e-12))

    def test_zero_cells(self, cost):
        assert area(cost, CamKind.FECAM_ANALOG, 0) == 0.0

    def test_cmos_to_analog_cell_ratio(self, cost):
        # algebra on the per-bit ratio: one CMOS cell vs one analog cell
        ratio = cost.cell_area(CamKind.CMOS_TCAM) / cost.cell_area(
            CamKind.FECAM_ANALOG)
        assert ratio == pytest.approx(1 / (3 * 0.045), rel=1e-9)

    def test_counted_in_cmos_cells(self, cost):
        assert area(cost, CamKind.CMOS_TCAM, 648) == 648
        assert area(cost, CamKind.FECAM_ANALOG, 80) == pytest.approx(80 * 3 * 0.045,
                                                                     rel=1e-12)

    def test_homogeneous_in_cell_count(self, cost):
        assert area(cost, CamKind.CMOS_TCAM, 30) == pytest.approx(
            3 * area(cost, CamKind.CMOS_TCAM, 10), rel=1e-12)


class TestPerBitRatios:
    def test_analog_energy_advantage(self, cost):
        assert energy_ratio_vs_cmos(cost, CamKind.FECAM_ANALOG) == pytest.approx(
            8.55, abs=0.05)

    def test_digital_energy_advantage(self, cost):
        assert energy_ratio_vs_cmos(cost, CamKind.FECAM_DIGITAL) == pytest.approx(
            3.24, abs=0.05)

    def test_word_sizes_follow_bits_per_cell(self, cost):
        assert cost.word_cells == {CamKind.CMOS_TCAM: 64,
                                   CamKind.FECAM_DIGITAL: 64,
                                   CamKind.FECAM_ANALOG: 22}
        two_bit = CostParams(bits_per_cell_fecam_analog=2)
        assert two_bit.bits_per_cell == {CamKind.CMOS_TCAM: 1,
                                         CamKind.FECAM_DIGITAL: 1,
                                         CamKind.FECAM_ANALOG: 2}
        assert two_bit.word_cells[CamKind.FECAM_ANALOG] == 32

    def test_word_energies_use_calibrated_word_sizes(self, cost):
        assert word_search_energy(cost, CamKind.CMOS_TCAM) == pytest.approx(
            64 * 0.590e-15, rel=1e-12)
        assert word_search_energy(cost, CamKind.FECAM_ANALOG) == pytest.approx(
            22 * 3 * 0.069e-15, rel=1e-12)


class TestKindIsChecked:
    @pytest.mark.parametrize("kind", ["x", "cmos_tcam", None, 0])
    @pytest.mark.parametrize("call", [
        lambda p, kind: search_energy(p, kind, 1), lambda p, kind: area(p, kind, 1),
        lambda p, kind: p.cell_area(kind), lambda p, kind: p.area_per_bit(kind),
        energy_ratio_vs_cmos, word_search_energy],
        ids=["search_energy", "area", "cell_area", "area_per_bit", "energy_ratio_vs_cmos",
             "word_search_energy"])
    def test_not_a_cam_kind(self, cost, call, kind):
        # area(p, "x", 1) used to price the analog cell, search_energy(p,
        # "cmos_tcam", 1) to raise a bare KeyError
        with pytest.raises(InvalidParameterError, match="not a CamKind"):
            call(cost, kind)


class TestRoutingReport:
    def test_case_study_ratios(self, cost, tables):
        report = routing_report(cost, *tables)
        assert report.cell_reduction_ratio == pytest.approx(8.1, abs=1e-3)
        assert report.energy_ratio == pytest.approx(23.08, abs=0.1)
        assert report.area_ratio == pytest.approx(60.0, abs=1.0)
        # the reference headline exceeds the derivable value by about 1%
        assert report.reference_area_ratio == pytest.approx(60.5)
        assert 0.0 < report.reference_area_gap_percent < 2.0

    def test_mismatched_rules_rejected(self, cost, tables):
        other = compile_table([RangeRule(0, 10, 24, "portB")], TableMode.ANALOG3B)
        with pytest.raises(InconsistentInputError):
            routing_report(cost, tables[0], other)

    def test_wrong_modes_rejected(self, cost, tables):
        with pytest.raises(InconsistentInputError):
            routing_report(cost, tables[1], tables[0])

    def test_kv_and_csv_outputs(self, cost, tables):
        report = routing_report(cost, *tables)
        kv = report.kv_lines()
        assert "cell_reduction_ratio = 8.1" in kv


class TestMlEnergyCrossCheck:
    def test_estimate_close_to_calibration(self, cost, mlp, cfg):
        # informational: the transient C*V*dV estimate lands near the
        # calibrated word energy without being forced to
        for kind in (CamKind.FECAM_DIGITAL, CamKind.FECAM_ANALOG):
            estimate = ml_energy_estimate(mlp, cost.word_cells[kind], cfg.vdd)
            calibrated = word_search_energy(cost, kind)
            assert 0.5 < estimate / calibrated < 2.0
