"""Calibrated area and search-energy comparison of CAM technologies.

Pure calibration: the per-bit search energy of each kind (one plain field
per kind) and the analog-vs-CMOS per-bit area ratio are fixed constants
(45 nm reference design point), so every result is homogeneous in cell
count and only ratios are meaningful for area, which is therefore counted
in CMOS TCAM cells.  Every function that takes a kind refuses anything but
a CamKind.  A cross-check helper estimates match-line dynamic energy from
the transient model's capacitances for comparison, without gating anything.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

from .array import MatchLineParams, ml_capacitance
from .encoder import MAX_RULE_WIDTH, RoutingTable, TableMode
from .errors import (InconsistentInputError, InvalidParameterError, check_int, check_real,
                     is_int)


WORD_BITS = 64  # word size of the word-level figures
MAX_PRICED_CELLS = 1 << 53  # the largest cell count a float holds exactly
REFERENCE_ROUTING_AREA_RATIO = 60.5  # the paper's routing headline, ~1% over the derivable


class CamKind(enum.Enum):
    CMOS_TCAM = "cmos_tcam"
    FECAM_DIGITAL = "fecam_digital"
    FECAM_ANALOG = "fecam_analog"


@dataclass(frozen=True)
class CostParams:
    """Calibration constants for the three CAM technologies.

    Each kind's search energy per bit is one field, energy_per_bit_<kind>,
    and `energy_per_bit` reads the three as a CamKind-keyed dict.  Areas are
    in CMOS TCAM cells: only area ratios mean anything, so the CMOS cell is
    the unit.  The CMOS and digital FeFET cells store one bit by
    construction; bits_per_cell_fecam_analog is the calibrated design point
    of the analog cell, which turns per-bit constants into per-cell cost and
    word sizes.  The configured cell's levels are CellConfig.level_count.
    """

    energy_per_bit_cmos_tcam: float = 0.590e-15     # J
    energy_per_bit_fecam_digital: float = 0.182e-15  # J
    energy_per_bit_fecam_analog: float = 0.069e-15   # J
    bits_per_cell_fecam_analog: int = 3
    area_per_bit_ratio_analog_vs_cmos: float = 0.045

    def __post_init__(self):
        for kind in CamKind:
            name = f"energy_per_bit_{kind.value}"
            check_real(getattr(self, name), name, 0, open=True)
        check_int(self.bits_per_cell_fecam_analog, "bits_per_cell_fecam_analog",
                  1, MAX_RULE_WIDTH)
        check_real(self.area_per_bit_ratio_analog_vs_cmos,
                   "area_per_bit_ratio_analog_vs_cmos", 0, open=True)

    @property
    def energy_per_bit(self) -> dict:
        """Search energy per bit of each kind, J."""
        return {kind: getattr(self, f"energy_per_bit_{kind.value}") for kind in CamKind}

    @property
    def bits_per_cell(self) -> dict:
        """Bits each kind of cell stores."""
        return {CamKind.CMOS_TCAM: 1, CamKind.FECAM_DIGITAL: 1,
                CamKind.FECAM_ANALOG: self.bits_per_cell_fecam_analog}

    @property
    def word_cells(self) -> dict:
        """Cells per kind that hold one WORD_BITS-bit word."""
        return {kind: (WORD_BITS + bits - 1) // bits
                for kind, bits in self.bits_per_cell.items()}

    def cell_area(self, kind: CamKind) -> float:
        """Cell area, in CMOS TCAM cells.

        The analog cell packs bits_per_cell_fecam_analog bits at the calibrated
        per-bit ratio; the digital cell is the same 2-FeFET cell storing one bit.
        """
        if _checked_kind(kind) is CamKind.CMOS_TCAM:
            return 1.0
        return self.bits_per_cell_fecam_analog * self.area_per_bit_ratio_analog_vs_cmos

    def area_per_bit(self, kind: CamKind) -> float:
        return self.cell_area(kind) / self.bits_per_cell[kind]


def _checked_kind(kind) -> CamKind:
    if not isinstance(kind, CamKind):
        raise InvalidParameterError(f"not a CamKind: {kind!r}")
    return kind


def search_energy(p: CostParams, kind: CamKind, n_cells: int) -> float:
    """Energy of searching n_cells cells, in joules."""
    n_cells = check_int(n_cells, "n_cells", 0, MAX_PRICED_CELLS)
    return n_cells * p.bits_per_cell[_checked_kind(kind)] * p.energy_per_bit[kind]


def area(p: CostParams, kind: CamKind, n_cells: int) -> float:
    """Array area of n_cells cells, in CMOS TCAM cells."""
    n_cells = check_int(n_cells, "n_cells", 0, MAX_PRICED_CELLS)
    return n_cells * p.cell_area(kind)


def energy_ratio_vs_cmos(p: CostParams, kind: CamKind) -> float:
    """Per-bit search-energy advantage over CMOS TCAM."""
    return p.energy_per_bit_cmos_tcam / p.energy_per_bit[_checked_kind(kind)]


def word_search_energy(p: CostParams, kind: CamKind) -> float:
    """Search energy of one WORD_BITS-bit word."""
    return search_energy(p, kind, p.word_cells[_checked_kind(kind)])


def ml_energy_estimate(mlp: MatchLineParams, n_cols: int, vdd: float) -> float:
    """Transient-model estimate of per-row match-line dynamic energy:
    recharging the sense-boundary swing on the line capacitance from vdd."""
    vdd = check_real(vdd, "vdd", 0, open=True)
    return ml_capacitance(mlp, n_cols) * vdd * mlp.delta_v_ml


@dataclass(frozen=True)
class ComparisonReport:
    """Routing-table comparison between CMOS ternary and analog storage."""

    ternary_entries: int
    analog_entries: int
    ternary_cells: int
    analog_cells: int
    cell_reduction_ratio: float
    area_ratio: float
    energy_ratio: float
    ternary_energy_joules: float
    analog_energy_joules: float
    reference_area_ratio: float
    reference_area_gap_percent: float

    def as_dict(self) -> dict:
        return asdict(self)

    def kv_lines(self) -> str:
        lines = [f"{key} = {_fmt(value)}" for key, value in self.as_dict().items()]
        lines.append(
            "note = area_ratio is derived from the per-bit area calibration; "
            "the reference headline differs by reference_area_gap_percent")
        return "\n".join(lines) + "\n"


NUMBER_SPEC = ".10g"  # every real number the package writes: 10 significant digits


def _fmt(value) -> str:
    """Number formatting shared by every text output of the package.

    Booleans print as true/false and integers exactly; every other number
    goes through NUMBER_SPEC, the one spec that the CSV templates of
    `fileio` also build their "%" fields from.
    """
    if isinstance(value, bool):
        return str(value).lower()
    if is_int(value):
        return str(int(value))
    return format(float(value), NUMBER_SPEC)


def routing_report(p: CostParams, ternary: RoutingTable,
                   analog: RoutingTable) -> ComparisonReport:
    """Compare a ternary table (on CMOS TCAM) against its analog equivalent.

    Both tables must be compiled from the same rules, at the calibrated bits per cell.
    """
    if ternary.mode is not TableMode.TERNARY or analog.mode is not TableMode.ANALOG3B:
        raise InconsistentInputError("expected one ternary and one analog table")
    if ternary.rules != analog.rules:
        raise InconsistentInputError("tables compiled from different rule sets")
    if analog.bits_per_cell != p.bits_per_cell_fecam_analog:
        raise InconsistentInputError(
            f"analog table stores {analog.bits_per_cell} bits per cell, the cost "
            f"calibration prices {p.bits_per_cell_fecam_analog}")
    t_cells, a_cells = ternary.n_cells, analog.n_cells
    t_energy = search_energy(p, CamKind.CMOS_TCAM, t_cells)
    a_energy = search_energy(p, CamKind.FECAM_ANALOG, a_cells)
    t_area = area(p, CamKind.CMOS_TCAM, t_cells)
    a_area = area(p, CamKind.FECAM_ANALOG, a_cells)
    area_ratio = t_area / a_area if a_area else float("inf")
    gap = (abs(area_ratio - REFERENCE_ROUTING_AREA_RATIO)
           / REFERENCE_ROUTING_AREA_RATIO * 100.0)
    return ComparisonReport(
        ternary_entries=ternary.n_entries,
        analog_entries=analog.n_entries,
        ternary_cells=t_cells,
        analog_cells=a_cells,
        cell_reduction_ratio=t_cells / a_cells if a_cells else float("inf"),
        area_ratio=area_ratio,
        energy_ratio=t_energy / a_energy if a_energy else float("inf"),
        ternary_energy_joules=t_energy,
        analog_energy_joules=a_energy,
        reference_area_ratio=REFERENCE_ROUTING_AREA_RATIO,
        reference_area_gap_percent=gap,
    )
