"""Calibrated area and search-energy comparison of CAM technologies.

Pure calibration: per-bit search energies and the analog-vs-CMOS per-bit
area ratio are fixed constants (45 nm reference design point), so every
result is homogeneous in cell count and only ratios are meaningful for
area.  A cross-check helper estimates match-line dynamic energy from the
transient model's capacitances for comparison, without gating anything.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .array import MatchLineParams, ml_capacitance
from .encoder import RoutingTable, TableMode
from .errors import InconsistentInputError, InvalidParameterError, require_finite


class CamKind(enum.Enum):
    CMOS_TCAM = "cmos_tcam"
    FECAM_DIGITAL = "fecam_digital"
    FECAM_ANALOG = "fecam_analog"


def _default_energy() -> dict:
    return {CamKind.CMOS_TCAM: 0.590e-15,
            CamKind.FECAM_DIGITAL: 0.182e-15,
            CamKind.FECAM_ANALOG: 0.069e-15}


def _default_bits() -> dict:
    return {CamKind.CMOS_TCAM: 1,
            CamKind.FECAM_DIGITAL: 1,
            CamKind.FECAM_ANALOG: 3}


def _default_word_cells() -> dict:
    return {CamKind.CMOS_TCAM: 64,
            CamKind.FECAM_DIGITAL: 64,
            CamKind.FECAM_ANALOG: 22}


@dataclass(frozen=True)
class CostParams:
    """Calibration constants for the three CAM technologies.

    cmos_cell_area is a free unit (feature-size normalized); reported area
    figures are ratios and do not depend on it.  reference_routing_area_ratio
    is the headline figure the routing case study is calibrated against,
    kept for the cross-check note in reports (it exceeds the value derivable
    from the per-bit ratio by about 1%).
    """

    energy_per_bit: dict = field(default_factory=_default_energy)       # J
    bits_per_cell: dict = field(default_factory=_default_bits)
    word_cells: dict = field(default_factory=_default_word_cells)
    area_per_bit_ratio_analog_vs_cmos: float = 0.045
    cmos_cell_area: float = 1.0
    reference_routing_area_ratio: float = 60.5

    def __post_init__(self):
        require_finite(self)
        for kind in CamKind:
            if self.energy_per_bit.get(kind, 0) <= 0:
                raise InvalidParameterError(f"energy_per_bit missing for {kind}")
            if self.bits_per_cell.get(kind, 0) < 1:
                raise InvalidParameterError(f"bits_per_cell must be >= 1 for {kind}")
        if self.area_per_bit_ratio_analog_vs_cmos <= 0 or self.cmos_cell_area <= 0:
            raise InvalidParameterError("area constants must be positive")

    def cell_area(self, kind: CamKind) -> float:
        """Cell area in cmos_cell_area units.

        The analog cell packs 3 bits at the calibrated per-bit ratio; the
        digital cell is the same 2-FeFET structure storing a single bit.
        """
        if kind is CamKind.CMOS_TCAM:
            return self.cmos_cell_area
        analog_cell = (self.bits_per_cell[CamKind.FECAM_ANALOG]
                       * self.area_per_bit_ratio_analog_vs_cmos
                       * self.cmos_cell_area)
        return analog_cell

    def area_per_bit(self, kind: CamKind) -> float:
        return self.cell_area(kind) / self.bits_per_cell[kind]


def search_energy(p: CostParams, kind: CamKind, n_cells: int) -> float:
    """Energy of searching n_cells cells, in joules."""
    if n_cells < 0:
        raise InvalidParameterError("n_cells must be >= 0")
    return n_cells * p.bits_per_cell[kind] * p.energy_per_bit[kind]


def area(p: CostParams, kind: CamKind, n_cells: int) -> float:
    """Array area of n_cells cells, in cmos_cell_area units."""
    if n_cells < 0:
        raise InvalidParameterError("n_cells must be >= 0")
    return n_cells * p.cell_area(kind)


def energy_ratio_vs_cmos(p: CostParams, kind: CamKind) -> float:
    """Per-bit search-energy advantage over CMOS TCAM."""
    return p.energy_per_bit[CamKind.CMOS_TCAM] / p.energy_per_bit[kind]


def word_search_energy(p: CostParams, kind: CamKind) -> float:
    """Search energy of one word at the calibrated word size."""
    return search_energy(p, kind, p.word_cells[kind])


def ml_energy_estimate(mlp: MatchLineParams, n_cols: int) -> float:
    """Transient-model estimate of per-row match-line dynamic energy:
    recharging the sense-boundary swing on the line capacitance."""
    return ml_capacitance(mlp, n_cols) * mlp.vdd * mlp.delta_v_ml


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

    @staticmethod
    def csv_header() -> str:
        # the CSV holds the first nine fields: no reference calibration
        return ",".join(f.name for f in fields(ComparisonReport)[:9])

    def csv_row(self) -> str:
        return ",".join(_fmt(v) for v in list(self.as_dict().values())[:9])


NUMBER_SPEC = ".10g"  # every real number the package writes: 10 significant digits


def _fmt(value) -> str:
    """Number formatting shared by every text output of the package.

    Booleans print as true/false and integers exactly; every other number
    goes through NUMBER_SPEC, the one spec that the CSV templates of
    `fileio` also build their "%" fields from.
    """
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), NUMBER_SPEC)


def routing_report(p: CostParams, ternary: RoutingTable,
                   analog: RoutingTable) -> ComparisonReport:
    """Compare a ternary table (on CMOS TCAM) against its analog equivalent.

    Both tables must be compiled from the same rules.
    """
    if ternary.mode is not TableMode.TERNARY or analog.mode is not TableMode.ANALOG3B:
        raise InconsistentInputError("expected one ternary and one analog table")
    if ternary.rules != analog.rules:
        raise InconsistentInputError("tables compiled from different rule sets")
    t_cells, a_cells = ternary.n_cells, analog.n_cells
    t_energy = search_energy(p, CamKind.CMOS_TCAM, t_cells)
    a_energy = search_energy(p, CamKind.FECAM_ANALOG, a_cells)
    t_area = area(p, CamKind.CMOS_TCAM, t_cells)
    a_area = area(p, CamKind.FECAM_ANALOG, a_cells)
    area_ratio = t_area / a_area if a_area else float("inf")
    gap = (abs(area_ratio - p.reference_routing_area_ratio)
           / p.reference_routing_area_ratio * 100.0
           if p.reference_routing_area_ratio else 0.0)
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
        reference_area_ratio=p.reference_routing_area_ratio,
        reference_area_gap_percent=gap,
    )
