"""Behavioral simulator and range-encoding toolkit for 2-FeFET universal
content-addressable memory: multilevel FeFET programming, analog/digital CAM
cells, match-line array transients, range-to-table compilation, and a
calibrated area/energy cost model."""

from .array import (DisturbReport, FecamArray, MatchLineParams, SearchResult,
                    WritePlan, batch_search, discharge_time, inhibition_plans,
                    measure_bounds, ml_capacitance, search, sense,
                    single_mismatch_sense_time, write_cells, write_row)
from .cell import (CellConfig, FecamCell, TernaryBit, cell_current,
                   digital_query_voltage, inverter, level_center, match_window,
                   program_analog, program_digital, program_level_window,
                   quantized_levels)
from .config import GlobalConfig, default_config, load_config
from .costmodel import (CamKind, ComparisonReport, CostParams, area,
                        energy_ratio_vs_cmos, ml_energy_estimate,
                        routing_report, search_energy, word_search_energy)
from .device import (DeviceParams, FeFetState, WritePulse, apply_variation,
                     drain_current, polarization_after_pulse, pulse_for_vth,
                     resolvable_levels, state_for_vth, vth_from_pulse)
from .encoder import (AnalogEntry, RangeRule, RoutingTable, TableMode,
                      TernaryEntry, address_query_voltages, compile_table,
                      entries_match, entries_match_many, entry_to_cells,
                      lookup, lookup_many, range_to_analog_entries,
                      range_to_prefixes, table_text)
from .errors import (DimensionMismatchError, DisturbViolationError,
                     EmptyWindowError, FecamError, InconsistentInputError,
                     InvalidParameterError, InvalidPulseError, OutOfRangeError,
                     ParseError)

__version__ = "0.1.0"
