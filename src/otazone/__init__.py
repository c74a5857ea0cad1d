"""Random-LOS OTA test-zone simulator.

Synthesizes the near field of a tapered linear chamber array, scores the
test zone against plane-wave figures of merit, maps compliant geometry
combinations, searches the tolerated excitation error by Monte Carlo, and
evaluates MF/ZF uplink sum rates under DUT weight errors.
"""

__version__ = "0.1.0"

from .field import (ArrayLayout, WaveSpec, element_fields, field_at_points,
                    make_taper)
from .testzone import (ChamberSpec, FomLimits, FomReport, TestZoneMesh,
                       TestZoneSpec, TIER1, TIER2, TIER3, TIERS, build_mesh,
                       evaluate_fom, field_over_mesh, fom_values)
from .sweep import ComplianceMap, SweepGrid, compact_frontier, run_sweep
from .tolerance import (ExcitationErrorModel, ToleranceResult,
                        ToleranceSearchConfig, draw_errors, tolerance_search)
from .precoding import (COMBINERS, DutArraySpec, StudyConfig, SumRatePoint,
                        alpha_min_deg, build_channel, mf_weights, run_study, sinr,
                        sum_rate, zf_weights)
from .config import ConfigError, RunConfig, load_config
