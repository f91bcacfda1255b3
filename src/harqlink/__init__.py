"""Throughput analysis and simulation of AMC and HARQ over block-fading links."""

from .amc import (DecisionRegions, RegionKind, ThroughputEstimate,
                  amc_throughput, amc_thresholds_closed_form,
                  amc_thresholds_exact, amc_thresholds_per_target, classify)
from .channel import (ChannelConfig, FadingMode, db_to_linear, linear_to_db,
                      make_stream)
from .coding import (CombiningType, McsTable, aggregate_snr, first_round_cum,
                     mutual_information, mutual_information_inv, per, per_at,
                     snr_margin_delta)
from .harq_analysis import (FastFadingTables, HarqConfig, HarqVariant,
                            fast_throughput, slow_cascades, slow_throughput,
                            slow_throughput_at, two_round_bound)
from .optimizer import (DinkelbachState, FastOptimizeResult,
                        fast_optimize_regions, slow_optimal_regions)
from .simulator import (SimResult, simulate_packet_drop, simulate_plain,
                        simulate_vl, vl_schedule, vl_update)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
