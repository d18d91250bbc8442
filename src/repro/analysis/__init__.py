"""Analysis helpers: capacity planning, cost modelling, reporting."""

from repro.analysis.capacity import (
    CapacityResult,
    stress_fill_infless,
    stress_fill_uniform,
    stress_capacity,
)
from repro.analysis.ablation import (
    ABLATION_VARIANTS,
    ablation_study,
    build_engine_variant,
    throughput_drops,
)
from repro.analysis.cost import CostModelTable4, CostReport
from repro.analysis.planner import PlanEntry, SLOPlanner
from repro.analysis.queueing import QueueEstimate, estimate
from repro.analysis.reporting import format_table

__all__ = [
    "CapacityResult",
    "stress_fill_infless",
    "stress_fill_uniform",
    "stress_capacity",
    "ABLATION_VARIANTS",
    "ablation_study",
    "build_engine_variant",
    "throughput_drops",
    "CostModelTable4",
    "CostReport",
    "PlanEntry",
    "SLOPlanner",
    "QueueEstimate",
    "estimate",
    "format_table",
]
