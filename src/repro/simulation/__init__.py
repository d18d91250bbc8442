"""Discrete-event serving simulation.

Replays arrival traces against a serving platform (INFless or a
baseline), advancing time through a classic event heap.  Requests flow
arrival -> dispatch -> per-instance batch queue -> execution ->
completion, with the end-to-end latency decomposed exactly as in the
paper: ``l = t_cold + t_batch + t_exec``.
"""

from repro.simulation.events import Event, EventKind
from repro.simulation.engine import EventBudgetExceeded, EventLoop
from repro.simulation.metrics import (
    METRICS_MODES,
    MetricsCollector,
    RequestRecord,
    SimulationReport,
)
from repro.simulation.sketches import QuantileSketch
from repro.simulation.platform import ServingPlatform
from repro.simulation.runtime import ServingSimulation, Request
from repro.simulation.coldstart_eval import (
    PolicyEvaluation,
    compare_policies,
    evaluate_policy,
)
from repro.simulation.largescale import (
    build_large_cluster,
    make_function_fleet,
    scheduling_overhead_curve,
    largescale_capacity,
    throughput_vs_functions,
    throughput_vs_slo,
)

__all__ = [
    "Event",
    "EventKind",
    "EventBudgetExceeded",
    "EventLoop",
    "METRICS_MODES",
    "MetricsCollector",
    "QuantileSketch",
    "RequestRecord",
    "SimulationReport",
    "ServingPlatform",
    "ServingSimulation",
    "Request",
    "PolicyEvaluation",
    "compare_policies",
    "evaluate_policy",
    "build_large_cluster",
    "make_function_fleet",
    "scheduling_overhead_curve",
    "largescale_capacity",
    "throughput_vs_functions",
    "throughput_vs_slo",
]
