"""Fig. 14: resource provisioning over time, BATCH vs INFless.

Replays a rise-and-fall load for ResNet-50 and samples each platform's
occupied weighted resources.  INFless tracks the load closely (scaling
in quickly under its dynamic keep-alive), while BATCH's larger uniform
batches and fixed keep-alive hold more resources; the paper reports a
~60% provisioning reduction over the observation window.
"""

import numpy as np
from _harness import emit, once

from repro.analysis.reporting import format_table
from repro.api import Experiment
from repro.core import FunctionSpec
from repro.workloads import Trace

DURATION_S = 600.0


def _rise_fall_trace() -> Trace:
    """A load that climbs to a peak and falls back (one Fig. 14 period)."""
    t = np.arange(0.0, DURATION_S, 1.0)
    rps = 60.0 + 400.0 * np.exp(-0.5 * ((t - 240.0) / 90.0) ** 2)
    return Trace(name="rise-fall", step_s=1.0, rps=rps)


def _run(predictor):
    timelines = {}
    reports = {}
    for label in ("infless", "batch"):
        function = FunctionSpec.for_model("resnet-50", 0.2)
        experiment = Experiment(
            platform=label, predictor=predictor, functions=[function],
            workload={function.name: _rise_fall_trace()}, warmup_s=30.0,
            seed=6,
        )
        reports[label] = experiment.run()
        timelines[label] = experiment.simulation.metrics.usage_timeline()
    return timelines, reports


def test_fig14_provisioning_over_time(benchmark, predictor):
    timelines, reports = once(benchmark, lambda: _run(predictor))
    buckets = np.arange(0.0, DURATION_S + 1, 60.0)
    rows = []
    for start, end in zip(buckets[:-1], buckets[1:]):
        row = [f"{start:.0f}-{end:.0f}s"]
        for label in ("infless", "batch"):
            values = [v for t, v in timelines[label] if start <= t < end]
            row.append(f"{np.mean(values):.1f}" if values else "--")
        rows.append(row)
    infless_time = reports["infless"].resource_time_weighted
    batch_time = reports["batch"].resource_time_weighted
    reduction = 1 - infless_time / batch_time
    emit(
        "fig14_provisioning",
        format_table(["window", "infless usage", "batch usage"], rows)
        + f"\n\nresource-time: infless {infless_time:,.0f} vs batch"
          f" {batch_time:,.0f} weighted-seconds -> {reduction:.0%} reduction"
          "\npaper: ~60% less provisioned resources over the period",
    )
    assert reduction > 0.1
    assert reports["infless"].violation_rate < 0.05
