"""Extension: service continuity across machine failures.

Not a paper artifact -- an operational property a production INFless
deployment needs.  A machine is lost mid-run; the auto-scaler must
re-provision the missing capacity on the survivors within a few control
periods, losing only the in-flight batches.
"""

import numpy as np
from _harness import emit, once

from repro.analysis.reporting import format_table
from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.faults import FaultPlan, ServerCrash
from repro.profiling import GroundTruthExecutor
from repro.simulation import ServingSimulation
from repro.workloads import constant_trace

FAIL_AT_S = 90.0
DURATION_S = 180.0
RPS = 500.0


def _run(predictor, inject):
    engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
    function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    engine.deploy(function)
    simulation = ServingSimulation(
        platform=engine,
        executor=GroundTruthExecutor(),
        workload={function.name: constant_trace(RPS, DURATION_S)},
        warmup_s=30.0,
        faults=(
            FaultPlan(events=(ServerCrash(at_s=FAIL_AT_S, server_id=0),))
            if inject
            else None
        ),
        seed=18,
    )
    report = simulation.run()
    timeline = simulation.metrics.usage_timeline()
    return report, timeline, engine


def test_failure_recovery(benchmark, predictor):
    def run():
        baseline, _tl, _e = _run(predictor, inject=False)
        faulted, timeline, engine = _run(predictor, inject=True)
        return baseline, faulted, timeline, engine

    baseline, faulted, timeline, engine = once(benchmark, run)
    post = [v for t, v in timeline if t > FAIL_AT_S + 10]
    rows = [
        ["completed", baseline.completed, faulted.completed],
        ["drop rate", f"{baseline.drop_rate:.2%}", f"{faulted.drop_rate:.2%}"],
        ["violations", f"{baseline.violation_rate:.2%}",
         f"{faulted.violation_rate:.2%}"],
        ["goodput RPS", f"{baseline.goodput_rps:.0f}",
         f"{faulted.goodput_rps:.0f}"],
    ]
    emit(
        "ext_failure_recovery",
        format_table(["metric", "no failure", "one machine lost"], rows)
        + f"\n\nusage after the failure recovers to {np.mean(post):.1f}"
          " weighted units; lost instances:"
          f" {engine.autoscaler.stats.failures}",
    )
    # The service loses at most a few percent of requests to the fault.
    assert faulted.completed > 0.95 * baseline.completed
    assert faulted.goodput_rps > 0.9 * baseline.goodput_rps
    assert engine.autoscaler.stats.failures >= 1
