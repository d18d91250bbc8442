"""Fig. 12(a): normalized throughput under the production traces.

Replays sporadic / periodic / bursty traces (Fig. 10) through the
discrete-event runtime for all three platforms and reports throughput
per unit of occupied resource.  Paper: INFless gains 4.3x/3.4x/3.6x
over OpenFaaS+ and 2.6x/1.8x/2.2x over BATCH on the three trace types.
"""

from _harness import emit, once, split_trace

from repro.analysis.reporting import format_table
from repro.api import Experiment
from repro.workloads import build_osvt
from repro.workloads.generators import (
    bursty_trace,
    periodic_trace,
    sporadic_trace,
)

MEAN_RPS = 420.0
DURATION_S = 600.0
WARMUP_S = 60.0


def _short_horizon_traces():
    """The Fig. 10 trio compressed into a simulable horizon.

    The day-scale generator defaults would leave a 10-minute window
    mostly flat (or, for sporadic, possibly empty), so the periodicity
    and spike spacing are scaled down with the horizon.
    """
    return {
        "sporadic": sporadic_trace(
            MEAN_RPS, DURATION_S, active_fraction=0.3,
            spike_duration_s=45.0, seed=23,
        ),
        "periodic": periodic_trace(
            MEAN_RPS, DURATION_S, period_s=DURATION_S, seed=21,
        ),
        "bursty": bursty_trace(
            MEAN_RPS, DURATION_S, period_s=DURATION_S,
            burst_rate_per_hour=30.0, burst_duration_s=40.0, seed=22,
        ),
    }


def _run_all(predictor):
    table = {}
    for trace_name, trace in _short_horizon_traces().items():
        app = build_osvt()
        workload = split_trace(app, trace)
        for label in ("infless", "batch", "openfaas+"):
            table[(trace_name, label)] = Experiment(
                platform=label, predictor=predictor, functions=app.functions,
                workload=workload, warmup_s=WARMUP_S, seed=5,
            ).run()
    return table


def test_fig12a_normalized_throughput_across_traces(benchmark, predictor):
    table = once(benchmark, lambda: _run_all(predictor))
    rows = []
    for trace_name in ("sporadic", "periodic", "bursty"):
        infless = table[(trace_name, "infless")]
        for label in ("infless", "batch", "openfaas+"):
            report = table[(trace_name, label)]
            gain = (
                infless.normalized_throughput / report.normalized_throughput
                if report.normalized_throughput else float("inf")
            )
            rows.append(
                [trace_name, label,
                 f"{report.normalized_throughput:.2f}",
                 f"{report.violation_rate:.2%}",
                 f"{gain:.2f}x"]
            )
    emit(
        "fig12a_normalized_throughput_traces",
        format_table(
            ["trace", "system", "thpt/resource", "SLO violations", "infless gain"],
            rows,
        )
        + "\n\npaper: gains of 4.3/3.4/3.6x vs OpenFaaS+ and 2.6/1.8/2.2x vs"
          " BATCH under sporadic/periodic/bursty loads",
    )
    for trace_name in ("sporadic", "periodic", "bursty"):
        infless = table[(trace_name, "infless")].normalized_throughput
        batch = table[(trace_name, "batch")].normalized_throughput
        openfaas = table[(trace_name, "openfaas+")].normalized_throughput
        assert infless > batch, trace_name
        assert infless > 2.0 * openfaas, trace_name
