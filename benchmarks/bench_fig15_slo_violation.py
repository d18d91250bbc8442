"""Fig. 15: SLO violations and the latency decomposition.

(a) INFless keeps the violation rate at or below a few percent across
trace types while the baselines violate more; (b)/(c) the latency
breakdown at 150 ms and 350 ms SLOs shows queueing time regulated to
roughly the same order as execution time.
"""

from _harness import emit, once, split_trace

from repro.analysis.reporting import format_table
from repro.api import Experiment
from repro.workloads import build_osvt
from repro.workloads.generators import bursty_trace, sporadic_trace

DURATION_S = 480.0
MEAN_RPS = 360.0


def _violations(predictor):
    traces = {
        "sporadic": sporadic_trace(
            MEAN_RPS, DURATION_S, active_fraction=0.3,
            spike_duration_s=45.0, seed=31,
        ),
        "bursty": bursty_trace(
            MEAN_RPS, DURATION_S, period_s=DURATION_S,
            burst_rate_per_hour=30.0, burst_duration_s=40.0, seed=32,
        ),
    }
    table = {}
    for trace_name, trace in traces.items():
        app = build_osvt()
        workload = split_trace(app, trace)
        for label in ("infless", "batch", "openfaas+"):
            table[(trace_name, label)] = Experiment(
                platform=label, predictor=predictor, functions=app.functions,
                workload=workload, warmup_s=60.0, seed=7,
            ).run()
    return table


def test_fig15a_slo_violation_rates(benchmark, predictor):
    table = once(benchmark, lambda: _violations(predictor))
    rows = [
        [trace, label, f"{report.violation_rate:.2%}",
         f"{report.drop_rate:.2%}"]
        for (trace, label), report in sorted(table.items())
    ]
    emit(
        "fig15a_slo_violation",
        format_table(["trace", "system", "violations", "drops"], rows)
        + "\n\npaper: INFless <=3.1% on average; baselines up to ~8%",
    )
    for trace in ("sporadic", "bursty"):
        infless = table[(trace, "infless")]
        # Paper: <=3.1% on average; allow a small margin on the
        # cold-start-heavy sporadic trace.
        assert infless.violation_rate <= 0.04, trace


def _breakdown(predictor, slo_s):
    app = build_osvt(slo_s=slo_s)
    trace = bursty_trace(
        MEAN_RPS, DURATION_S, period_s=DURATION_S,
        burst_rate_per_hour=30.0, burst_duration_s=40.0, seed=33,
    )
    return Experiment(
        platform="infless", predictor=predictor, functions=app.functions,
        workload=split_trace(app, trace), warmup_s=60.0, seed=8,
    ).run()


def test_fig15bc_latency_breakdown(benchmark, predictor):
    def run():
        return {slo: _breakdown(predictor, slo) for slo in (0.150, 0.350)}

    reports = once(benchmark, run)
    rows = []
    for slo, report in reports.items():
        rows.append(
            [f"{slo * 1e3:.0f}ms",
             f"{report.mean_cold_wait_s * 1e3:.1f}",
             f"{report.mean_queue_wait_s * 1e3:.1f}",
             f"{report.mean_exec_s * 1e3:.1f}",
             f"{report.latency_mean_s * 1e3:.1f}",
             f"{report.violation_rate:.2%}"]
        )
    emit(
        "fig15bc_latency_breakdown",
        format_table(
            ["SLO", "cold (ms)", "queue (ms)", "exec (ms)", "total (ms)",
             "violations"],
            rows,
        )
        + "\n\npaper: INFless regulates queueing time to roughly match"
          " execution time",
    )
    for slo, report in reports.items():
        # Queueing is the same order of magnitude as execution.
        assert report.mean_queue_wait_s < 3.0 * report.mean_exec_s, slo
        assert report.latency_mean_s <= slo, slo
