"""Fig. 12(b): normalized throughput across latency SLOs.

Stress capacity of OSVT at SLOs from 150 ms to 350 ms.  Paper: INFless
sustains 1.6x-3.5x the throughput of BATCH at every SLO setting, and
relaxing the SLO helps both systems.
"""

from _harness import emit, once

from repro.analysis import stress_capacity
from repro.analysis.reporting import format_table
from repro.api import make_platform
from repro.cluster import build_testbed_cluster
from repro.workloads import build_osvt

SLOS = (0.15, 0.20, 0.25, 0.30, 0.35)


def _sweep(predictor):
    table = {}
    for slo in SLOS:
        app = build_osvt(slo_s=slo)
        for label in ("infless", "batch"):
            table[(slo, label)] = stress_capacity(
                make_platform(label, build_testbed_cluster(), predictor),
                app.functions,
            )
    return table


def test_fig12b_throughput_across_slos(benchmark, predictor):
    table = once(benchmark, lambda: _sweep(predictor))
    rows = []
    for slo in SLOS:
        infless = table[(slo, "infless")]
        batch = table[(slo, "batch")]
        rows.append(
            [f"{slo * 1e3:.0f}ms",
             f"{infless.max_app_rps:,.0f}",
             f"{batch.max_app_rps:,.0f}",
             f"{infless.max_app_rps / batch.max_app_rps:.2f}x"]
        )
    emit(
        "fig12b_throughput_across_slos",
        format_table(["SLO", "infless RPS", "batch RPS", "gain"], rows)
        + "\n\npaper: INFless 1.6x-3.5x over BATCH across SLO settings",
    )
    for slo in SLOS:
        assert (
            table[(slo, "infless")].max_app_rps
            > table[(slo, "batch")].max_app_rps
        ), slo
    # Relaxing the SLO never hurts INFless's achievable throughput much.
    tight = table[(SLOS[0], "infless")].max_app_rps
    relaxed = table[(SLOS[-1], "infless")].max_app_rps
    assert relaxed >= 0.9 * tight
