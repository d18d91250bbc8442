"""Fig. 18: throughput per unit resource in the 2,000-server simulation.

(a) across fleet sizes (10-40 functions) and (b) across SLO settings,
each platform provisions a given fleet load and we compare the RPS
delivered per weighted resource unit.  Paper: INFless sustains ~2.6x
BATCH and ~4.2x OpenFaaS+, and benefits from relaxed SLOs.
"""

from functools import partial

from _harness import emit, once

from repro.analysis.reporting import format_table
from repro.api import make_platform
from repro.simulation import throughput_vs_functions, throughput_vs_slo

NUM_SERVERS = 400  # ample headroom for the fleet loads under test


def _factories(predictor):
    return {
        name: partial(make_platform, name, predictor=predictor)
        for name in ("infless", "batch", "openfaas+")
    }


def test_fig18a_throughput_vs_functions(benchmark, predictor):
    series = once(
        benchmark,
        lambda: throughput_vs_functions(
            _factories(predictor),
            function_counts=(10, 20, 30, 40),
            num_servers=NUM_SERVERS,
        ),
    )
    rows = []
    for label, points in series.items():
        for count, result in points:
            rows.append(
                [label, count, f"{result.total_rps:,.0f}",
                 f"{result.throughput_per_resource:.2f}"]
            )
    emit(
        "fig18a_throughput_vs_functions",
        format_table(["system", "functions", "load RPS", "thpt/resource"], rows)
        + "\n\npaper: INFless ~2.6x BATCH and ~4.2x OpenFaaS+ at scale",
    )
    for count_index in range(4):
        infless = series["infless"][count_index][1].throughput_per_resource
        batch = series["batch"][count_index][1].throughput_per_resource
        openfaas = series["openfaas+"][count_index][1].throughput_per_resource
        assert infless > 1.3 * batch
        assert infless > 3.0 * openfaas


def test_fig18b_throughput_vs_slo(benchmark, predictor):
    series = once(
        benchmark,
        lambda: throughput_vs_slo(
            _factories(predictor),
            slos=(0.15, 0.2, 0.25, 0.3),
            num_functions=20,
            num_servers=NUM_SERVERS,
        ),
    )
    rows = []
    for label, points in series.items():
        for slo, result in points:
            rows.append(
                [label, f"{slo * 1e3:.0f}ms",
                 f"{result.throughput_per_resource:.2f}"]
            )
    emit(
        "fig18b_throughput_vs_slo",
        format_table(["system", "SLO", "thpt/resource"], rows)
        + "\n\npaper: INFless rises from 0.7 to 1.0 (per-unit) as the SLO"
          " relaxes from 150 ms to 300 ms",
    )
    infless = [r.throughput_per_resource for _s, r in series["infless"]]
    batch = [r.throughput_per_resource for _s, r in series["batch"]]
    for i_val, b_val in zip(infless, batch):
        assert i_val > b_val
    # INFless's efficiency does not degrade as the SLO relaxes.
    assert infless[-1] >= 0.9 * infless[0]
