"""Fig. 11: maximum throughput and the component ablation.

Stress-tests OSVT and the Q&A robot on the 8-server testbed.  INFless
should beat OpenFaaS+ by a large factor and BATCH by a solid margin
(paper: 5.2x and 2.6x on average), and disabling each component must
cost throughput, with built-in batching (BB) costing the most.
"""

from _harness import emit, once

from repro.analysis import (
    ablation_study,
    stress_capacity,
    throughput_drops,
)
from repro.analysis.reporting import format_table
from repro.api import make_platform
from repro.cluster import build_testbed_cluster
from repro.workloads import build_osvt, build_qa_robot

APPS = (("OSVT", build_osvt), ("QA-robot", build_qa_robot))


def _systems_comparison(predictor):
    rows = []
    ratios = {}
    for app_name, build in APPS:
        results = {
            label: stress_capacity(
                make_platform(label, build_testbed_cluster(), predictor),
                build().functions,
            )
            for label in ("infless", "batch", "openfaas+")
        }
        infless = results["infless"].max_app_rps
        for label, result in results.items():
            rows.append(
                [app_name, label, f"{result.max_app_rps:,.0f}",
                 f"{infless / result.max_app_rps:.2f}x"]
            )
        ratios[app_name] = (
            infless / results["batch"].max_app_rps,
            infless / results["openfaas+"].max_app_rps,
        )
    return rows, ratios


def test_fig11_system_throughput(benchmark, predictor):
    rows, ratios = once(benchmark, lambda: _systems_comparison(predictor))
    emit(
        "fig11_system_throughput",
        format_table(["app", "system", "max RPS", "infless gain"], rows)
        + "\n\npaper: INFless ~5.2x over OpenFaaS+ and ~2.6x over BATCH on average",
    )
    for app_name, (vs_batch, vs_openfaas) in ratios.items():
        assert vs_batch > 1.05, app_name
        assert vs_openfaas > 3.0, app_name


def test_fig11_component_ablation(benchmark, predictor):
    def run():
        table = {}
        for app_name, build in APPS:
            results = ablation_study(
                predictor, build().functions, build_testbed_cluster
            )
            table[app_name] = (results, throughput_drops(results))
        return table

    table = once(benchmark, run)
    rows = []
    for app_name, (results, drops) in table.items():
        rows.append([app_name, "full", f"{results['full'].max_app_rps:,.0f}", "--"])
        for variant, drop in drops.items():
            rows.append(
                [app_name, variant,
                 f"{results[variant].max_app_rps:,.0f}", f"-{drop:.1%}"]
            )
    emit(
        "fig11_component_ablation",
        format_table(["app", "variant", "max RPS", "throughput drop"], rows)
        + "\n\npaper drops -- OSVT: BB 45.6%, OP 35.4%, RS 21.9%;"
          " QA: BB 60%, OP 34.3%, RS 7%",
    )
    for app_name, (_results, drops) in table.items():
        # BB contributes the most (paper's headline for this figure).
        assert drops["no-bb"] == max(drops.values()), app_name
        assert drops["op2"] > drops["op1.5"] > 0, app_name
