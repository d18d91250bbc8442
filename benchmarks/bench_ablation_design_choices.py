"""Ablations of this reproduction's own design choices (DESIGN.md §4).

Beyond the paper's BB/RS/OP ablation (Fig. 11), DESIGN.md documents
engineering decisions whose effect should be measurable:

* **dynamic beta** -- re-pricing CPU vs GPU by remaining scarcity;
* **fragmentation floor** -- bounding Eq. 10's packing boost;
* **alpha** -- the dispatcher's oscillation-damping constant (paper
  default 0.8);
* **operator fusion** -- the serving-runtime pass that removes
  elementwise dispatch overhead.
"""

from _harness import emit, once, split_trace

from repro.analysis import stress_capacity
from repro.analysis.reporting import format_table
from repro.api import Experiment, make_platform
from repro.cluster import build_testbed_cluster
from repro.core import INFlessEngine
from repro.core.efficiency import FRAGMENTATION_FLOOR
from repro.models import MODEL_ZOO
from repro.ops.fusion import fusion_report
from repro.workloads import build_osvt, build_qa_robot
from repro.workloads.generators import bursty_trace


def test_ablation_dynamic_beta(benchmark, predictor):
    """Scarcity-aware beta should match or beat the static ratio."""

    def run():
        rows = {}
        for label, dynamic in (("dynamic", True), ("static", False)):
            totals = {}
            for app_name, build in (("OSVT", build_osvt), ("QA", build_qa_robot)):
                engine = INFlessEngine(
                    build_testbed_cluster(), predictor=predictor
                )
                engine.scheduler.dynamic_beta = dynamic
                totals[app_name] = stress_capacity(
                    engine, build().functions
                ).max_app_rps
            rows[label] = totals
        return rows

    rows = once(benchmark, run)
    table = [
        [label, f"{totals['OSVT']:,.0f}", f"{totals['QA']:,.0f}"]
        for label, totals in rows.items()
    ]
    emit(
        "ablation_dynamic_beta",
        format_table(["beta", "OSVT max RPS", "QA max RPS"], table),
    )
    for app_name in ("OSVT", "QA"):
        assert rows["dynamic"][app_name] >= 0.95 * rows["static"][app_name]


def test_ablation_fragmentation_floor(benchmark, predictor):
    """An unclamped Eq. 10 lets server-fillers beat dense configs."""
    import repro.core.efficiency as efficiency

    def run():
        results = {}
        for label, floor in (("clamped", FRAGMENTATION_FLOOR), ("literal", 1e-6)):
            original = efficiency.FRAGMENTATION_FLOOR
            efficiency.FRAGMENTATION_FLOOR = floor
            try:
                platform = make_platform(
                    "infless", build_testbed_cluster(), predictor
                )
                results[label] = stress_capacity(
                    platform, build_osvt().functions
                ).max_app_rps
            finally:
                efficiency.FRAGMENTATION_FLOOR = original
        return results

    results = once(benchmark, run)
    emit(
        "ablation_fragmentation_floor",
        format_table(
            ["eq10 variant", "OSVT max RPS"],
            [[label, f"{value:,.0f}"] for label, value in results.items()],
        )
        + "\n\n'literal' reads Eq. 10 with an unbounded packing boost",
    )
    assert results["clamped"] >= results["literal"]


def test_ablation_alpha_damping(benchmark, predictor):
    """The paper's alpha=0.8 damps scaling churn under bursty load."""

    def run():
        app = build_osvt()
        trace = bursty_trace(
            360.0, 360.0, period_s=360.0, burst_rate_per_hour=40.0,
            burst_duration_s=30.0, seed=51,
        )
        workload = split_trace(app, trace)
        results = {}
        for alpha in (0.0, 0.8, 1.0):
            experiment = Experiment(
                platform="infless", predictor=predictor,
                platform_options={"alpha": alpha}, functions=app.functions,
                workload=workload, warmup_s=45.0, seed=14,
            )
            report = experiment.run()
            results[alpha] = (
                experiment.platform.autoscaler.stats.releases,
                report.violation_rate,
                report.normalized_throughput,
            )
        return results

    results = once(benchmark, run)
    rows = [
        [alpha, releases, f"{viol:.2%}", f"{norm:.2f}"]
        for alpha, (releases, viol, norm) in results.items()
    ]
    emit(
        "ablation_alpha_damping",
        format_table(
            ["alpha", "instance releases", "violations", "thpt/resource"],
            rows,
        )
        + "\n\nalpha=0 scales in eagerly (churn); alpha=1 never scales in"
          " until load drops below R_min",
    )
    # Less damping (alpha -> 0) must not churn less than the default.
    assert results[0.0][0] >= results[0.8][0]


def test_ablation_operator_fusion(benchmark):
    """Fusion removes dispatch overhead without changing the work."""

    def run():
        return {name: fusion_report(model.graph)
                for name, model in MODEL_ZOO.items()}

    reports = once(benchmark, run)
    rows = []
    for name, report in sorted(reports.items()):
        saved = (
            report["dispatch_overhead_before_s"]
            - report["dispatch_overhead_after_s"]
        )
        rows.append(
            [name, report["calls_before"], report["calls_after"],
             f"{saved * 1e3:.2f} ms"]
        )
    emit(
        "ablation_operator_fusion",
        format_table(
            ["model", "calls before", "calls after", "dispatch saved/batch"],
            rows,
        ),
    )
    assert any(
        report["calls_after"] < report["calls_before"]
        for report in reports.values()
    )
    for report in reports.values():
        assert report["gflops_after"] == (
            __import__("pytest").approx(report["gflops_before"])
        )
