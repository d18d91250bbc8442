"""End-to-end integration scenarios across the whole stack."""

import pytest

from repro.baselines import BatchOTP, OpenFaaSPlus
from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.profiling import GroundTruthExecutor
from repro.simulation import ServingSimulation
from repro.workloads import build_osvt, build_qa_robot, constant_trace
from repro.workloads.generators import bursty_trace


def run_simulation(platform, app, trace, seed=9, warmup_s=30.0):
    for function in app.functions:
        platform.deploy(function)
    workload = {
        name: trace.with_mean(rps)
        for name, rps in app.rps_split(trace.mean_rps).items()
    }
    simulation = ServingSimulation(
        platform=platform,
        executor=GroundTruthExecutor(),
        workload=workload,
        warmup_s=warmup_s,
        seed=seed,
    )
    return simulation.run()


class TestMultiFunctionServing:
    def test_osvt_on_infless_meets_slo(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        report = run_simulation(
            engine, build_osvt(), constant_trace(240.0, 180.0)
        )
        assert report.violation_rate < 0.03
        assert report.drop_rate < 0.02
        assert set(report.per_function_violation) == {
            "osvt-ssd", "osvt-mobilenet", "osvt-resnet-50",
        }

    def test_qa_robot_tight_slo(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        report = run_simulation(
            engine, build_qa_robot(), constant_trace(600.0, 180.0)
        )
        assert report.violation_rate < 0.03
        assert report.latency_p99_s < 0.075  # 50 ms SLO + small tail

    def test_two_apps_share_one_cluster(self, predictor):
        cluster = build_testbed_cluster()
        engine = INFlessEngine(cluster, predictor=predictor)
        osvt, qa = build_osvt(), build_qa_robot()
        for function in list(osvt.functions) + list(qa.functions):
            engine.deploy(function)
        trace = constant_trace(200.0, 150.0)
        workload = {}
        workload.update(
            {n: trace.with_mean(r) for n, r in osvt.rps_split(180.0).items()}
        )
        workload.update(
            {n: trace.with_mean(r) for n, r in qa.rps_split(300.0).items()}
        )
        report = ServingSimulation(
            platform=engine,
            executor=GroundTruthExecutor(),
            workload=workload,
            warmup_s=30.0,
            seed=10,
        ).run()
        assert report.violation_rate < 0.05
        assert len(report.per_function_violation) == 6
        # Both apps' instances coexist on the shared cluster.
        assert cluster.weighted_used() > 0


class TestPlatformComparisonUnderBursts:
    @pytest.fixture(scope="class")
    def reports(self, predictor):
        trace = bursty_trace(
            300.0, 360.0, period_s=360.0, burst_rate_per_hour=40.0,
            burst_duration_s=30.0, seed=44,
        )
        out = {}
        for label, factory in (
            ("infless", lambda c: INFlessEngine(c, predictor=predictor)),
            ("batch", lambda c: BatchOTP(c, predictor)),
            ("openfaas+", lambda c: OpenFaaSPlus(c, predictor)),
        ):
            out[label] = run_simulation(
                factory(build_testbed_cluster()), build_osvt(), trace,
                warmup_s=45.0,
            )
        return out

    def test_infless_highest_normalized_throughput(self, reports):
        assert (
            reports["infless"].normalized_throughput
            >= reports["batch"].normalized_throughput
        )
        assert (
            reports["infless"].normalized_throughput
            > 2.0 * reports["openfaas+"].normalized_throughput
        )

    def test_all_platforms_complete_most_requests(self, reports):
        for label, report in reports.items():
            assert report.drop_rate < 0.10, label

    def test_infless_uses_batching_baselines_respect_design(self, reports):
        assert max(reports["infless"].batch_histogram) > 1
        assert max(reports["batch"].batch_histogram) > 1
        assert set(reports["openfaas+"].batch_histogram) == {1}


class TestScaleUpScaleDownCycle:
    def test_resource_footprint_follows_load(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        engine.deploy(fn)
        engine.control(fn.name, rps=3000.0, now=0.0)
        peak = engine.cluster.weighted_used()
        # Load collapses; after the keep-alive horizon resources shrink.
        for step in range(1, 40):
            engine.control(fn.name, rps=30.0, now=step * 30.0)
        settled = engine.cluster.weighted_used()
        assert settled < peak
        assert engine.capacity_rps(fn.name) >= 30.0
