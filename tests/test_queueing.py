"""Tests for the analytic batch-service queueing model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.queueing import (
    estimate,
    mean_fill_wait,
    mean_queue_wait,
    utilisation,
)


class TestFormulas:
    def test_utilisation(self):
        assert utilisation(lam=40.0, batch=4, tau=0.05) == pytest.approx(0.5)

    def test_utilisation_validates(self):
        with pytest.raises(ValueError):
            utilisation(-1.0, 4, 0.05)

    def test_fill_wait_batch_one_is_zero(self):
        assert mean_fill_wait(100.0, 1, 1.0) == 0.0

    def test_fill_wait_average(self):
        # b=5 at 10 rps: mean of {0..4}/10 = 0.2 s.
        assert mean_fill_wait(10.0, 5, timeout=10.0) == pytest.approx(0.2)

    def test_fill_wait_capped_by_timeout(self):
        assert mean_fill_wait(1.0, 32, timeout=0.5) == 0.5

    def test_queue_wait_diverges_at_saturation(self):
        assert mean_queue_wait(80.0, 4, 0.05) == float("inf")

    def test_queue_wait_grows_with_load(self):
        light = mean_queue_wait(20.0, 4, 0.05)
        heavy = mean_queue_wait(70.0, 4, 0.05)
        assert heavy > light

    def test_estimate_total(self):
        point = estimate(lam=40.0, batch=4, tau=0.05, timeout=0.15)
        assert point.total_latency_s == pytest.approx(
            point.fill_wait_s + point.queue_wait_s + point.service_s
        )
        assert point.stable

    @given(
        lam=st.floats(1.0, 200.0),
        batch=st.sampled_from([1, 2, 4, 8, 16]),
        tau=st.floats(0.005, 0.08),
    )
    @settings(max_examples=80, deadline=None)
    def test_waits_are_non_negative(self, lam, batch, tau):
        point = estimate(lam, batch, tau, timeout=1.0)
        assert point.fill_wait_s >= 0
        assert point.queue_wait_s >= 0


class TestAgainstSimulation:
    """The analytic model must track the discrete-event runtime."""

    @pytest.mark.parametrize("lam,batch", [(60.0, 4), (120.0, 8)])
    def test_latency_matches_des(self, predictor, executor, lam, batch):
        from repro.cluster import build_testbed_cluster
        from repro.core import FunctionSpec, INFlessEngine
        from repro.profiling.configspace import ConfigSpace
        from repro.simulation import ServingSimulation
        from repro.workloads import constant_trace

        # Pin the platform to a single batch size so the DES realises
        # exactly the analytic operating point.
        engine = INFlessEngine(
            build_testbed_cluster(),
            predictor=predictor,
            config_space=ConfigSpace(max_batch=batch),
        )
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.3)
        engine.deploy(fn)
        report = ServingSimulation(
            platform=engine,
            executor=executor,
            workload={fn.name: constant_trace(lam, 90.0)},
            warmup_s=20.0,
            seed=19,
        ).run()
        # Use the batch size the platform actually served with.
        served_batch = max(report.batch_histogram,
                           key=report.batch_histogram.get)
        tau = report.mean_exec_s
        point = estimate(lam, served_batch, tau, timeout=0.3 - tau)
        # The analytic total is an upper bound (assembly overlaps
        # service in the runtime) that stays within ~2x of the
        # simulated mean, tightening as utilisation falls.
        assert point.total_latency_s >= report.latency_mean_s * 0.95
        assert point.total_latency_s <= report.latency_mean_s * 2.2
        # The load-independent components match closely.
        assert tau + point.fill_wait_s == pytest.approx(
            report.latency_mean_s, rel=0.45
        )
