"""Tests for the large-scale simulation helpers (section 5.3)."""

import pytest

from repro.baselines import BatchOTP
from repro.cluster import build_testbed_cluster
from repro.core import INFlessEngine
from repro.simulation import (
    largescale_capacity,
    make_function_fleet,
    scheduling_overhead_curve,
    throughput_vs_slo,
)


class TestFleetConstruction:
    def test_count_respected(self):
        assert len(make_function_fleet(17)) == 17

    def test_models_cycle_zoo(self):
        fleet = make_function_fleet(22)
        assert len({fn.model.name for fn in fleet}) == 11

    def test_unique_names(self):
        fleet = make_function_fleet(40)
        assert len({fn.name for fn in fleet}) == 40

    def test_large_models_get_relaxed_slos(self):
        for fn in make_function_fleet(40):
            if fn.model.gflops >= 4.0:
                assert fn.slo_s >= 0.15

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            make_function_fleet(0)


class TestLargeCluster:
    def test_scales_out_testbed_servers(self):
        cluster = build_testbed_cluster(num_servers=50)
        assert len(cluster) == 50
        assert cluster.servers[0].cpu_capacity == 16


class TestSchedulingOverhead:
    def test_overhead_curve_shape(self, predictor):
        points = scheduling_overhead_curve(
            [20, 100], num_servers=100, num_functions=10, predictor=predictor
        )
        assert [p.instances for p in points] == [20, 100]
        assert points[0].total_overhead_s < points[1].total_overhead_s

    def test_per_instance_overhead_milliseconds(self, predictor):
        """Fig. 17(a): scheduling one instance takes ~O(1 ms)."""
        (point,) = scheduling_overhead_curve(
            [100], num_servers=200, num_functions=10, predictor=predictor
        )
        assert point.per_instance_ms < 20.0


class TestLargescaleCapacity:
    def test_infless_beats_batch_at_scale(self, predictor):
        small = dict(num_functions=12, num_servers=40)
        infless = largescale_capacity(
            lambda c: INFlessEngine(c, predictor=predictor), **small
        )
        batch = largescale_capacity(
            lambda c: BatchOTP(c, predictor), **small
        )
        assert (
            infless.throughput_per_resource > batch.throughput_per_resource
        )

    def test_fragments_lower_for_infless_at_saturation(self, predictor):
        """Fig. 17(b): INFless leaves fewer fragments when saturated."""
        from repro.analysis import stress_capacity
        from repro.simulation import make_function_fleet

        functions = make_function_fleet(8)
        infless = stress_capacity(
            INFlessEngine(build_testbed_cluster(20), predictor=predictor),
            functions,
        )
        batch = stress_capacity(
            BatchOTP(build_testbed_cluster(20), predictor), functions
        )
        # Comparable or lower fragments while sustaining a higher rate.
        assert infless.fragment_ratio <= batch.fragment_ratio + 0.05
        assert infless.max_app_rps > batch.max_app_rps

    def test_throughput_vs_slo_monotone_for_infless(self, predictor):
        """Fig. 18(b): relaxing the SLO raises throughput/resource."""
        series = throughput_vs_slo(
            {"infless": lambda c: INFlessEngine(c, predictor=predictor)},
            slos=(0.15, 0.3),
            num_functions=8,
            num_servers=30,
        )["infless"]
        tight = series[0][1].throughput_per_resource
        relaxed = series[1][1].throughput_per_resource
        assert relaxed >= tight * 0.95  # allow noise, expect improvement
