"""Exact vs sketch metrics modes, windowed arrivals, warmup-boundary fix."""

import json

import pytest

from repro.api import Experiment
from repro.core import FunctionSpec
from repro.simulation.metrics import MetricsCollector
from repro.workloads import bursty_trace, constant_trace


def _fig12_style_experiment(metrics_mode="exact", seed=9, **overrides):
    """A scaled-down Fig. 12-shaped run: bursty trace on INFless."""
    function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    trace = bursty_trace(
        120.0, 60.0, period_s=60.0,
        burst_rate_per_hour=30.0, burst_duration_s=10.0, seed=22,
    )
    params = dict(
        platform="infless",
        servers=4,
        functions=[function],
        workload={function.name: trace},
        warmup_s=5.0,
        metrics_mode=metrics_mode,
        seed=seed,
    )
    params.update(overrides)
    return Experiment(**params)


def _clean(report):
    return report.to_dict()


class TestSketchVsExact:
    def test_percentiles_within_one_percent(self):
        exact = _fig12_style_experiment("exact").run()
        sketch = _fig12_style_experiment("sketch").run()
        for field in ("latency_p50_s", "latency_p95_s", "latency_p99_s"):
            assert getattr(sketch, field) == pytest.approx(
                getattr(exact, field), rel=0.01
            ), field

    def test_counts_bit_equal_integrals_to_rounding(self):
        exact = _fig12_style_experiment("exact").run()
        sketch = _fig12_style_experiment("sketch").run()
        for field in (
            "arrived", "completed", "dropped", "slo_violations",
            "cold_starts", "launches", "warm_reuses",
        ):
            assert getattr(sketch, field) == getattr(exact, field), field
        for field in (
            # Running integrals and per-fold numpy sums vs the exact
            # path's one numpy reduction: same segments and rows, so
            # agreement to float rounding.
            "resource_time_weighted", "cpu_core_seconds", "gpu_seconds",
            "latency_mean_s", "mean_cold_wait_s", "mean_queue_wait_s",
            "mean_exec_s", "mean_weighted_usage", "peak_weighted_usage",
        ):
            assert getattr(sketch, field) == pytest.approx(
                getattr(exact, field), rel=1e-12, abs=1e-15
            ), field
        assert sketch.batch_histogram == exact.batch_histogram
        assert sketch.per_function_violation == exact.per_function_violation
        assert sketch.drop_reasons == exact.drop_reasons

    def test_exact_mode_report_unchanged(self):
        """Default-mode reports carry neither of the new fields."""
        payload = _clean(_fig12_style_experiment("exact").run())
        assert "metrics_mode" not in payload
        assert "latency_sketch" not in payload

    def test_sketch_mode_report_carries_sketch(self):
        payload = _clean(_fig12_style_experiment("sketch").run())
        assert payload["metrics_mode"] == "sketch"
        assert payload["latency_sketch"]["bins"]

    def test_sketch_keeps_no_records(self):
        experiment = _fig12_style_experiment("sketch")
        experiment.run()
        assert experiment.simulation.metrics.records == []

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MetricsCollector(metrics_mode="approximate")

    def test_llm_platform_rejects_sketch(self):
        function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
        with pytest.raises(ValueError):
            Experiment(
                platform="llm",
                servers=1,
                functions=[function],
                workload={function.name: constant_trace(5.0, 10.0)},
                metrics_mode="sketch",
                seed=1,
            ).build()


class TestWarmupBoundaryCarry:
    def test_pre_warmup_segment_clipped_not_dropped(self):
        """Regression: a sample-and-hold segment spanning the warmup
        boundary used to be dropped entirely; its post-warmup part
        must count.  Samples at t=0 and t=15 with warmup 10: the
        integral over [10, 15] is v0 * 5, not 0."""
        metrics = MetricsCollector(warmup_s=10.0)
        metrics.record_usage(0.0, 40.0, 8.0, 100.0, 0.0)
        metrics.record_usage(15.0, 60.0, 4.0, 50.0, 0.0)
        report = metrics.finalize(duration_s=15.0, warmup_s=10.0)
        assert report.resource_time_weighted == pytest.approx(40.0 * 5.0)
        assert report.cpu_core_seconds == pytest.approx(8.0 * 5.0)
        assert report.gpu_seconds == pytest.approx(100.0 * 5.0 / 100.0)

    def test_sample_on_boundary_unchanged(self):
        """A sample landing exactly on the warmup boundary needs no
        carry -- the historical (pre-fix) behaviour, preserved so the
        goldens with warmup do not move."""
        metrics = MetricsCollector(warmup_s=10.0)
        metrics.record_usage(0.0, 40.0, 8.0, 100.0, 0.0)
        metrics.record_usage(10.0, 60.0, 4.0, 50.0, 0.0)
        metrics.record_usage(15.0, 20.0, 2.0, 25.0, 0.0)
        report = metrics.finalize(duration_s=15.0, warmup_s=10.0)
        assert report.resource_time_weighted == pytest.approx(60.0 * 5.0)

    def test_sketch_mode_matches_exact_across_boundary(self):
        exact = MetricsCollector(warmup_s=10.0)
        sketch = MetricsCollector(metrics_mode="sketch", warmup_s=10.0)
        for collector in (exact, sketch):
            collector.record_usage(0.0, 40.0, 8.0, 100.0, 0.0)
            collector.record_usage(15.0, 60.0, 4.0, 50.0, 0.0)
        exact_report = exact.finalize(duration_s=15.0, warmup_s=10.0)
        sketch_report = sketch.finalize(duration_s=15.0, warmup_s=10.0)
        assert (sketch_report.resource_time_weighted
                == exact_report.resource_time_weighted)
        assert sketch_report.cpu_core_seconds == exact_report.cpu_core_seconds
        assert sketch_report.gpu_seconds == exact_report.gpu_seconds


class TestWindowedArrivals:
    def test_windowed_is_deterministic(self):
        first = _clean(
            _fig12_style_experiment(
                "sketch", arrival_mode="windowed", arrival_window_s=7.0
            ).run()
        )
        second = _clean(
            _fig12_style_experiment(
                "sketch", arrival_mode="windowed", arrival_window_s=7.0
            ).run()
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_windowed_statistically_close_to_eager(self):
        eager = _fig12_style_experiment("exact").run()
        windowed = _fig12_style_experiment(
            "exact", arrival_mode="windowed", arrival_window_s=10.0
        ).run()
        assert windowed.arrived == pytest.approx(eager.arrived, rel=0.1)
        assert windowed.latency_p50_s == pytest.approx(
            eager.latency_p50_s, rel=0.25
        )

    def test_unknown_arrival_mode_rejected(self):
        with pytest.raises(ValueError):
            _fig12_style_experiment("exact", arrival_mode="lazy").build()

    def test_llm_platform_rejects_windowed(self):
        function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
        with pytest.raises(ValueError):
            Experiment(
                platform="llm",
                servers=1,
                functions=[function],
                workload={function.name: constant_trace(5.0, 10.0)},
                arrival_mode="windowed",
                seed=1,
            ).build()


class TestSpecStability:
    def test_defaults_leave_spec_unchanged(self):
        spec = _fig12_style_experiment("exact").to_spec()
        assert "metrics_mode" not in spec
        assert "arrival_mode" not in spec

    def test_non_defaults_round_trip(self):
        experiment = _fig12_style_experiment(
            "sketch", arrival_mode="windowed", arrival_window_s=30.0
        )
        spec = experiment.to_spec()
        assert spec["metrics_mode"] == "sketch"
        assert spec["arrival_mode"] == "windowed"
        restored = Experiment.from_spec(spec)
        assert restored.metrics_mode == "sketch"
        assert restored.arrival_mode == "windowed"
        assert restored.arrival_window_s == 30.0
        assert _clean(restored.run()) == _clean(experiment.run())
