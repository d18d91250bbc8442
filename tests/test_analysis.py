"""Tests for capacity analysis, the cost model and report formatting."""

import pytest

from repro.analysis import (
    CostModelTable4,
    format_table,
    stress_capacity,
)
from repro.analysis.capacity import CapacityResult
from repro.analysis.reporting import banner
from repro.baselines import BatchOTP, OpenFaaSPlus
from repro.cluster import build_testbed_cluster
from repro.core import INFlessEngine
from repro.workloads import build_qa_robot


class TestCapacityResult:
    def test_bottleneck_defines_app_rate(self):
        result = CapacityResult(
            platform="x",
            per_function_rps={"a": 300.0, "b": 100.0},
            shares={"a": 0.5, "b": 0.5},
        )
        assert result.max_app_rps == pytest.approx(200.0)

    def test_share_weighting(self):
        result = CapacityResult(
            platform="x",
            per_function_rps={"a": 300.0, "b": 100.0},
            shares={"a": 0.75, "b": 0.25},
        )
        assert result.max_app_rps == pytest.approx(400.0)

    def test_empty_result(self):
        assert CapacityResult(platform="x").max_app_rps == 0.0

    def test_throughput_per_resource(self):
        result = CapacityResult(
            platform="x",
            per_function_rps={"a": 100.0},
            shares={"a": 1.0},
            weighted_resources_used=50.0,
        )
        assert result.throughput_per_resource == pytest.approx(2.0)


class TestStressCapacity:
    def test_balanced_fill_equalises_functions(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        app = build_qa_robot()
        result = stress_capacity(engine, app.functions)
        values = list(result.per_function_rps.values())
        assert min(values) > 0
        # balanced within one instance's capacity of each other
        assert max(values) / min(values) < 1.5

    def test_infless_beats_uniform_baselines_on_qa(self, predictor):
        app = build_qa_robot()
        results = {}
        for name, factory in [
            ("infless", lambda c: INFlessEngine(c, predictor=predictor)),
            ("batch", lambda c: BatchOTP(c, predictor)),
            ("openfaas", lambda c: OpenFaaSPlus(c, predictor)),
        ]:
            results[name] = stress_capacity(
                factory(build_testbed_cluster()), app.functions
            )
        assert results["infless"].max_app_rps > results["batch"].max_app_rps
        assert results["batch"].max_app_rps > results["openfaas"].max_app_rps

    def test_config_counts_recorded(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        result = stress_capacity(engine, build_qa_robot().functions)
        assert sum(result.config_counts.values()) == result.instances
        assert result.instances > 0

    def test_fragment_ratio_reported(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        result = stress_capacity(engine, build_qa_robot().functions)
        assert 0.0 <= result.fragment_ratio <= 1.0


class TestCostModelTable4:
    def test_per_request_cost_formula(self):
        model = CostModelTable4(cpu_price_per_hour=0.034, gpu_price_per_hour=2.5)
        cost = model.per_request_cost(cpus_per_100rps=13.91, gpus_per_100rps=0.51)
        # 100 RPS = 360,000 requests/hour.
        expected = (13.91 * 0.034 + 0.51 * 2.5) / 360_000
        assert cost == pytest.approx(expected)

    def test_paper_infless_row_magnitude(self):
        model = CostModelTable4()
        report = model.report("infless", 13.91, 0.51)
        assert report.cost_per_request < 1e-5  # paper: 1.6e-6 scale

    def test_report_from_usage_scales(self):
        model = CostModelTable4()
        report = model.report_from_usage("x", cpu_cores=50.0, gpus=2.0,
                                         served_rps=500.0)
        assert report.cpus_per_100rps == pytest.approx(10.0)
        assert report.gpus_per_100rps == pytest.approx(0.4)

    def test_zero_rps_rejected(self):
        with pytest.raises(ValueError):
            CostModelTable4().report_from_usage("x", 1.0, 1.0, 0.0)

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            CostModelTable4(cpu_price_per_hour=-1.0)

    def test_daily_bill(self):
        model = CostModelTable4(cpu_price_per_hour=0.05, gpu_price_per_hour=2.0)
        assert model.daily_bill(cpu_cores=10.0, gpus=1.0) == pytest.approx(
            24 * (0.5 + 2.0)
        )


class TestReporting:
    def test_format_table_aligns_columns(self):
        text = format_table(["name", "value"], [["a", 1], ["long-name", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "long-name" in lines[3]

    def test_format_table_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_banner(self):
        text = banner("Title")
        assert "Title" in text
        assert "=" in text
