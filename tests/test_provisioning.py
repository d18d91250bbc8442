"""Tests for fleet provisioning (the Fig. 18 methodology)."""

import pytest

from repro.baselines import BatchOTP
from repro.core import INFlessEngine
from repro.simulation import largescale_capacity, make_function_fleet
from repro.simulation.largescale import ProvisioningResult, function_loads


class TestFunctionLoads:
    def test_deterministic(self):
        fleet = make_function_fleet(6)
        assert function_loads(fleet, seed=3) == function_loads(fleet, seed=3)

    def test_within_spread(self):
        fleet = make_function_fleet(10)
        loads = function_loads(fleet, base_rps=100.0, spread=3.0)
        for value in loads.values():
            assert 100.0 <= value <= 300.0

    def test_one_load_per_function(self):
        fleet = make_function_fleet(7)
        assert set(function_loads(fleet)) == {fn.name for fn in fleet}


class TestProvisioningResult:
    def test_throughput_per_resource(self):
        result = ProvisioningResult(
            platform="x", loads={"a": 100.0, "b": 50.0},
            weighted_resources_used=30.0, fragment_ratio=0.1, instances=3,
        )
        assert result.total_rps == 150.0
        assert result.throughput_per_resource == pytest.approx(5.0)

    def test_zero_resources_safe(self):
        result = ProvisioningResult(
            platform="x", loads={}, weighted_resources_used=0.0,
            fragment_ratio=0.0, instances=0,
        )
        assert result.throughput_per_resource == 0.0


class TestLargescaleProvisioning:
    def test_provisions_every_function(self, predictor):
        result = largescale_capacity(
            lambda c: INFlessEngine(c, predictor=predictor),
            num_functions=6, num_servers=30,
        )
        assert len(result.loads) == 6
        assert result.instances >= 6
        assert result.weighted_resources_used > 0

    def test_platform_name_propagates(self, predictor):
        result = largescale_capacity(
            lambda c: BatchOTP(c, predictor), num_functions=4, num_servers=20
        )
        assert result.platform == "batch"

    def test_more_functions_use_more_resources(self, predictor):
        small = largescale_capacity(
            lambda c: INFlessEngine(c, predictor=predictor),
            num_functions=4, num_servers=40,
        )
        large = largescale_capacity(
            lambda c: INFlessEngine(c, predictor=predictor),
            num_functions=12, num_servers=40,
        )
        assert large.weighted_resources_used > small.weighted_resources_used
