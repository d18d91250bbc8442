"""Tests for the trace-level cold-start policy evaluation (Fig. 16)."""

import pytest

from repro.core import FixedKeepAlive, HybridHistogramPolicy, build_coldstart_policy
from repro.core.coldstart import ColdStartDecision
from repro.simulation import compare_policies, evaluate_policy
from repro.workloads import coldstart_fleet_invocations


class StubPolicy:
    """Constant windows for deterministic counting tests."""

    name = "stub"

    def __init__(self, prewarm=0.0, keepalive=100.0):
        self.decision = ColdStartDecision(prewarm, keepalive)

    def record_invocation(self, function_name, now):
        pass

    def windows(self, function_name, now):
        return self.decision


class TestEvaluatePolicyCounting:
    def test_first_invocation_always_cold(self):
        ev = evaluate_policy(StubPolicy(), {"f": [0.0]})
        assert ev.invocations == 1
        assert ev.cold_starts == 1

    def test_covered_gaps_warm(self):
        ev = evaluate_policy(StubPolicy(keepalive=100.0), {"f": [0.0, 50.0, 120.0]})
        assert ev.cold_starts == 1  # only the first call

    def test_long_gap_cold(self):
        ev = evaluate_policy(StubPolicy(keepalive=100.0), {"f": [0.0, 500.0]})
        assert ev.cold_starts == 2

    def test_reserved_waste_accumulates(self):
        ev = evaluate_policy(StubPolicy(keepalive=100.0), {"f": [0.0, 50.0, 600.0]})
        # 50 s covered gap wastes 50; 550 s miss wastes the full window.
        assert ev.wasted_loaded_s == pytest.approx(50.0 + 100.0)

    def test_prewarm_gap_frees_quota(self):
        ev = evaluate_policy(
            StubPolicy(prewarm=30.0, keepalive=100.0), {"f": [0.0, 60.0]}
        )
        assert ev.wasted_loaded_s == 0.0
        assert ev.cold_starts == 1  # the 60 s gap hit the prefetched image

    def test_gap_shorter_than_prewarm_is_cold(self):
        ev = evaluate_policy(
            StubPolicy(prewarm=30.0, keepalive=100.0), {"f": [0.0, 10.0]}
        )
        assert ev.cold_starts == 2

    def test_per_function_breakdown(self):
        ev = evaluate_policy(StubPolicy(), {"a": [0.0, 10.0], "b": [0.0]})
        assert set(ev.per_function) == {"a", "b"}
        assert ev.invocations == 3

    def test_cold_start_rate(self):
        ev = evaluate_policy(StubPolicy(keepalive=100.0), {"f": [0.0, 50.0, 120.0, 130.0]})
        assert ev.cold_start_rate == pytest.approx(0.25)

    def test_empty_function_rate_zero(self):
        ev = evaluate_policy(StubPolicy(), {})
        assert ev.cold_start_rate == 0.0


class TestFig16Regression:
    """Locks in the paper-shaped deltas on the canonical fleet."""

    @pytest.fixture(scope="class")
    def fleet(self):
        # A slightly reduced fleet keeps the test fast while preserving
        # the composition of the full Fig. 16 benchmark.
        return coldstart_fleet_invocations(
            num_diurnal=5, num_sporadic=1, num_bursty=1, num_timer=4,
            duration_s=2 * 86400.0,
        )

    @pytest.fixture(scope="class")
    def evaluations(self, fleet):
        policies = [
            HybridHistogramPolicy(),
            build_coldstart_policy("lsth", gamma=0.5),
            FixedKeepAlive(600.0),
        ]
        results = compare_policies(policies, fleet)
        return {ev.policy: ev for ev in results}

    def test_lsth_fewer_cold_starts_than_hhp(self, evaluations):
        assert (
            evaluations["lsth-g0.5"].cold_start_rate
            < evaluations["hhp-4h"].cold_start_rate
        )

    def test_lsth_less_waste_than_hhp(self, evaluations):
        assert (
            evaluations["lsth-g0.5"].wasted_loaded_s
            < evaluations["hhp-4h"].wasted_loaded_s
        )

    def test_histogram_policies_beat_fixed_on_cold_starts(self, evaluations):
        assert (
            evaluations["hhp-4h"].cold_start_rate
            < evaluations["fixed-600s"].cold_start_rate
        )
