"""Unit tests for resource vectors and the beta conversion factor."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster.resources import (
    BETA,
    BETA_FLOPS,
    CPU_CORE_GFLOPS,
    GPU_UNIT_GFLOPS,
    ResourceVector,
    scarcity_beta,
    weighted_cost,
)

vectors = st.builds(
    ResourceVector,
    cpu=st.integers(0, 64),
    gpu=st.integers(0, 400),
    memory_mb=st.integers(0, 1 << 20),
)


class TestResourceVector:
    def test_default_is_zero(self):
        assert ResourceVector().is_zero()

    def test_negative_cpu_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(cpu=-1)

    def test_negative_gpu_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(gpu=-5)

    def test_negative_memory_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(memory_mb=-1)

    def test_addition(self):
        total = ResourceVector(1, 10, 100) + ResourceVector(2, 20, 200)
        assert total == ResourceVector(3, 30, 300)

    def test_subtraction(self):
        left = ResourceVector(4, 40, 400) - ResourceVector(1, 10, 100)
        assert left == ResourceVector(3, 30, 300)

    def test_subtraction_below_zero_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 0, 0) - ResourceVector(2, 0, 0)

    def test_weighted_matches_formula(self):
        vec = ResourceVector(cpu=4, gpu=30)
        assert vec.weighted() == pytest.approx(BETA * 4 + 30)

    def test_weighted_custom_beta(self):
        assert ResourceVector(cpu=2, gpu=10).weighted(beta=1.0) == 12.0

    @given(a=vectors, b=vectors)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(a=vectors, b=vectors)
    def test_add_then_subtract_roundtrips(self, a, b):
        assert (a + b) - b == a


class TestBeta:
    def test_flops_beta_matches_hardware_constants(self):
        assert BETA_FLOPS == pytest.approx(CPU_CORE_GFLOPS / GPU_UNIT_GFLOPS)

    def test_default_beta_is_testbed_scarcity(self):
        # 16 cores vs 2 GPUs x 100 SM-percent per server.
        assert BETA == pytest.approx(200 / 16)

    def test_scarcity_beta_balances_server_dimensions(self):
        beta = scarcity_beta(16, 200)
        assert 16 * beta == pytest.approx(200)

    def test_scarcity_beta_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            scarcity_beta(0, 200)

    def test_weighted_cost_helper(self):
        assert weighted_cost(2, 30, beta=10.0) == pytest.approx(50.0)
