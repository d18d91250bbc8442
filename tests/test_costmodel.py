"""Unit tests for the analytic operator cost model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ops.costmodel import (
    LOGNORMAL_DRAW_BLOCK,
    CostModel,
    HardwareSpec,
    LognormalStream,
    max_batch_for_model,
    proportional_cpu_quota,
)
from repro.ops.operator import OperatorSpec

MATMUL = OperatorSpec("MatMul", gflops_per_item=1.0)
RELU = OperatorSpec("Relu", gflops_per_item=1.0)


@pytest.fixture(scope="module")
def model():
    return CostModel()


class TestOperatorTime:
    def test_more_cpu_is_faster(self, model):
        assert model.operator_time(MATMUL, 1, 8, 0) < model.operator_time(
            MATMUL, 1, 1, 0
        )

    def test_more_gpu_is_faster(self, model):
        assert model.operator_time(MATMUL, 8, 1, 50) < model.operator_time(
            MATMUL, 8, 1, 10
        )

    def test_bigger_batch_takes_longer(self, model):
        assert model.operator_time(MATMUL, 16, 2, 20) > model.operator_time(
            MATMUL, 1, 2, 20
        )

    def test_bigger_batch_improves_throughput_on_gpu(self, model):
        small = 1 / model.operator_time(MATMUL, 1, 1, 20)
        large = 16 / model.operator_time(MATMUL, 16, 1, 20)
        assert large > small

    def test_memory_bound_op_caps_cpu_scaling(self, model):
        # Beyond the bandwidth cap, more cores change nothing.
        assert model.operator_time(RELU, 4, 8, 0) == pytest.approx(
            model.operator_time(RELU, 4, 16, 0)
        )

    def test_memory_bound_op_caps_gpu_scaling(self, model):
        assert model.operator_time(RELU, 4, 1, 50) == pytest.approx(
            model.operator_time(RELU, 4, 1, 100)
        )

    def test_dense_op_keeps_scaling(self, model):
        assert model.operator_time(MATMUL, 4, 1, 100) < model.operator_time(
            MATMUL, 4, 1, 50
        )

    def test_calls_multiply_dispatch_overhead(self, model):
        one = OperatorSpec("MatMul", gflops_per_item=1e-9, calls=1)
        many = OperatorSpec("MatMul", gflops_per_item=1e-9, calls=10)
        assert model.operator_time(many, 1, 1, 0) == pytest.approx(
            10 * model.operator_time(one, 1, 1, 0), rel=1e-3
        )

    def test_zero_batch_rejected(self, model):
        with pytest.raises(ValueError):
            model.operator_time(MATMUL, 0, 1, 0)

    def test_no_resources_rejected(self, model):
        with pytest.raises(ValueError):
            model.operator_time(MATMUL, 1, 0, 0)

    def test_gpu_only_instance_allowed(self, model):
        assert model.operator_time(MATMUL, 1, 0, 50) > 0

    @given(batch=st.integers(1, 64), cpu=st.integers(1, 16), gpu=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_time_always_positive(self, model, batch, cpu, gpu):
        assert model.operator_time(MATMUL, batch, cpu, gpu) > 0


class TestArrayOperatorTime:
    """The profiler prices whole grids in one call: arrays in, arrays out."""

    BATCH = np.array([1, 1, 4, 8, 32, 2])
    CPU = np.array([1, 8, 2, 1, 4, 0])
    GPU = np.array([0, 0, 20, 100, 50, 30])

    @pytest.mark.parametrize("spec", [MATMUL, RELU], ids=["compute", "membound"])
    def test_elements_equal_scalar_calls_bit_for_bit(self, model, spec):
        times = model.operator_time(spec, self.BATCH, self.CPU, self.GPU)
        assert isinstance(times, np.ndarray)
        scalar = [
            model.operator_time(spec, int(b), int(c), int(g))
            for b, c, g in zip(self.BATCH, self.CPU, self.GPU)
        ]
        assert all(type(value) is float for value in scalar)
        assert times.tolist() == scalar

    def test_scalar_and_array_arguments_broadcast(self, model):
        times = model.operator_time(MATMUL, 4, self.CPU[:4], 20)
        assert times.tolist() == [
            model.operator_time(MATMUL, 4, int(c), 20) for c in self.CPU[:4]
        ]

    def test_rejects_any_bad_batch(self, model):
        with pytest.raises(ValueError, match="batch"):
            model.operator_time(MATMUL, np.array([1, 0]), 1, 0)

    def test_rejects_any_resourceless_point(self, model):
        with pytest.raises(ValueError, match="CPU and/or GPU"):
            model.operator_time(MATMUL, 1, np.array([1, 0]), np.array([0, 0]))

    def test_array_noise_matches_scalar_draws(self, model):
        means = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
        drawn = model.sample_time(means, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        assert drawn.tolist() == [
            [model.sample_time(float(m), rng) for m in row] for row in means
        ]


class TestServingOverhead:
    def test_grows_linearly_with_batch(self, model):
        base = model.serving_overhead(1)
        assert model.serving_overhead(9) == pytest.approx(
            base + 8 * model.hardware.serving_per_item_s
        )


class TestNoise:
    def test_zero_sigma_is_identity(self):
        silent = CostModel(HardwareSpec(noise_sigma=0.0))
        rng = np.random.default_rng(0)
        assert silent.sample_time(0.5, rng) == 0.5

    def test_noise_has_unit_mean(self, model):
        rng = np.random.default_rng(1)
        samples = [model.sample_time(1.0, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.01)

    def test_noise_is_seed_deterministic(self, model):
        a = model.sample_time(1.0, np.random.default_rng(7))
        b = model.sample_time(1.0, np.random.default_rng(7))
        assert a == b

    def test_stream_hands_out_the_scalar_sequence(self, model):
        stream = LognormalStream(np.random.default_rng(5))
        scalar = np.random.default_rng(5)
        count = 2 * LOGNORMAL_DRAW_BLOCK + 3
        assert [model.sample_time(0.5, stream) for _ in range(count)] == [
            model.sample_time(0.5, scalar) for _ in range(count)
        ]

    def test_stream_draws_only_when_asked(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        LognormalStream(rng)
        assert rng.bit_generator.state == before

    def test_stream_refuses_new_parameters_inside_a_block(self):
        stream = LognormalStream(np.random.default_rng(5))
        stream.lognormal(0.0, 0.1)
        with pytest.raises(ValueError, match="inside a block"):
            stream.lognormal(0.0, 0.2)


class TestLambdaQuota:
    def test_one_vcpu_at_1769mb(self):
        assert proportional_cpu_quota(1769.0) == pytest.approx(1.0)

    def test_scales_linearly(self):
        assert proportional_cpu_quota(3538.0) == pytest.approx(2.0)

    def test_rejects_non_positive_memory(self):
        with pytest.raises(ValueError):
            proportional_cpu_quota(0.0)


class TestBatchHelpers:
    @pytest.mark.parametrize(
        "gflops,expected", [(25.0, 8), (5.0, 16), (3.9, 32), (0.01, 32)]
    )
    def test_max_batch_tiers(self, gflops, expected):
        assert max_batch_for_model(gflops) == expected

    def test_max_batch_rejects_zero(self):
        with pytest.raises(ValueError):
            max_batch_for_model(0.0)
