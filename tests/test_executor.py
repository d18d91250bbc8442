"""Unit tests for the ground-truth executor (the hardware stand-in)."""

import numpy as np
import pytest

from repro.models import get_model
from repro.ops.costmodel import HardwareSpec
from repro.profiling import GroundTruthExecutor


class TestMeanExecutionTime:
    def test_deterministic(self, executor):
        model = get_model("resnet-50")
        a = executor.mean_execution_time(model, 4, 2, 20)
        b = executor.mean_execution_time(model, 4, 2, 20)
        assert a == b

    def test_large_model_slow_on_small_cpu(self, executor):
        # Observation 1: big models cannot meet 200 ms on CPU quotas.
        bert = get_model("bert-v1")
        assert executor.mean_execution_time(bert, 1, 2, 0) > 0.2

    def test_gpu_rescues_large_model(self, executor):
        bert = get_model("bert-v1")
        assert executor.mean_execution_time(bert, 1, 2, 50) < 0.2

    def test_small_model_fast_everywhere(self, executor):
        mnist = get_model("mnist")
        assert executor.mean_execution_time(mnist, 1, 1, 0) < 0.05

    def test_batching_inflates_latency_on_cpu(self, executor):
        # Observation 2: OTP batching 4x-inflates small-model latency.
        ssd = get_model("ssd")
        single = executor.mean_execution_time(ssd, 1, 2, 0)
        batched = executor.mean_execution_time(ssd, 8, 2, 0)
        assert batched > 3 * single

    def test_branch_spill_penalises_branchy_models(self):
        no_spill = GroundTruthExecutor(
            HardwareSpec(branch_overlap_penalty=0.0, quirk_sigma=0.0)
        )
        spill = GroundTruthExecutor(
            HardwareSpec(branch_overlap_penalty=0.5, quirk_sigma=0.0)
        )
        lstm = get_model("lstm-2365")
        assert spill.mean_execution_time(lstm, 4, 2, 0) > no_spill.mean_execution_time(
            lstm, 4, 2, 0
        )

    def test_chain_models_unaffected_by_spill(self):
        no_spill = GroundTruthExecutor(
            HardwareSpec(branch_overlap_penalty=0.0, quirk_sigma=0.0)
        )
        spill = GroundTruthExecutor(
            HardwareSpec(branch_overlap_penalty=0.5, quirk_sigma=0.0)
        )
        resnet = get_model("resnet-50")
        assert spill.mean_execution_time(
            resnet, 4, 2, 0
        ) == pytest.approx(no_spill.mean_execution_time(resnet, 4, 2, 0))


class TestQuirks:
    def test_quirk_is_deterministic_per_config(self, executor):
        assert executor._quirk_factor("m", 4, 2, 20) == executor._quirk_factor(
            "m", 4, 2, 20
        )

    def test_quirk_differs_across_configs(self, executor):
        values = {
            executor._quirk_factor("m", b, c, g)
            for b, c, g in [(1, 1, 0), (2, 1, 0), (4, 2, 20), (8, 4, 50)]
        }
        assert len(values) > 1

    def test_quirk_respects_clip(self, executor):
        clip = executor.hardware.quirk_clip
        for b in range(1, 33):
            factor = executor._quirk_factor("m", b, 2, 20)
            assert 1 - clip <= factor <= 1 + clip

    def test_quirk_disabled_at_zero_sigma(self):
        quiet = GroundTruthExecutor(HardwareSpec(quirk_sigma=0.0))
        assert quiet._quirk_factor("m", 4, 2, 20) == 1.0


class TestNoisyExecution:
    def test_noisy_time_varies(self, executor):
        model = get_model("mobilenet")
        rng = np.random.default_rng(5)
        samples = {executor.execution_time(model, 1, 2, 0, rng) for _ in range(5)}
        assert len(samples) == 5

    def test_noisy_time_centred_on_mean(self, executor):
        model = get_model("mobilenet")
        rng = np.random.default_rng(5)
        mean = executor.mean_execution_time(model, 1, 2, 0)
        samples = [executor.execution_time(model, 1, 2, 0, rng) for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(mean, rel=0.01)
