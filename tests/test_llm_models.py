"""The autoregressive model zoo: cost shapes, KV math, sampling."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.models import resolve_model
from repro.models.llm import LLM_ZOO, LLMSpec, list_llm_models
from repro.models.zoo import MODEL_ZOO


# ----------------------------------------------------------------------
# catalog
# ----------------------------------------------------------------------
def test_zoo_has_three_models_disjoint_from_table1():
    assert sorted(LLM_ZOO) == ["llm-125m", "llm-1b", "llm-3b"]
    assert not set(LLM_ZOO) & set(MODEL_ZOO)


def test_list_llm_models_is_largest_first():
    params = [spec.params_millions for spec in list_llm_models()]
    assert params == sorted(params, reverse=True)


def test_resolve_model_spans_both_zoos():
    assert resolve_model("llm-1b") is LLM_ZOO["llm-1b"]
    assert resolve_model("resnet-50") is MODEL_ZOO["resnet-50"]
    with pytest.raises(KeyError, match="resnet-50"):
        resolve_model("nosuchmodel")


# ----------------------------------------------------------------------
# iteration cost shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", list(LLM_ZOO.values()), ids=lambda s: s.name)
def test_cost_shapes_are_linear_in_batch_tokens(spec):
    assert spec.prefill_time_s(100) == pytest.approx(
        spec.d0_prefill_s + 100 * spec.d1_prefill_s
    )
    assert spec.decode_time_s(8) == pytest.approx(
        spec.d0_decode_s + 8 * spec.d1_decode_s
    )
    # Doubling the batch less than doubles the iteration (d_0 amortizes).
    assert spec.decode_time_s(16) < 2 * spec.decode_time_s(8)


def test_kv_capacity_and_mb_are_inverses():
    spec = LLM_ZOO["llm-1b"]
    tokens = spec.kv_capacity_tokens(1000.0)
    assert tokens == int(1000.0 / spec.kv_mb_per_token)
    assert spec.kv_mb(tokens) <= 1000.0
    assert spec.kv_capacity_tokens(0.0) == 0
    assert spec.kv_capacity_tokens(-5.0) == 0


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _variant(spec: LLMSpec, **overrides) -> LLMSpec:
    return dataclasses.replace(spec, **overrides)


def test_spec_rejects_nonpositive_memory_shapes():
    base = LLM_ZOO["llm-125m"]
    with pytest.raises(ValueError, match="memory shapes"):
        _variant(base, weights_mb=0.0)
    with pytest.raises(ValueError, match="memory shapes"):
        _variant(base, kv_mb_per_token=-1.0)


def test_spec_rejects_nonpositive_cost_coefficients():
    base = LLM_ZOO["llm-125m"]
    with pytest.raises(ValueError, match="d1_decode_s"):
        _variant(base, d1_decode_s=0.0)


def test_spec_rejects_budget_smaller_than_one_prompt():
    base = LLM_ZOO["llm-125m"]
    with pytest.raises(ValueError, match="max_batch_tokens"):
        _variant(base, max_batch_tokens=base.max_prompt_tokens - 1)


# ----------------------------------------------------------------------
# length sampling
# ----------------------------------------------------------------------
def test_sampling_is_deterministic_per_seed():
    spec = LLM_ZOO["llm-125m"]
    draw = lambda seed: [
        (
            spec.sample_prompt_tokens(rng),
            spec.sample_output_tokens(rng),
        )
        for rng in [np.random.default_rng(seed)]
        for _ in range(50)
    ]
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_samples_respect_bounds_and_rough_mean():
    spec = LLM_ZOO["llm-125m"]
    rng = np.random.default_rng(3)
    prompts = [spec.sample_prompt_tokens(rng) for _ in range(2000)]
    outputs = [spec.sample_output_tokens(rng) for _ in range(2000)]
    assert all(1 <= p <= spec.max_prompt_tokens for p in prompts)
    assert all(1 <= o <= spec.max_output_tokens for o in outputs)
    # Clipping pulls the mean slightly below the lognormal target.
    assert np.mean(prompts) == pytest.approx(
        spec.prompt_mean_tokens, rel=0.15
    )
    assert np.mean(outputs) == pytest.approx(
        spec.output_mean_tokens, rel=0.15
    )
