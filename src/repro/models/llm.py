"""Autoregressive (LLM) model specifications.

INFless predates LLM serving: its zoo models are single-shot,
fixed-cost graphs.  An autoregressive model instead runs a *prefill*
pass over the prompt and then one *decode* iteration per generated
token, with a KV cache that grows by one token per sequence per step.
Both phases follow the linear iteration-cost shape the vLLM-simulation
ground truth fits,

    T_iter = d_0 + d_1 * batch_tokens

where ``batch_tokens`` is the number of prompt tokens processed (for
prefill) or the number of resident sequences (for decode: one token
each).  The shapes are deterministic -- the linear fit *is* the ground
truth here, so seeded replays are bit-identical by construction.

Request lengths are drawn per arrival from lognormal distributions
(heavy-tailed, like production chat traffic) parameterised by mean and
coefficient of variation and clipped to the spec's maxima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np


@dataclass(frozen=True)
class LLMSpec:
    """An autoregressive model and its serving cost/memory shapes.

    Attributes:
        name: zoo identifier (e.g. ``"llm-1b"``).
        params_millions: parameter count, for reporting.
        description: one-line description.
        weights_mb: GPU memory the loaded weights occupy.
        kv_mb_per_token: KV-cache memory per resident token
            (``2 * layers * hidden * bytes`` for one K/V pair).
        d0_prefill_s: fixed overhead of one prefill iteration.
        d1_prefill_s: marginal seconds per prompt token prefetched.
        d0_decode_s: fixed overhead of one decode iteration.
        d1_decode_s: marginal seconds per resident sequence (one token
            each) in a decode iteration.
        max_batch_tokens: the per-iteration token budget ``B``.
        prompt_mean_tokens / prompt_cv / max_prompt_tokens: lognormal
            prompt-length distribution.
        output_mean_tokens / output_cv / max_output_tokens: lognormal
            output-length distribution.
    """

    name: str
    params_millions: float
    description: str
    weights_mb: float
    kv_mb_per_token: float
    d0_prefill_s: float
    d1_prefill_s: float
    d0_decode_s: float
    d1_decode_s: float
    max_batch_tokens: int
    prompt_mean_tokens: float
    prompt_cv: float
    max_prompt_tokens: int
    output_mean_tokens: float
    output_cv: float
    max_output_tokens: int

    def __post_init__(self) -> None:
        if self.weights_mb <= 0 or self.kv_mb_per_token <= 0:
            raise ValueError(f"{self.name}: memory shapes must be positive")
        for attr in ("d0_prefill_s", "d1_prefill_s", "d0_decode_s",
                     "d1_decode_s"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{self.name}: {attr} must be positive")
        if self.max_batch_tokens < self.max_prompt_tokens:
            raise ValueError(
                f"{self.name}: max_batch_tokens must cover one full prompt"
            )

    # ------------------------------------------------------------------
    # iteration cost shapes (deterministic ground truth)
    # ------------------------------------------------------------------
    def prefill_time_s(self, prompt_tokens: int) -> float:
        """One prefill iteration over ``prompt_tokens`` batch tokens."""
        return self.d0_prefill_s + self.d1_prefill_s * prompt_tokens

    def decode_time_s(self, sequences: int) -> float:
        """One decode iteration over ``sequences`` resident sequences."""
        return self.d0_decode_s + self.d1_decode_s * sequences

    # ------------------------------------------------------------------
    # KV-cache memory accounting
    # ------------------------------------------------------------------
    def kv_capacity_tokens(self, free_memory_mb: float) -> int:
        """Resident-token capacity of ``free_memory_mb`` of GPU memory."""
        if free_memory_mb <= 0:
            return 0
        return int(free_memory_mb / self.kv_mb_per_token)

    def kv_mb(self, tokens: int) -> float:
        """GPU memory occupied by ``tokens`` resident KV entries."""
        return tokens * self.kv_mb_per_token

    # ------------------------------------------------------------------
    # per-request length distributions
    # ------------------------------------------------------------------
    @staticmethod
    def _sample_lognormal(
        rng: np.random.Generator, mean: float, cv: float, maximum: int
    ) -> int:
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        value = rng.lognormal(mean=mu, sigma=math.sqrt(sigma2))
        return int(min(maximum, max(1, round(value))))

    def sample_prompt_tokens(self, rng: np.random.Generator) -> int:
        """Draw one request's prompt length."""
        return self._sample_lognormal(
            rng, self.prompt_mean_tokens, self.prompt_cv,
            self.max_prompt_tokens,
        )

    def sample_output_tokens(self, rng: np.random.Generator) -> int:
        """Draw one request's output length."""
        return self._sample_lognormal(
            rng, self.output_mean_tokens, self.output_cv,
            self.max_output_tokens,
        )


#: three decode models spanning what fits on the testbed's 11 GB GPUs:
#: iteration costs follow the d_0 + d_1 * tokens fits of the
#: vLLM-simulation methodology, KV sizes are 2 * layers * hidden * 2B.
LLM_ZOO: Dict[str, LLMSpec] = {
    spec.name: spec
    for spec in [
        LLMSpec(
            name="llm-125m",
            params_millions=125,
            description="tiny chat model (12L, 768d)",
            weights_mb=300.0,
            kv_mb_per_token=0.036,
            d0_prefill_s=0.002,
            d1_prefill_s=1.5e-5,
            d0_decode_s=0.002,
            d1_decode_s=5e-5,
            max_batch_tokens=4096,
            prompt_mean_tokens=180.0,
            prompt_cv=0.8,
            max_prompt_tokens=1024,
            output_mean_tokens=120.0,
            output_cv=0.8,
            max_output_tokens=512,
        ),
        LLMSpec(
            name="llm-1b",
            params_millions=1300,
            description="small chat model (24L, 2048d)",
            weights_mb=2600.0,
            kv_mb_per_token=0.19,
            d0_prefill_s=0.004,
            d1_prefill_s=6e-5,
            d0_decode_s=0.004,
            d1_decode_s=2e-4,
            max_batch_tokens=4096,
            prompt_mean_tokens=220.0,
            prompt_cv=0.8,
            max_prompt_tokens=2048,
            output_mean_tokens=150.0,
            output_cv=0.8,
            max_output_tokens=768,
        ),
        LLMSpec(
            name="llm-3b",
            params_millions=2700,
            description="mid chat model (32L, 2560d)",
            weights_mb=6600.0,
            kv_mb_per_token=0.31,
            d0_prefill_s=0.006,
            d1_prefill_s=1.5e-4,
            d0_decode_s=0.006,
            d1_decode_s=5e-4,
            max_batch_tokens=4096,
            prompt_mean_tokens=220.0,
            prompt_cv=0.8,
            max_prompt_tokens=2048,
            output_mean_tokens=180.0,
            output_cv=0.8,
            max_output_tokens=768,
        ),
    ]
}


def list_llm_models() -> List[LLMSpec]:
    """All LLM zoo models, largest first."""
    return sorted(LLM_ZOO.values(), key=lambda spec: -spec.params_millions)
