"""Function specifications: what a developer deploys.

INFless exposes inference as Backend-as-a-Service: the developer
supplies the model and a high-level latency SLO through the function
template (Fig. 5); everything else (batchsize, resources, scaling,
placement) is the platform's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.models.zoo import ModelSpec


@dataclass(frozen=True)
class FunctionSpec:
    """A deployed inference function.

    Attributes:
        name: unique function name (the template's ``functionName``).
        model: the inference model backing the function -- a Table 1
            :class:`~repro.models.zoo.ModelSpec` for single-shot
            platforms, or a :class:`~repro.models.llm.LLMSpec` for the
            autoregressive platforms in ``repro.llm``.
        slo_s: latency SLO in seconds: end-to-end for single-shot
            functions, time-to-first-token for autoregressive ones.
    """

    name: str
    model: ModelSpec
    slo_s: float

    def __post_init__(self) -> None:
        if not 0 < self.slo_s < math.inf:
            raise ValueError(
                f"{self.name}: SLO slo_s must be positive and finite,"
                f" got {self.slo_s!r}"
            )
        if not self.name:
            raise ValueError("function name must be non-empty")

    @classmethod
    def for_model(
        cls, model_name: str, slo_s: float, name: str = ""
    ) -> "FunctionSpec":
        """Convenience constructor from a zoo model name (either zoo)."""
        from repro.models import resolve_model

        model = resolve_model(model_name)
        return cls(name=name or f"fn-{model_name}", model=model, slo_s=slo_s)
