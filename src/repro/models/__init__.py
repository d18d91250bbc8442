"""The inference model zoo of Table 1, plus autoregressive models.

Eleven models spanning MLPerf and the paper's commercial workloads,
each built as an operator DAG whose parameter count and GFLOPs match
Table 1 and whose operator composition matches Fig. 7 (Conv2D dominates
ResNets, MatMul dominates LSTMs, branchy graphs for TextCNN/DSSM/LSTM).

``repro.models.llm`` extends the catalog beyond the paper with
autoregressive (LLM) specs -- prefill/decode iteration-cost shapes and
KV-cache memory accounting -- for the ``repro.llm`` serving scenario.
"""

from repro.models.zoo import (
    MODEL_ZOO,
    ModelSpec,
    get_model,
    list_models,
)
from repro.models.llm import (
    LLM_ZOO,
    LLMSpec,
    list_llm_models,
)


def resolve_model(name: str):
    """Fetch a model from either zoo (Table 1 or autoregressive).

    Single-shot zoo names win; unknown names raise a KeyError listing
    both catalogs.
    """
    if name in MODEL_ZOO:
        return MODEL_ZOO[name]
    if name in LLM_ZOO:
        return LLM_ZOO[name]
    known = ", ".join(sorted(MODEL_ZOO) + sorted(LLM_ZOO))
    raise KeyError(f"unknown model {name!r}; zoo has: {known}")


__all__ = [
    "MODEL_ZOO",
    "ModelSpec",
    "get_model",
    "list_models",
    "LLM_ZOO",
    "LLMSpec",
    "list_llm_models",
    "resolve_model",
]
