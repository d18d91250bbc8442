"""OpenFaaS+ -- the GPU-enhanced OpenFaaS baseline (section 5.1).

The paper enhances vanilla OpenFaaS with GPU access for a fair
comparison, but keeps its platform character: no batching (every
instance processes one request at a time -- the "one-to-one mapping"
of Observation 4), a uniform instance configuration of **2 CPU cores
and 10% of a GPU's SMs**, and a fixed 300-second keep-alive window.
"""

from __future__ import annotations

from repro.baselines.common import UniformScalingPlatform
from repro.cluster.cluster import Cluster
from repro.core.function import FunctionSpec
from repro.profiling.configspace import InstanceConfig
from repro.profiling.predictor import LatencyPredictor

#: the paper's fixed OpenFaaS+ instance configuration.
OPENFAAS_CONFIG = InstanceConfig(batch=1, cpu=2, gpu=10)


class OpenFaaSPlus(UniformScalingPlatform):
    """OpenFaaS with GPU support: one-to-one mapping, fixed config."""

    #: OpenFaaS buffers requests in its gateway / NATS queue, so many
    #: more requests than the (single-slot) "batch" may wait per
    #: instance -- at the price of queueing latency, not drops.
    waiting_batches = 32

    def __init__(
        self,
        cluster: Cluster,
        predictor: LatencyPredictor,
        *,
        name: str = "openfaas+",
        seed: int = 321,
        keepalive_s: float = 300.0,
    ) -> None:
        super().__init__(
            cluster, predictor, name=name, seed=seed, keepalive_s=keepalive_s
        )

    def select_config(self, function: FunctionSpec, rps: float) -> InstanceConfig:
        """Every function, every load level: the same (1, 2, 10%)."""
        return OPENFAAS_CONFIG
