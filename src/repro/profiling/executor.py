"""The ground-truth executor: what "really" happens on the hardware.

The executor computes the actual batch execution time of a model under
a configuration, which the simulation runtime uses to advance time and
which COP tries to predict.  It differs from the predictor's view in
three realistic ways:

* **imperfect branch overlap** -- parallel branches do not fully
  overlap on one instance; a fraction of off-critical-path work spills
  onto the critical path (the ``branch_overlap_penalty`` of the
  hardware spec);
* **serving-framework overhead** -- RPC and (de)serialisation time the
  operator-only predictor does not see;
* **hardware quirks** -- a deterministic per-(model, configuration)
  factor modelling cache working-set, NUMA and co-location effects that
  composing per-operator profiles cannot capture;
* **measurement noise** -- each invocation draws log-normal noise.

Together these reproduce the ~8-10% COP prediction errors of Fig. 8.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.models.zoo import ModelSpec
from repro.ops.costmodel import CostModel, DEFAULT_HARDWARE, HardwareSpec
from repro.ops.operator import OperatorSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.fleet import GpuProfile


class GroundTruthExecutor:
    """Computes actual execution times of model batches.

    Args:
        hardware: hardware constants shared with the cost model.
        seed: seed for the per-invocation measurement noise stream.
    """

    def __init__(
        self,
        hardware: HardwareSpec = DEFAULT_HARDWARE,
        seed: int = 2022,
    ) -> None:
        self.hardware = hardware
        self.cost_model = CostModel(hardware)
        self._rng = np.random.default_rng(seed)
        # (model name, batch, cpu, gpu[, generation name, rate]) ->
        # noise-free batch duration.  The mean is a pure function of the
        # configuration (the graph walk and quirk draw are
        # deterministic), and the serving path re-asks it for every
        # executed batch.  A generation's cost depends on its rate and
        # its quirk on its name, so the key holds both.
        self._mean_cache: dict = {}
        # GPU generation rate (total GFLOPs) -> cost model at that rate
        # (heterogeneous fleets only; empty on the default path).
        self._profile_models: dict = {}

    def _profile_cost_model(self, gpu_profile: "GpuProfile") -> CostModel:
        rate = gpu_profile.total_gflops
        model = self._profile_models.get(rate)
        if model is None:
            from repro.cluster.fleet import hardware_for_profile

            model = CostModel(hardware_for_profile(gpu_profile))
            self._profile_models[rate] = model
        return model

    def _effective_profile(
        self, gpu: Union[int, float], gpu_profile: Optional["GpuProfile"]
    ) -> Optional["GpuProfile"]:
        """Drop the profile when it cannot change the answer.

        CPU-only work is generation-independent, and the calibration
        baseline *is* the default hardware -- both fold onto the
        profile-free path so default caches/results stay bit-identical.
        """
        if gpu_profile is None or gpu <= 0:
            return None
        if (
            gpu_profile.total_gflops == self.hardware.gpu_total_gflops
        ):
            return None
        return gpu_profile

    def _quirk_factor(
        self,
        model_name: str,
        batch: int,
        cpu: float,
        gpu: float,
        profile_name: str = "",
    ) -> float:
        """Deterministic configuration-specific slowdown/speedup factor."""
        sigma = self.hardware.quirk_sigma
        if sigma <= 0:
            return 1.0
        token = f"{model_name}|{batch}|{round(float(cpu), 3)}|{round(float(gpu), 3)}"
        if profile_name:
            token = f"{token}|{profile_name}"
        quirk_seed = zlib.crc32(token.encode())
        draw = float(np.random.default_rng(quirk_seed).standard_normal())
        clip = self.hardware.quirk_clip
        return 1.0 + float(np.clip(draw * sigma, -clip, clip))

    def mean_execution_time(
        self,
        model: ModelSpec,
        batch: int,
        cpu: Union[int, float],
        gpu: Union[int, float],
        gpu_profile: Optional["GpuProfile"] = None,
    ) -> float:
        """Noise-free actual execution time of one batch, in seconds."""
        gpu_profile = self._effective_profile(gpu, gpu_profile)
        if gpu_profile is None:
            key = (model.name, batch, cpu, gpu)
            cost_model = self.cost_model
            profile_name = ""
        else:
            key = (
                model.name, batch, cpu, gpu,
                gpu_profile.name, gpu_profile.total_gflops,
            )
            cost_model = self._profile_cost_model(gpu_profile)
            profile_name = gpu_profile.name
        cached = self._mean_cache.get(key)
        if cached is not None:
            return cached

        def op_time(spec: OperatorSpec) -> float:
            return cost_model.operator_time(spec, batch, cpu, gpu)

        critical = model.graph.critical_path_time(op_time)
        total = model.graph.total_time(op_time)
        spill = self.hardware.branch_overlap_penalty * (total - critical)
        quirk = self._quirk_factor(model.name, batch, cpu, gpu, profile_name)
        mean = (critical + spill) * quirk + cost_model.serving_overhead(batch)
        self._mean_cache[key] = mean
        return mean

    def execution_time(
        self,
        model: ModelSpec,
        batch: int,
        cpu: Union[int, float],
        gpu: Union[int, float],
        rng: Optional[np.random.Generator] = None,
        gpu_profile: Optional["GpuProfile"] = None,
    ) -> float:
        """One noisy invocation duration (what a measurement would see)."""
        mean = self.mean_execution_time(model, batch, cpu, gpu, gpu_profile)
        return self.cost_model.sample_time(mean, rng or self._rng)

    def throughput_rps(
        self,
        model: ModelSpec,
        batch: int,
        cpu: Union[int, float],
        gpu: Union[int, float],
        gpu_profile: Optional["GpuProfile"] = None,
    ) -> float:
        """Steady-state items/second when batches execute back-to-back."""
        return batch / self.mean_execution_time(
            model, batch, cpu, gpu, gpu_profile
        )
