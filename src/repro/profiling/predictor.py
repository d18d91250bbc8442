"""The COP latency predictor ``t_exec = f(b, c, g)``.

Combines profiled operator times over the model DAG: sequence chains
sum, parallel branches take the max (section 3.3), which for the zoo's
series-parallel graphs is the weighted longest path.  A configurable
safety offset (the paper uses +10%) inflates predictions to absorb
profile noise and un-modelled overheads.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.models.zoo import ModelSpec, get_model
from repro.ops.costmodel import CostModel, DEFAULT_HARDWARE, HardwareSpec
from repro.ops.operator import OperatorSpec
from repro.profiling.configspace import ConfigSpace
from repro.profiling.database import ProfileDatabase
from repro.profiling.profiler import OperatorProfiler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.fleet import GpuProfile

#: the paper's choice: "we choose to increase the prediction offset by
#: 10% to reduce the risk of SLO violations from prediction errors".
DEFAULT_SAFETY_OFFSET = 1.10


class LatencyPredictor:
    """Predicts batch execution time from combined operator profiles."""

    def __init__(
        self,
        database: ProfileDatabase,
        safety_offset: float = DEFAULT_SAFETY_OFFSET,
        hardware: HardwareSpec = DEFAULT_HARDWARE,
    ) -> None:
        if safety_offset < 1.0:
            raise ValueError("safety offset must be >= 1.0")
        self.database = database
        self.safety_offset = safety_offset
        self._hardware = hardware
        # The platform measures its own serving-framework overhead once
        # (RPC + serialisation); operator profiles do not contain it.
        self._serving = CostModel(hardware)
        self._cache: Dict[Tuple[str, int, int, int], float] = {}
        # GPU generation rate (total GFLOPs) -> predictor profiled at
        # that rate: COP keys its profiles by (model, config, gpu_profile),
        # and a generation's profiles depend on its rate alone.
        self._profile_predictors: Dict[float, "LatencyPredictor"] = {}

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _operator_time(
        self, spec: OperatorSpec, batch: int, cpu: int, gpu: int
    ) -> float:
        per_call_work = spec.gflops_per_item * spec.input_size
        per_call = self.database.lookup(
            spec.kind_name, per_call_work, batch, cpu, gpu
        )
        return per_call * spec.calls

    def predict_raw(
        self, model: Union[ModelSpec, str], batch: int, cpu: int, gpu: int
    ) -> float:
        """Combined-operator estimate without the safety offset."""
        spec = get_model(model) if isinstance(model, str) else model

        def op_time(op: OperatorSpec) -> float:
            return self._operator_time(op, batch, cpu, gpu)

        combined = spec.graph.critical_path_time(op_time)
        return combined + self._serving.serving_overhead(batch)

    def _profile_predictor(
        self, gpu_profile: "GpuProfile"
    ) -> "LatencyPredictor":
        """The predictor profiled at one GPU generation's rate (cached)."""
        rate = gpu_profile.total_gflops
        sub = self._profile_predictors.get(rate)
        if sub is None:
            from repro.cluster.fleet import hardware_for_profile

            sub = build_default_predictor(
                hardware=hardware_for_profile(gpu_profile),
                safety_offset=self.safety_offset,
            )
            self._profile_predictors[rate] = sub
        return sub

    def predict(
        self,
        model: Union[ModelSpec, str],
        batch: int,
        cpu: int,
        gpu: int,
        gpu_profile: Optional["GpuProfile"] = None,
    ) -> float:
        """Predicted ``t_exec`` in seconds, including the safety offset.

        Results are memoised: the scheduler queries the same
        configurations repeatedly while exploring (Algorithm 1).  On a
        heterogeneous fleet ``gpu_profile`` keys the profile database
        by GPU generation; CPU-only configurations and the calibration
        baseline fold onto the profile-free path.
        """
        if (
            gpu_profile is not None
            and gpu > 0
            and gpu_profile.total_gflops != self._hardware.gpu_total_gflops
        ):
            return self._profile_predictor(gpu_profile).predict(
                model, batch, cpu, gpu
            )
        spec = get_model(model) if isinstance(model, str) else model
        key = (spec.name, batch, cpu, gpu)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.safety_offset * self.predict_raw(spec, batch, cpu, gpu)
            self._cache[key] = cached
        return cached

    def prediction_error(
        self,
        model: Union[ModelSpec, str],
        batch: int,
        cpu: int,
        gpu: int,
        actual_time: float,
    ) -> float:
        """Relative error ``|P_hat - P| / P`` of the *raw* prediction.

        Fig. 8 evaluates the prediction model itself, so the safety
        offset is excluded here.
        """
        if actual_time <= 0:
            raise ValueError("actual_time must be positive")
        predicted = self.predict_raw(model, batch, cpu, gpu)
        return abs(predicted - actual_time) / actual_time


@functools.lru_cache(maxsize=8)
def build_default_predictor(
    hardware: HardwareSpec = DEFAULT_HARDWARE,
    config_space: Optional[ConfigSpace] = None,
    safety_offset: float = DEFAULT_SAFETY_OFFSET,
    seed: int = 7,
) -> LatencyPredictor:
    """Profile the full operator catalog once and build a predictor.

    Cached so that a process profiles each hardware once: tests,
    benchmarks and every platform of a run share the result (one entry
    per GPU rate on heterogeneous fleets).  One build is one vectorised
    sweep per operator, tens of milliseconds for the whole catalog.
    """
    profiler = OperatorProfiler(
        hardware=hardware, config_space=config_space or ConfigSpace(), seed=seed
    )
    return LatencyPredictor(
        profiler.build_database(), safety_offset=safety_offset,
        hardware=hardware,
    )
