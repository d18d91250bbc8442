"""The COP latency predictor ``t_exec = f(b, c, g)``.

Combines profiled operator times over the model DAG: sequence chains
sum, parallel branches take the max (section 3.3), which for the zoo's
series-parallel graphs is the weighted longest path.  A configurable
safety offset (the paper uses +10%) inflates predictions to absorb
profile noise and un-modelled overheads.

A model's whole profiled ``<b, c, g>`` grid is priced at once, on its
first use: one vectorised database lookup per DAG node, combined by
the one longest-path fold (:func:`repro.ops.graph.longest_path`) on
arrays.  Every prediction afterwards is a table read.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.models.zoo import ModelSpec, get_model
from repro.ops.costmodel import CostModel, DEFAULT_HARDWARE, HardwareSpec
from repro.ops.operator import OperatorSpec
from repro.profiling.configspace import ConfigSpace, InstanceConfig
from repro.profiling.database import ConfigKey, ProfileDatabase, ProfileLookupError
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
        #: model name -> its raw time at every priced (b, c, g)
        #: (:meth:`_price_grid`), built on the model's first use.
        self._raw: Dict[str, Dict[ConfigKey, float]] = {}
        # GPU generation rate (total GFLOPs) -> predictor profiled at
        # that rate: COP keys its profiles by (model, config, gpu_profile),
        # and a generation's profiles depend on its rate alone.
        self._profile_predictors: Dict[float, "LatencyPredictor"] = {}

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def _raw_table(self, spec: ModelSpec) -> Dict[ConfigKey, float]:
        """The model's raw time at every priced config (built once)."""
        table = self._raw.get(spec.name)
        if table is None:
            table = self._price_grid(spec)
            self._raw[spec.name] = table
        return table

    def _price_grid(self, spec: ModelSpec) -> Dict[ConfigKey, float]:
        """Raw time of every profiled ``(b, c, g)``, in one DAG sweep.

        Each node's operator is looked up over all its configurations
        at once, and the longest-path fold combines the arrays as it
        does one configuration's floats.  Configurations the first
        node's operator lacks, or any later node's, are left out.
        """
        keys: Optional[Tuple[ConfigKey, ...]] = None
        present = np.ones(0, dtype=bool)

        def node_time(op: OperatorSpec) -> np.ndarray:
            # Every operator's times are aligned to the first one's keys.
            nonlocal keys, present
            op_keys, per_call = self.database.lookup_all(
                op.kind_name, op.gflops_per_item * op.input_size
            )
            if keys is None:
                keys, present = op_keys, np.ones(len(op_keys), dtype=bool)
            elif op_keys is not keys and op_keys != keys:
                rows = dict(zip(op_keys, range(len(op_keys))))
                index = np.array([rows.get(key, -1) for key in keys])
                present &= index >= 0
                per_call = np.where(index >= 0, per_call[index], np.nan)
            return per_call * op.calls

        try:
            combined = spec.graph.critical_path_time(node_time)
        except ProfileLookupError:
            return {}
        overhead = np.array(
            [self._serving.serving_overhead(batch) for batch, _c, _g in keys]
        )
        raw = (combined + overhead).tolist()
        return {
            key: time_s
            for key, time_s, ok in zip(keys, raw, present.tolist())
            if ok
        }

    def _missing(self, spec: ModelSpec, key: ConfigKey) -> ProfileLookupError:
        """The error for a config: the first operator (in topological
        order) without a profile at it."""
        graph = spec.graph
        for node_id in graph.topological_order():
            kind = graph.node(node_id).spec.kind_name
            if not self.database.has_config(kind, *key):
                return self.database.lookup_error(kind, key)
        raise AssertionError(f"{spec.name}: {key} priced but missing")

    def predict_raw(
        self, model: Union[ModelSpec, str], batch: int, cpu: int, gpu: int
    ) -> float:
        """Combined-operator estimate without the safety offset."""
        spec = get_model(model) if isinstance(model, str) else model
        raw = self._raw_table(spec).get((batch, cpu, gpu))
        if raw is None:
            raise self._missing(spec, (batch, cpu, gpu))
        return raw

    def _generation(
        self, gpu_profile: Optional["GpuProfile"]
    ) -> "LatencyPredictor":
        """The predictor pricing GPU configs of ``gpu_profile``.

        Self for the calibration baseline (or no profile); otherwise
        the predictor profiled at that generation's rate (cached).
        """
        if (
            gpu_profile is None
            or gpu_profile.total_gflops == self._hardware.gpu_total_gflops
        ):
            return self
        return self._profile_predictor(gpu_profile)

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
        if gpu > 0:
            owner = self._generation(gpu_profile)
            if owner is not self:
                return owner.predict(model, batch, cpu, gpu)
        spec = get_model(model) if isinstance(model, str) else model
        key = (spec.name, batch, cpu, gpu)
        cached = self._cache.get(key)
        if cached is None:
            cached = self.safety_offset * self.predict_raw(spec, batch, cpu, gpu)
            self._cache[key] = cached
        return cached

    def predict_configs(
        self,
        model: Union[ModelSpec, str],
        configs: Sequence[InstanceConfig],
        gpu_profile: Optional["GpuProfile"] = None,
    ) -> List[float]:
        """:meth:`predict` of each config, read from the priced grids.

        One call prices a whole row of Algorithm 1's candidates: GPU
        configs at ``gpu_profile``'s generation, CPU-only configs at
        the baseline, as :meth:`predict` routes them.
        """
        spec = get_model(model) if isinstance(model, str) else model
        generation = self._generation(gpu_profile)
        owners = {
            False: (self, self._raw_table(spec)),
            True: (generation, generation._raw_table(spec)),
        }
        times = []
        for config in configs:
            owner, table = owners[config.gpu > 0]
            key = (config.batch, config.cpu, config.gpu)
            raw = table.get(key)
            if raw is None:
                raise owner._missing(spec, key)
            times.append(owner.safety_offset * raw)
        return times


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
