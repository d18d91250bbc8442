"""Offline operator profiler.

Measures every operator kind across the discrete configuration grid --
against the noisy ground-truth cost model, which stands in for running
the operator on the testbed -- and fills the profile database.  Per the
paper this is done once, ahead of function deployment; models deployed
later reuse the shared operator profiles (Observation 6).

One operator's whole grid is measured in one vectorised sweep: the cost
model prices every ``(config, input size)`` point in array arithmetic
and all measurement noise comes from one draw, in the order a per-point
loop would consume it, so the stored profiles equal that loop's bit for
bit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.ops.catalog import OPERATOR_CATALOG
from repro.ops.costmodel import CostModel, DEFAULT_HARDWARE, HardwareSpec
from repro.ops.operator import OperatorProfile, OperatorSpec
from repro.profiling.configspace import (
    ConfigSpace,
    DEFAULT_INPUT_SIZES,
)
from repro.profiling.database import ConfigKey, ProfileDatabase


class OperatorProfiler:
    """Populates a :class:`ProfileDatabase` by measuring operator kinds.

    Args:
        hardware: the simulated hardware to measure against.
        config_space: the (b, c, g) grid to cover.
        input_sizes: GFLOPs-per-call grid; model operator work is
            interpolated between these points at prediction time.
        repetitions: measurements averaged per grid point (more
            repetitions shrink noise in the stored profile, like longer
            profiling runs would on real hardware).
        seed: measurement-noise seed, distinct from the runtime
            executor's so profiles and executions are independent draws.
    """

    def __init__(
        self,
        hardware: HardwareSpec = DEFAULT_HARDWARE,
        config_space: Optional[ConfigSpace] = None,
        input_sizes: Sequence[float] = DEFAULT_INPUT_SIZES,
        repetitions: int = 3,
        seed: int = 7,
    ) -> None:
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        self.hardware = hardware
        self.cost_model = CostModel(hardware)
        self.config_space = config_space or ConfigSpace()
        self.input_sizes = tuple(input_sizes)
        if not self.input_sizes:
            raise ValueError("input_sizes must not be empty")
        self.repetitions = repetitions
        self._rng = np.random.default_rng(seed)

    def _config_grid(self) -> List[ConfigKey]:
        """Every ``(b, c, g)`` of the configuration space, in order."""
        return [
            (config.batch, config.cpu, config.gpu)
            for config in self.config_space.all_configs()
        ]

    def _sweep(
        self,
        operator: str,
        configs: Sequence[ConfigKey],
        input_sizes: Sequence[float],
    ) -> np.ndarray:
        """Measured time of every ``(config, input size)`` point.

        Returns a ``(len(configs), len(input_sizes))`` array, each entry
        the mean of ``repetitions`` noisy runs.  Noise is drawn config
        by config, then input size, then repetition: the order in which
        measuring the points one at a time consumes the stream.
        """
        batch, cpu, gpu = (np.array(column) for column in zip(*configs))
        means = np.stack(
            [
                self.cost_model.operator_time(
                    OperatorSpec(kind_name=operator, gflops_per_item=size),
                    batch, cpu, gpu,
                )
                for size in input_sizes
            ],
            axis=1,
        )
        runs = np.repeat(means.reshape(-1, 1), self.repetitions, axis=1)
        samples = self.cost_model.sample_time(runs, self._rng)
        return samples.mean(axis=1).reshape(means.shape)

    def measure(
        self, operator: str, input_size: float, batch: int, cpu: int, gpu: int
    ) -> OperatorProfile:
        """Measure one grid point (average of ``repetitions`` runs)."""
        time_s = self._sweep(operator, [(batch, cpu, gpu)], (input_size,))
        return OperatorProfile(
            operator=operator,
            input_size=input_size,
            batch=batch,
            cpu=cpu,
            gpu=gpu,
            time_s=float(time_s[0, 0]),
        )

    def profile_operator(self, operator: str) -> List[OperatorProfile]:
        """All grid points for one operator kind."""
        configs = self._config_grid()
        times = self._sweep(operator, configs, self.input_sizes)
        return [
            OperatorProfile(operator, input_size, batch, cpu, gpu, time_s)
            for (batch, cpu, gpu), row in zip(configs, times.tolist())
            for input_size, time_s in zip(self.input_sizes, row)
        ]

    def build_database(
        self, operators: Optional[Iterable[str]] = None
    ) -> ProfileDatabase:
        """Profile the given operators (default: the whole catalog)."""
        database = ProfileDatabase()
        configs = self._config_grid()
        for operator in operators or sorted(OPERATOR_CATALOG):
            times = self._sweep(operator, configs, self.input_sizes)
            for key, row in zip(configs, times.tolist()):
                database.insert_series(operator, key, self.input_sizes, row)
        return database
