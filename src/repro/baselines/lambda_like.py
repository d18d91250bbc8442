"""An AWS-Lambda-like platform model for the section 2 motivation study.

Captures the three Lambda behaviours the paper's observations hinge on:

* **proportional CPU-memory allocation** -- CPU power grows linearly
  with the configured memory size (1 vCPU per 1,769 MB), so obtaining
  compute requires over-provisioning memory (Observation 3);
* **CPU only** -- no accelerator access (Observation 1);
* **one-to-one request mapping** -- each in-flight request occupies a
  whole instance; concurrency scales with load (Observation 4).

``replay_one_to_one`` and ``replay_with_batching`` re-create the
Fig. 3(a) instance-count experiment, and the invocation-time helpers
feed the Fig. 2 heat-maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.models.zoo import ModelSpec
from repro.ops.costmodel import proportional_cpu_quota
from repro.profiling.executor import GroundTruthExecutor

#: the memory configuration range the paper sweeps (128 MB - ~3 GB).
LAMBDA_MEMORY_SIZES_MB: Sequence[int] = (
    128, 256, 512, 1024, 1536, 1792, 2048, 2560, 3008,
)


@dataclass
class ReplayStats:
    """Outcome of replaying an arrival stream through Lambda."""

    requests: int
    invocations: int
    instances_launched: int
    peak_concurrency: int
    memory_gb_s: float


class LambdaLike:
    """The proportional CPU-memory, one-to-one mapping platform."""

    def __init__(self, executor: Optional[GroundTruthExecutor] = None) -> None:
        self.executor = executor or GroundTruthExecutor()

    # ------------------------------------------------------------------
    # per-invocation analysis (Fig. 2)
    # ------------------------------------------------------------------
    def cpu_quota(self, memory_mb: float) -> float:
        """Fractional vCPU allocated for a memory configuration, capped
        at the largest memory size."""
        return proportional_cpu_quota(min(memory_mb, LAMBDA_MEMORY_SIZES_MB[-1]))

    def can_load(self, model: ModelSpec, memory_mb: float, batch: int = 1) -> bool:
        """Whether the model (and batch buffers) fit in the function memory."""
        return memory_mb >= model.memory_mb(batch)

    def invocation_time(
        self, model: ModelSpec, memory_mb: float, batch: int = 1
    ) -> Optional[float]:
        """Mean execution time under the memory config; None if unloadable.

        The 'x' cells of the Fig. 2 heat-maps are the None returns.
        """
        if not self.can_load(model, memory_mb, batch):
            return None
        quota = self.cpu_quota(memory_mb)
        return self.executor.mean_execution_time(model, batch, cpu=quota, gpu=0)

    def min_memory_for_slo(
        self,
        model: ModelSpec,
        slo_s: float,
        batch: int = 1,
        sizes: Sequence[int] = LAMBDA_MEMORY_SIZES_MB,
    ) -> Optional[int]:
        """Smallest memory configuration meeting the latency SLO."""
        for memory_mb in sorted(sizes):
            time_s = self.invocation_time(model, memory_mb, batch)
            if time_s is not None and time_s <= slo_s:
                return memory_mb
        return None

    def overprovision_ratio(
        self, model: ModelSpec, slo_s: float, batch: int = 1
    ) -> Optional[float]:
        """Fraction of the SLO-meeting memory that is over-provisioned.

        Fig. 2(c): e.g. SSD needs 1,792 MB for compute while consuming
        only ~427 MB, wasting >50% of the allocation.
        """
        needed = self.min_memory_for_slo(model, slo_s, batch)
        if needed is None:
            return None
        consumed = model.memory_mb(batch)
        return max(0.0, (needed - consumed) / needed)

    # ------------------------------------------------------------------
    # instance-count replay (Fig. 3a)
    # ------------------------------------------------------------------
    def replay_one_to_one(
        self,
        arrivals: Sequence[float],
        model: ModelSpec,
        memory_mb: float,
        keepalive_s: float = 300.0,
    ) -> ReplayStats:
        """Replay arrivals with one invocation per request.

        A request reuses an instance that is idle and within its
        keep-alive window; otherwise a new instance launches.
        """
        exec_s = self.invocation_time(model, memory_mb, batch=1)
        if exec_s is None:
            raise ValueError(
                f"{model.name} cannot load in {memory_mb} MB"
            )
        return self._replay(
            invocation_times=list(arrivals),
            exec_s=exec_s,
            memory_mb=memory_mb,
            keepalive_s=keepalive_s,
            requests=len(arrivals),
        )

    def replay_with_batching(
        self,
        arrivals: Sequence[float],
        model: ModelSpec,
        memory_mb: float,
        batch: int = 4,
        timeout_s: float = 0.1,
        keepalive_s: float = 300.0,
    ) -> ReplayStats:
        """Replay arrivals through an OTP batching buffer.

        The buffer submits a batch when it fills or when its first
        request has waited ``timeout_s``; every batch is one invocation.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        exec_s = self.invocation_time(model, memory_mb, batch=batch)
        if exec_s is None:
            raise ValueError(f"{model.name} cannot load in {memory_mb} MB")
        submissions: List[float] = []
        pending = 0
        window_start = None
        for t in sorted(arrivals):
            if pending and window_start is not None and t - window_start >= timeout_s:
                submissions.append(window_start + timeout_s)
                pending = 0
                window_start = None
            if pending == 0:
                window_start = t
            pending += 1
            if pending >= batch:
                submissions.append(t)
                pending = 0
                window_start = None
        if pending and window_start is not None:
            submissions.append(window_start + timeout_s)
        return self._replay(
            invocation_times=submissions,
            exec_s=exec_s,
            memory_mb=memory_mb,
            keepalive_s=keepalive_s,
            requests=len(arrivals),
        )

    def _replay(
        self,
        invocation_times: List[float],
        exec_s: float,
        memory_mb: float,
        keepalive_s: float,
        requests: int,
    ) -> ReplayStats:
        # Instances as (free_at, launched_at) pairs; reuse the
        # longest-idle compatible instance first (Lambda reuses warm
        # sandboxes).
        free_at: List[float] = []
        launched_at: List[float] = []
        last_used: List[float] = []
        peak = 0
        for t in sorted(invocation_times):
            reuse_index = None
            oldest_free = math.inf
            for index, free_time in enumerate(free_at):
                if free_time <= t and t - free_time <= keepalive_s:
                    if free_time < oldest_free:
                        oldest_free = free_time
                        reuse_index = index
            if reuse_index is None:
                free_at.append(t + exec_s)
                launched_at.append(t)
                last_used.append(t + exec_s)
            else:
                free_at[reuse_index] = t + exec_s
                last_used[reuse_index] = t + exec_s
            busy = sum(1 for f in free_at if f > t)
            peak = max(peak, busy)
        memory_gb_s = 0.0
        for start, end in zip(launched_at, last_used):
            lifetime = (end + keepalive_s) - start
            memory_gb_s += lifetime * memory_mb / 1024.0
        return ReplayStats(
            requests=requests,
            invocations=len(invocation_times),
            instances_launched=len(launched_at),
            peak_concurrency=peak,
            memory_gb_s=memory_gb_s,
        )
