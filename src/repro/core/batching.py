"""Built-in, non-uniform batching (section 3.2).

Every instance owns an individual batch queue.  To guarantee the SLO
without dropping requests, the request arrival rate toward an instance
must stay inside ``[r_low, r_up]`` (Eq. 1):

* ``r_up = b / t_exec`` -- above this the previous batch is still
  executing when the next fills, so requests would be dropped.  The
  paper prints the per-second discretisation ``floor(1/t_exec) * b``,
  which collapses to zero whenever ``t_exec >= 1s`` even though the
  configuration is SLO-feasible; we use the exact (un-floored) rate so
  every feasible configuration has strictly positive capacity;
* ``r_low = ceil(1 / (t_slo - t_exec)) * b`` -- below this the batch
  cannot fill before the waiting timeout forces a partial (inefficient)
  submission.  When that per-second ceiling overshoots ``r_up`` (again
  only for second-scale times) we fall back to the exact rate
  ``b / (t_slo - t_exec)``, which feasibility guarantees is ``<= r_up``;
* feasibility requires ``t_exec <= t_slo / 2`` so that
  ``r_low <= r_up`` (batch submission must not outpace execution).

The worked example of the paper holds: ``t_slo=200ms, t_exec=50ms, b=4``
gives ``[28, 80]`` requests per second.

:class:`BatchQueue` is the runtime object used by the simulation: it
aggregates requests and reports when a batch is ready (full) or must be
flushed (timeout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional


@dataclass(frozen=True)
class RateBounds:
    """The admissible per-instance RPS range ``[r_low, r_up]``."""

    r_low: float
    r_up: float

    def __post_init__(self) -> None:
        if self.r_low < 0 or self.r_up < 0:
            raise ValueError("rates must be non-negative")

    @property
    def width(self) -> float:
        """Size of the admissible window, ``r_up - r_low``."""
        return self.r_up - self.r_low


class InfeasibleBatchError(ValueError):
    """The (t_exec, t_slo, b) combination cannot guarantee the SLO."""


def rate_bounds(t_exec: float, t_slo: float, batch: int) -> RateBounds:
    """Compute Eq. 1's ``[r_low, r_up]`` for an instance configuration.

    Args:
        t_exec: predicted batch execution time, seconds.
        t_slo: the function's latency SLO, seconds.
        batch: the instance's batchsize ``b``.

    Raises:
        InfeasibleBatchError: when ``t_exec > t_slo`` (any batch) or
            ``t_exec > t_slo / 2`` (batch > 1, the paper's feasibility
            rule ensuring ``r_low <= r_up``).
    """
    if t_exec <= 0:
        raise ValueError("t_exec must be positive")
    if batch < 1:
        raise ValueError("batch must be >= 1")
    if batch == 1:
        # No queueing with batchsize 1: only the execution time must
        # fit in the SLO (Algorithm 1, lines 20-22).
        if t_exec > t_slo:
            raise InfeasibleBatchError(
                f"t_exec={t_exec:.4f}s exceeds SLO {t_slo:.4f}s"
            )
        return RateBounds(r_low=0.0, r_up=1.0 / t_exec)
    if t_exec > t_slo / 2.0:
        raise InfeasibleBatchError(
            f"t_exec={t_exec:.4f}s > t_slo/2={t_slo / 2.0:.4f}s: batch"
            f" submission would outpace execution"
        )
    r_up = batch / t_exec
    r_low = float(math.ceil(1.0 / (t_slo - t_exec)) * batch)
    if r_low > r_up:
        # The per-second ceiling overshoots for second-scale times;
        # use the exact saturation rate (feasibility makes it <= r_up).
        r_low = batch / (t_slo - t_exec)
    return RateBounds(r_low=r_low, r_up=r_up)


@lru_cache(maxsize=65536)
def cached_rate_bounds(
    t_exec: float, t_slo: float, batch: int
) -> Optional[RateBounds]:
    """Memoized :func:`rate_bounds`, with ``None`` marking infeasibility.

    Eq. 1 is a pure function of its arguments, but hot consumers --
    :func:`~repro.core.scheduler.feasible_rows` (every ``AvailableConfig``
    row, rebuilt by each fresh scheduler and BATCH's load buckets) and
    the audit layer's per-instance soundness check -- recompute it with
    the same argument triples thousands of times per run.  Infeasible
    combinations return ``None`` instead of raising so the negative
    result is cached too (``lru_cache`` does not cache exceptions).
    Invalid arguments (non-positive ``t_exec``, ``batch < 1``) still
    raise ``ValueError`` exactly like :func:`rate_bounds`.
    """
    try:
        return rate_bounds(t_exec, t_slo, batch)
    except InfeasibleBatchError:
        return None


@dataclass
class BatchQueue:
    """Per-instance request queue aggregating arrivals into batches.

    Args:
        batch_size: the instance's configured batchsize ``b``.
        timeout_s: max time the *first* request of a batch may wait
            before the batch is flushed partially filled; INFless sets
            it to ``t_slo - t_exec`` so even a timed-out batch meets the
            SLO.
    """

    batch_size: int
    timeout_s: float
    _pending: List[object] = field(default_factory=list)
    _oldest_arrival: Optional[float] = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.timeout_s < 0:
            raise ValueError("timeout must be non-negative")

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def is_empty(self) -> bool:
        """True when no requests are waiting."""
        return not self._pending

    def deadline(self) -> Optional[float]:
        """Absolute time at which the current batch must be flushed."""
        if self._oldest_arrival is None:
            return None
        return self._oldest_arrival + self.timeout_s

    def enqueue(self, request: object, now: float) -> bool:
        """Add a request; returns True when the batch became full."""
        if self._oldest_arrival is None:
            self._oldest_arrival = now
        self._pending.append(request)
        return len(self._pending) >= self.batch_size

    def should_flush(self, now: float) -> bool:
        """Full batch, or the oldest request has hit the timeout."""
        if not self._pending:
            return False
        if len(self._pending) >= self.batch_size:
            return True
        deadline = self.deadline()
        return deadline is not None and now >= deadline - 1e-12

    def drain(self, now: Optional[float] = None) -> List[object]:
        """Remove and return up to ``batch_size`` requests (FIFO).

        If requests remain queued, the timeout clock restarts from the
        new head-of-queue's ``arrival`` attribute (the runtime's
        Request objects carry one).  Payloads without an ``arrival``
        fall back to ``now`` -- the drain time -- because reusing the
        *previous* batch's oldest arrival would make the next deadline
        spuriously early (often already expired).  Otherwise the queue
        goes idle.
        """
        batch = self._pending[: self.batch_size]
        self._pending = self._pending[self.batch_size :]
        if self._pending:
            head = self._pending[0]
            arrival = getattr(head, "arrival", None)
            if arrival is None:
                arrival = now if now is not None else self._oldest_arrival
            self._oldest_arrival = arrival
        else:
            self._oldest_arrival = None
        return batch
