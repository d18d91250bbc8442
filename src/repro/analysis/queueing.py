"""Analytic batch-service queueing model.

BATCH (SC'20) chooses batch sizes from a queueing analysis of the
buffer layer; INFless's Eq. 1 is a worst-case corset around the same
system.  This module provides the mean-value analysis for a
batch-service station fed by Poisson arrivals:

* requests arrive at rate ``lam``;
* the server takes up to ``b`` requests per batch, each batch running
  for a deterministic ``tau`` seconds;
* a partially filled batch is flushed when its oldest request has
  waited ``timeout`` seconds.

The estimates are validated against the discrete-event runtime in
``tests/test_queueing.py`` and give a fast, simulation-free way to
reason about batch/latency trade-offs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QueueEstimate:
    """Mean-value estimates for one (lam, b, tau) operating point."""

    utilisation: float
    fill_wait_s: float
    queue_wait_s: float
    service_s: float

    @property
    def total_latency_s(self) -> float:
        return self.fill_wait_s + self.queue_wait_s + self.service_s

    @property
    def stable(self) -> bool:
        return self.utilisation < 1.0


def utilisation(lam: float, batch: int, tau: float) -> float:
    """Offered load over batch service capacity (``rho``)."""
    if lam < 0 or batch < 1 or tau <= 0:
        raise ValueError("need lam >= 0, batch >= 1, tau > 0")
    return lam * tau / batch


def mean_fill_wait(lam: float, batch: int, timeout: float) -> float:
    """Average time a request waits for its batch to assemble.

    With Poisson arrivals the j-th request of a full batch waits
    ``(b - j) / lam`` for the remaining members, averaging
    ``(b - 1) / (2 lam)``; the flush timeout caps the wait of every
    member, so the mean is bounded by it as well.
    """
    if batch == 1 or lam <= 0:
        return 0.0
    return min((batch - 1) / (2.0 * lam), timeout)


def mean_queue_wait(lam: float, batch: int, tau: float) -> float:
    """Mean wait for the server, M/D/1 on the batch stream.

    Full batches leave the assembly stage at rate ``lam / b`` and hold
    the server for a deterministic ``tau``; Pollaczek-Khinchine with
    zero service variance gives ``W_q = rho * tau / (2 (1 - rho))``.

    This is an *upper bound* on the realised wait: in the serving
    runtime the next batch assembles while the current one executes,
    so assembly and queueing overlap and the measured wait sits below
    the sum of the two terms (see ``tests/test_queueing.py``).
    """
    rho = utilisation(lam, batch, tau)
    if rho >= 1.0:
        return math.inf
    return rho * tau / (2.0 * (1.0 - rho))


def estimate(
    lam: float, batch: int, tau: float, timeout: float
) -> QueueEstimate:
    """Full mean-value estimate for one operating point."""
    return QueueEstimate(
        utilisation=utilisation(lam, batch, tau),
        fill_wait_s=mean_fill_wait(lam, batch, timeout),
        queue_wait_s=mean_queue_wait(lam, batch, tau),
        service_s=tau,
    )
