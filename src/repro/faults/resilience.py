"""Resilience mechanics: deadlines, retry backoff and load shedding.

The policy is pure data + pure math; the run's
:class:`~repro.faults.ledger.ResilienceLedger` owns the RNG stream that
feeds :meth:`ResiliencePolicy.backoff_s` so retry jitter
never perturbs the main simulation stream (arrivals, routing,
execution noise) -- the zero-fault replay stays bit-identical whether
or not a policy object exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the serving layer copes with faults and overload.

    Attributes:
        max_retries: attempts after the first dispatch; a request
            stranded in a lost batch is re-dispatched at most this many
            times before it is dropped.
        backoff_base_s: delay before the first retry.
        backoff_multiplier: exponential growth per further attempt.
        backoff_jitter: +/- fraction of the computed delay randomised
            away to de-synchronise retry storms (0 disables jitter).
        deadline_factor: a request expires ``deadline_factor * slo_s``
            after its user-visible issue time; expired requests are
            dropped (``deadline_expired``) instead of retried or
            dispatched.
        shed_enabled: whether arrivals are load-shed when the
            platform's backlog exceeds what it can clear within the SLO
            (see :func:`backlog_sheds`).
        shed_slo_factor: backlog threshold in units of
            ``capacity_rps * slo_s``.
        seed: the resilience ledger's dedicated retry-jitter RNG
            stream.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.01
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.5
    deadline_factor: float = 3.0
    shed_enabled: bool = True
    shed_slo_factor: float = 2.0
    seed: int = 97

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError("backoff_jitter must lie in [0, 1)")
        if self.deadline_factor < 1.0:
            raise ValueError("deadline_factor must be >= 1")
        if self.shed_slo_factor <= 0:
            raise ValueError("shed_slo_factor must be positive")

    # ------------------------------------------------------------------
    # pure schedule math
    # ------------------------------------------------------------------
    def backoff_s(self, attempt: int, jitter_draw: float = 0.5) -> float:
        """Delay before retry ``attempt`` (1-based).

        ``base * multiplier**(attempt-1)``, spread by the jitter
        fraction: ``jitter_draw`` is a uniform [0, 1) sample mapped to
        ``[-jitter, +jitter]`` around the nominal delay, so the caller
        controls which RNG stream pays for it.
        """
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        nominal = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        spread = self.backoff_jitter * (2.0 * jitter_draw - 1.0)
        return nominal * (1.0 + spread)

    def deadline_s(self, origin: float, slo_s: float) -> float:
        """Absolute expiry time of a request issued at ``origin``."""
        return origin + self.deadline_factor * slo_s

    def expired(self, now: float, origin: float, slo_s: float) -> bool:
        """Whether a request is already past its deadline at ``now``."""
        return now > self.deadline_s(origin, slo_s)


def backlog_sheds(
    instances: Iterable[object],
    pending: int,
    now: float,
    slo_s: float,
    shed_slo_factor: float,
) -> bool:
    """The shed rule the resilience ledger applies to each arrival.

    Shed when the queued + parked backlog exceeds what the *ready*
    fleet can clear within ``shed_slo_factor`` SLO windows.  With zero
    ready capacity (everything still cold-starting, or no instances
    yet) nothing is shed -- requests park and the next control step
    provisions; shedding there would turn every cold start into an
    outage.
    """
    capacity_rps = 0.0
    backlog = pending
    for instance in instances:
        if now >= instance.ready_at:
            capacity_rps += instance.r_up
        if instance.queue is not None:
            backlog += len(instance.queue)
    if capacity_rps <= 0.0:
        return False
    return backlog > capacity_rps * slo_s * shed_slo_factor
