"""The resilience ledger of one serving run.

The serving runtime builds it from a fault plan or a resilience policy,
calls it at admission, dispatch, batch start and completion, instance
loss, control ticks and report time, and hands it the callbacks that
dispatch, drop and book a retry of a request; the invariant audit reads
its public fields.  Requests, instances and batches are the runtime's,
read duck-typed: the runtime imports this module, never the reverse.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.instance import InstanceState
from repro.faults.plan import ColdStartStraggler
from repro.faults.resilience import ResiliencePolicy, backlog_sheds
from repro.telemetry import DROP_DEADLINE, DROP_SERVER_FAILURE, Tracer
from repro.telemetry import spans as ev


class ResilienceLedger:
    """Retries, outages and stragglers of one chaos or policy run.

    Without a policy nothing is shed, expired or retried: a lost batch
    is dropped when its completion fires.  Retry jitter draws from the
    policy's own seeded stream, so the main stream is untouched.
    """

    def __init__(
        self, policy: Optional[ResiliencePolicy], platform, tracer: Tracer,
        dispatch: Callable, drop: Callable, book_retry: Callable,
    ) -> None:
        self.policy = policy
        self.platform = platform
        self.tracer = tracer
        self._dispatch = dispatch
        self._drop = drop
        self._book_retry = book_retry
        self._rng = np.random.default_rng(policy.seed) if policy is not None else None
        #: requests waiting out a retry backoff (conservation ledger).
        self.retry_pending = 0
        self.retries = 0
        self.retry_completions = 0
        self.redispatched = 0
        #: instance_id -> its executing batch, retried if it is lost.
        self.inflight: Dict[int, object] = {}
        #: per-function open outage start / closed outage durations
        #: (an outage runs from an instance loss to the function's next
        #: completed batch), feeding the MTTR metric.
        self.outage_start: Dict[str, float] = {}
        self.outage_durations: Dict[str, List[float]] = {}
        self.straggler_windows: List[ColdStartStraggler] = []
        self.stretched: set = set()

    def sheds(self, name: str, now: float, pending: int) -> bool:
        """Whether an arrival is shed, with ``pending`` requests parked."""
        policy = self.policy
        if policy is None or not policy.shed_enabled:
            return False
        platform = self.platform
        return backlog_sheds(
            platform.instances(name), pending, now,
            platform.function(name).slo_s, policy.shed_slo_factor,
        )

    def expired(self, request, now: float) -> bool:
        """Whether ``request`` is past its policy deadline at ``now``."""
        return self.policy is not None and self.policy.expired(
            now, request.origin, request.slo_s
        )

    def settle(self, instance, now: float) -> None:
        """A batch of ``instance`` completed: it may close an outage."""
        self.inflight.pop(instance.instance_id, None)
        name = instance.function.name
        started = self.outage_start.pop(name, None)
        if started is not None:
            self.outage_durations.setdefault(name, []).append(now - started)

    def lose(self, instance, now: float) -> int:
        """Re-account a lost instance; return the executing requests lost.

        Under a policy its executing batch is marked lost and each
        member retried; queued requests survived in the gateway and
        are re-dispatched.
        """
        stranded = 0
        batch = self.inflight.pop(instance.instance_id, None)
        if batch is not None and self.policy is not None:
            batch.lost = True
            instance.busy = False
            stranded = len(batch.requests)
            for request in batch.requests:
                self._retry_or_drop(request, now)
        self.outage_start.setdefault(instance.function.name, now)
        while instance.queue is not None and not instance.queue.is_empty:
            for request in instance.queue.drain(now):
                self.redispatched += 1
                self._dispatch(request)
        return stranded

    def _retry_or_drop(self, request, now: float) -> None:
        """Book a backed-off retry, or drop when the budget is out."""
        policy = self.policy
        attempt = request.attempt + 1
        if attempt > policy.max_retries:
            self._drop(request, DROP_SERVER_FAILURE)
            return
        delay = policy.backoff_s(attempt, float(self._rng.random()))
        if now + delay > policy.deadline_s(request.origin, request.slo_s):
            self._drop(request, DROP_DEADLINE)
            return
        request.attempt = attempt
        self.retry_pending += 1
        self.retries += 1
        if self.tracer.enabled:
            self.tracer.emit(
                ev.REQUEST_RETRY, now, request=request.request_id,
                function=request.function, attempt=attempt, delay_s=delay,
            )
        self._book_retry(now + delay, request)

    def on_retry(self, event) -> None:
        """A retry's backoff ran out: dispatch the request again."""
        request = event.payload
        self.retry_pending -= 1
        # The retry re-enters the current stage: its batch deadline
        # restarts here while the origin keeps driving the SLO/deadline.
        request.arrival = event.time
        self._dispatch(request)

    def start_straggler(self, fault: ColdStartStraggler, now: float) -> None:
        self.straggler_windows.append(fault)
        self.stretch_cold_starts(now)

    def stretch_cold_starts(self, now: float) -> None:
        """Stretch pending cold starts covered by a straggler window."""
        self.straggler_windows = [
            w for w in self.straggler_windows if now < w.at_s + w.duration_s
        ]
        windows = [w for w in self.straggler_windows if w.at_s <= now]
        if not windows:
            return
        factor = max(w.factor for w in windows)
        for instance in self.platform.registry.all_active_instances():
            if (
                instance.state == InstanceState.COLD_STARTING
                and instance.ready_at > now
                and instance.instance_id not in self.stretched
            ):
                instance.ready_at = now + (instance.ready_at - now) * factor
                self.stretched.add(instance.instance_id)

    def summary(
        self, availability: float, fault_counts: Dict[str, int], now: float
    ) -> Dict[str, object]:
        """The report's ``resilience`` block."""
        durations = {n: list(v) for n, v in self.outage_durations.items()}
        # An outage still open at the end of the run never recovered;
        # count the full remaining window so MTTR cannot hide it.
        for name, started in self.outage_start.items():
            durations.setdefault(name, []).append(now - started)
        return {
            "availability": availability,
            "faults_injected": int(sum(fault_counts.values())),
            "fault_counts": dict(fault_counts),
            "retries": self.retries,
            "retry_completions": self.retry_completions,
            "redispatched": self.redispatched,
            "mttr_s": {
                name: float(np.mean(values))
                for name, values in sorted(durations.items()) if values
            },
            "policy": None if self.policy is None else asdict(self.policy),
        }
