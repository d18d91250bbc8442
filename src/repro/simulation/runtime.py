"""The serving runtime: requests, batch queues and instance execution.

Drives a :class:`~repro.simulation.platform.ServingPlatform` with
pre-sampled arrival streams.  The lifecycle of one request:

1. **arrival** -- recorded, fed to the cold-start policy, routed to an
   instance (or parked in a per-function pending queue when no
   instance exists yet);
2. **batching** -- waits in the instance's batch queue until the batch
   fills or the waiting deadline (``t_slo - t_exec``) fires; per
   Fig. 6(a), a request arriving while the instance is busy and the
   waiting batch is already full is dropped;
3. **execution** -- the ground-truth executor supplies the (noisy)
   batch duration; completion records the latency decomposition
   ``l = t_cold + t_batch + t_exec``.

The control loop ticks every :data:`CONTROL_INTERVAL_S`: it estimates each
function's RPS (measured EWMA by default, or an oracle reading of the
trace), runs the platform's auto-scaler, re-dispatches parked requests
and samples resource usage.

Fault injection (``repro.faults``): a seeded :class:`FaultPlan` is
materialized into ordinary heap events, and a
:class:`~repro.faults.ResiliencePolicy` adds per-request deadlines,
exponential-backoff retries of requests stranded in lost batches, and
gateway load-shedding.  Their state lives in one
:class:`~repro.faults.ResilienceLedger`; with neither configured there
is none, and the zero-fault replay is bit-identical to a runtime
without this machinery.

:class:`RuntimeCore` is the part this runtime shares with the
token-boundary :class:`~repro.llm.simulation.LLMSimulation`: the event
loop, metrics, tracer, audit, fault dispatch, control-tick skeleton and
:meth:`~RuntimeCore.run`.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import asdict
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.cluster.fleet import profile_map
from repro.core.autoscaler import ControlOutcome
from repro.core.instance import Instance, InstanceState
from repro.faults import (
    ColdStartStraggler,
    FaultPlan,
    InstanceKill,
    ResilienceLedger,
    ResiliencePolicy,
    ServerCrash,
    ServerRecovery,
)
from repro.invariants import InvariantChecker, resolve_checker
from repro.ops.costmodel import LognormalStream
from repro.profiling.executor import GroundTruthExecutor
from repro.simulation.engine import EventLoop
from repro.simulation.events import Event, EventKind
from repro.simulation.metrics import (
    MetricsCollector,
    SimulationReport,
    sample_usage,
)
from repro.simulation.platform import ServingPlatform
from repro.telemetry import (
    DROP_DEADLINE,
    DROP_NO_CAPACITY,
    DROP_QUEUE_FULL,
    DROP_SERVER_FAILURE,
    DROP_SHED,
    DROP_SLO_UNREACHABLE,
    NULL_TRACER,
    TimelineRecorder,
    Tracer,
    attach_tracer,
)
from repro.telemetry import spans as ev
from repro.workloads.arrivals import sample_arrivals, sample_arrivals_window
from repro.workloads.trace import Trace
from repro.workflows import WorkflowLedger, WorkflowSpec

_request_ids = itertools.count()

#: the control loop's tick period, seconds.
CONTROL_INTERVAL_S = 1.0
#: weight of the newest per-tick measurement in the EWMA rate estimate.
EWMA_WEIGHT = 0.6
#: requests parked per function while it has no instance; beyond it
#: arrivals drop (``no_capacity``).
PENDING_CAP = 100_000
#: batches that may queue at a still cold-starting instance before
#: arrivals drop.
COLD_QUEUE_BATCHES = 64


class Request:
    """One inference request in flight.

    ``arrival`` is when the request reached its current stage (it
    drives the stage's batch-queue deadline; a retry moves it to the
    retry's dispatch).  ``origin`` is when the user issued the request
    at the entry stage (it drives the end-to-end SLO), and ``root`` is
    the id of the workflow request it serves.  Both are set once: a
    fresh request is its own origin and root, a workflow token inherits
    them from its upstream stage.

    A ``__slots__`` class: one instance exists per simulated request,
    so per-object dict overhead dominates replay memory otherwise.
    """

    __slots__ = (
        "function", "arrival", "slo_s", "origin", "request_id", "attempt",
        "root",
    )

    def __init__(
        self,
        function: str,
        arrival: float,
        slo_s: float,
        origin: Optional[float] = None,
        request_id: Optional[int] = None,
        root: Optional[int] = None,
    ) -> None:
        self.function = function
        self.arrival = arrival
        self.slo_s = slo_s
        self.origin = arrival if origin is None else origin
        self.request_id = (
            next(_request_ids) if request_id is None else request_id
        )
        #: how many times the request has been re-dispatched after
        #: being stranded in a lost batch (resilience retries).
        self.attempt = 0
        self.root = self.request_id if root is None else root


class _BatchInFlight:
    """One executing batch: its instance, members and timing."""

    __slots__ = ("instance", "requests", "start", "exec_s", "batch_id", "lost")

    def __init__(
        self,
        instance: Instance,
        requests: list,
        start: float,
        exec_s: float,
        batch_id: int = 0,
    ) -> None:
        self.instance = instance
        self.requests = requests
        self.start = start
        self.exec_s = exec_s
        # tracer-assigned batch id (0 with the null tracer).
        self.batch_id = batch_id
        # set when the batch died with its server and its requests were
        # already re-accounted (retried or dropped) at crash time.
        self.lost = False


class RuntimeCore:
    """The gateway and control loop every serving runtime shares.

    Owns the event loop, metrics collector, tracer, timeline, audit,
    seeded rng, horizon, per-tick arrival counters and the fault plan;
    runs the one fault dispatch (server crash, recovery, instance
    kill), the control-tick skeleton and :meth:`run`.  A subclass
    supplies the request path through these hooks:

    * ``_schedule_arrivals()`` and ``_admit(request)`` -- the
      workload's way in (arrivals are counted and traced here first;
      :class:`ServingSimulation` replaces the whole arrival handler
      with one flat one, as its per-request path is the hot one);
    * ``_control(name, now)`` -- one function's share of a control
      tick; ``_after_control(now)`` -- work after every function's;
    * ``_handle_lost(lost)`` -- re-account what died with a machine or
      an instance, given the platform's ``on_server_failure`` result
      or a one-element list of its ``kill_instance`` result;
    * ``_audit_tick(now)`` / ``_audit_final(now)`` -- the audit's
      entry points for this runtime;
    * ``_report()`` -- finalize the metrics into a report.
    """

    def __init__(
        self,
        platform,
        workload: Dict[str, Trace],
        warmup_s: float,
        tracer: Optional[Tracer],
        timeline: Optional[TimelineRecorder],
        invariants: Union[None, str, InvariantChecker],
        faults: Union[None, FaultPlan, Dict[str, object], str],
        metrics_mode: str,
        seed: int,
    ) -> None:
        self.platform = platform
        self.workload = dict(workload)
        self.warmup_s = warmup_s
        #: the functions each control tick visits, in order.
        self._managed = list(workload)
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: cached ``tracer.enabled``: guards every emit so a disabled
        #: tracer costs one attribute read, not a no-op call.
        self._trace: bool = self.tracer.enabled
        if self._trace:
            attach_tracer(platform, self.tracer)
            self._bind_recorders()
        self.timeline = timeline
        self.invariants = resolve_checker(invariants)
        self._rng = np.random.default_rng(seed)
        self.loop = EventLoop()
        self.metrics = MetricsCollector(
            metrics_mode=metrics_mode, warmup_s=warmup_s
        )
        self.faults = FaultPlan.coerce(faults)
        self._fault_counts: Counter = Counter()
        #: fault kind -> live handler; kinds without one (ingress
        #: spikes) act when arrivals are scheduled.
        self._fault_handlers: Dict[str, Callable[[object, float], None]] = {
            ServerCrash.kind: self._crash_server,
            ServerRecovery.kind: self._recover_server,
            InstanceKill.kind: self._kill_instance,
        }
        self._arrivals_since_tick: Dict[str, int] = dict.fromkeys(
            self._managed, 0
        )
        self._horizon = max(trace.duration_s for trace in workload.values())
        #: when the queued control tick fires, and the times of the
        #: queued faults, latest first; each is updated once its
        #: handler has run.
        self._next_tick_s = 0.0
        self._faults_due: List[float] = []
        self.loop.on(EventKind.ARRIVAL, self._on_arrival)
        self.loop.on(EventKind.CONTROL_TICK, self._on_control_tick)
        self.loop.on(EventKind.FAULT, self._on_fault)

    def _bind_recorders(self) -> None:
        """Bind the per-request and per-batch emit sites, once.

        Each bound call records its values in the row's field order,
        unchecked; rare control-plane sites keep the keyword
        ``tracer.emit``.  Only a traced runtime binds: every call site
        is behind ``_trace``, and an untraced ``LLMSimulation`` stays
        within the 30 instance attributes CPython stores inline.
        """
        recorder = self.tracer.recorder
        self._record_arrival = recorder(
            ev.REQUEST_ARRIVAL, "request", "function"
        )
        self._record_drop = recorder(
            ev.REQUEST_DROP, "request", "function", "reason"
        )
        self._record_parked = recorder(
            ev.REQUEST_PARKED, "request", "function"
        )
        self._record_enqueued = recorder(
            ev.REQUEST_ENQUEUED, "request", "function", "instance", "cold"
        )
        self._record_batch_start = recorder(
            ev.BATCH_START, "instance", "function", "requests", "batch_size",
            "exec_s", "config",
        )
        self._record_complete = recorder(
            ev.REQUEST_COMPLETE, "request", "function", "instance", "batch",
            "arrival", "cold_wait_s", "batch_wait_s", "exec_s", "latency_s",
            "batch_size", "config", "slo_s", "violated",
        )
        self._record_workflow_stage = recorder(
            ev.WORKFLOW_STAGE, "workflow_id", "request", "function"
        )
        self._record_workflow_complete = recorder(
            ev.WORKFLOW_COMPLETE, "workflow_id", "workflow", "origin",
            "latency_s", "slo_s",
        )

    # ------------------------------------------------------------------
    # arrival path
    # ------------------------------------------------------------------
    def _on_arrival(self, event: Event) -> None:
        request = event.payload
        now = self.loop.now
        self.metrics.record_arrival(now)
        if self._trace:
            self._record_arrival(now, request.request_id, request.function)
        self._arrivals_since_tick[request.function] += 1
        self.platform.record_invocation(request.function, now)
        self._admit(request)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _on_fault(self, event: Event) -> None:
        """Execute one materialized fault-plan event."""
        fault = event.payload
        now = self.loop.now
        self._fault_counts[fault.kind] += 1
        if self._trace:
            detail = ", ".join(
                f"{key}={value}"
                for key, value in asdict(fault).items()
                if key not in ("kind", "at_s")
            )
            self.tracer.emit(
                ev.FAULT_INJECTED, now, fault=fault.kind, detail=detail
            )
        handler = self._fault_handlers.get(fault.kind)
        if handler is not None:
            handler(fault, now)
        self._faults_due.pop()

    def _crash_server(self, fault: ServerCrash, now: float) -> None:
        """Kill one machine through the platform's failure hook."""
        lost = self.platform.on_server_failure(fault.server_id, now)
        if self._trace:
            self.tracer.emit(
                ev.SERVER_FAILURE, now, server=fault.server_id,
                lost=len(lost),
            )
        self._handle_lost(lost)

    def _recover_server(self, fault: ServerRecovery, now: float) -> None:
        cluster = self.platform.cluster
        if not cluster.server(fault.server_id).healthy:
            cluster.recover_server(fault.server_id)
            if self._trace:
                self.tracer.emit(
                    ev.SERVER_RECOVERY, now, server=fault.server_id
                )

    def _kill_instance(self, fault: InstanceKill, now: float) -> None:
        victim = self.platform.kill_instance(fault.function, now)
        if victim is not None:
            self._handle_lost([victim])

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def _on_control_tick(self, event: Event) -> None:
        now = self.loop.now
        if self._trace:
            self.tracer.emit(
                ev.CONTROL_TICK, now, functions=len(self._managed)
            )
        for name in self._managed:
            self._control(name, now)
        self._after_control(now)
        sample_usage(self.metrics, self.platform.cluster, now)
        if self.invariants.enabled:
            self._audit_tick(now)
        next_tick = now + CONTROL_INTERVAL_S
        if next_tick <= self._horizon:
            self.loop.schedule(next_tick, EventKind.CONTROL_TICK)
        else:
            next_tick = math.inf
        self._next_tick_s = next_tick

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Replay the full workload and return the aggregated report."""
        self._schedule_arrivals()
        if self.faults is not None:
            num_servers = len(self.platform.cluster.servers)
            self._faults_due = sorted((
                self.loop.schedule(fault.at_s, EventKind.FAULT, fault).time
                for fault in self.faults.materialize(self._horizon, num_servers)
            ), reverse=True)
        self.loop.schedule(0.0, EventKind.CONTROL_TICK)
        self.loop.run()
        sample_usage(self.metrics, self.platform.cluster, self.loop.now)
        if self.invariants.enabled:
            self._audit_final(self.loop.now)
        report = self._report()
        if self.invariants.enabled:
            self.invariants.check_report(self, report)
            report.invariant_violations = [
                v.to_dict() for v in self.invariants.violations
            ]
        return report


class ServingSimulation(RuntimeCore):
    """Replays traces against a platform and reports the outcome.

    Args:
        platform: the system under test.
        executor: ground-truth execution times (the 'hardware').
        workload: function name -> arrival-rate trace.
        rate_mode: ``"measured"`` estimates RPS from observed arrivals
            with EWMA smoothing (:data:`EWMA_WEIGHT`); ``"oracle"``
            reads the trace directly (models an external rate monitor
            with no estimation lag).
        workflow: optional :class:`~repro.workflows.spec.WorkflowSpec`
            DAG: stage completions fan out along the DAG's edges, join
            barriers gate fan-in stages until every upstream copy
            arrives, and the workflow's ``end_to_end_slo_s`` is judged
            when the sink completes.  Only the entry stage takes a
            workload trace and only the sink records completions; adds
            a ``workflows`` block to the report.
        tracer: telemetry recorder; the default null tracer records
            nothing and costs one flag read per emit site.  The tracer
            is also attached to the platform's control-plane components
            so scale/cold-start decisions land in the same trace.
        timeline: optional per-control-tick metrics recorder (queue
            depths, instance counts, RPS estimate vs. oracle, usage).
        invariants: the conservation-invariant audit layer -- a mode
            string (``"off"``, ``"collect"``, ``"strict"``) or a
            pre-built :class:`~repro.invariants.InvariantChecker`;
            ``None`` resolves the process-wide default mode (off in
            production, strict under the test suite).
        faults: optional chaos scenario -- a
            :class:`~repro.faults.FaultPlan`, its dict form, or a path
            to a plan JSON file; materialized into simulation events at
            :meth:`run`.
        resilience: optional :class:`~repro.faults.ResiliencePolicy`
            (or ``True`` for the defaults) enabling deadlines, retries
            of requests stranded in lost batches, and load-shedding;
            :attr:`resilience_ledger` runs it.
        seed: randomness for arrival sampling, routing noise and
            execution-time noise.
    """

    def __init__(
        self,
        platform: ServingPlatform,
        executor: GroundTruthExecutor,
        workload: Dict[str, Trace],
        rate_mode: str = "measured",
        warmup_s: float = 0.0,
        workflow: Optional[WorkflowSpec] = None,
        tracer: Optional[Tracer] = None,
        timeline: Optional[TimelineRecorder] = None,
        invariants: Union[None, str, InvariantChecker] = None,
        faults: Union[None, FaultPlan, Dict[str, object], str] = None,
        resilience: Union[None, bool, ResiliencePolicy] = None,
        metrics_mode: str = "exact",
        arrival_mode: str = "eager",
        arrival_window_s: float = 60.0,
        seed: int = 42,
    ) -> None:
        if rate_mode not in ("measured", "oracle"):
            raise ValueError("rate_mode must be 'measured' or 'oracle'")
        if arrival_mode not in ("eager", "windowed"):
            raise ValueError("arrival_mode must be 'eager' or 'windowed'")
        if arrival_window_s <= 0:
            raise ValueError("arrival_window_s must be positive")
        super().__init__(
            platform, workload, warmup_s, tracer, timeline, invariants,
            faults, metrics_mode, seed,
        )
        self.executor = executor
        self.rate_mode = rate_mode
        #: the DAG workflow under test and its token ledger (both None
        #: for plain runs).
        self.workflow = workflow
        self.workflow_ledger: Optional[WorkflowLedger] = None
        if workflow is not None:
            stage_names = set(workflow.stage_names())
            entry = workflow.entry
            for name in workload:
                if name in stage_names and name != entry:
                    raise ValueError(
                        f"only the workflow entry stage {entry!r} may carry"
                        f" a workload trace, not {name!r}"
                    )
            if entry not in workload:
                raise ValueError(
                    f"workflow entry stage {entry!r} needs a workload trace"
                )
            self.workflow_ledger = WorkflowLedger(workflow, warmup_s)
            # Read only by benchmarks/e2e/tracing.py:316.
            self._join_fired = self.workflow_ledger.join_fired
            # The control loop also manages the DAG's interior stages,
            # in topological order (upstream rates settle before
            # downstream ones read their forwarded arrivals).
            interior = [
                n for n in workflow.topological_order() if n not in workload
            ]
            self._managed += interior
            self._arrivals_since_tick.update(dict.fromkeys(interior, 0))
        #: server_id -> non-default GPU generation; empty on the
        #: homogeneous baseline fleet, keeping the default execution
        #: path (argument lists, cache keys) bit-identical.
        self._gpu_profiles = profile_map(platform.cluster)
        self.arrival_mode = arrival_mode
        self.arrival_window_s = arrival_window_s
        #: windowed mode: per-function independent arrival streams and
        #: the start of the next window still to be sampled.
        self._arrival_rngs: Dict[str, np.random.Generator] = {}
        self._window_start = 0.0
        self._ingress_spikes: List[object] = []
        #: requests currently inside an executing batch; the audit
        #: layer's request-conservation ledger needs the exact count.
        self.executing = 0
        policy = ResiliencePolicy() if resilience is True else resilience or None
        ledger = None
        if self.faults is not None or policy is not None:
            ledger = ResilienceLedger(
                policy, platform, self.tracer, self._dispatch, self._drop,
                lambda time, request: self.loop.schedule(time, EventKind.RETRY, request),
            )
            self._fault_handlers[ColdStartStraggler.kind] = ledger.start_straggler
            self.loop.on(EventKind.RETRY, ledger.on_retry)
        #: retries, outages and stragglers (None without a fault plan
        #: or a policy).
        self.resilience_ledger: Optional[ResilienceLedger] = ledger
        # Protocol knobs read once: the platform declares them
        # (ServingPlatform), so the runtime never type-sniffs.
        self._ingress_delay_s = platform.ingress_delay_s
        self._waiting_batches = platform.waiting_batches
        self._registry = platform.registry
        # Bound once: every arrival and workflow token calls both.
        self._route = platform.route
        self._record_invocation = platform.record_invocation
        #: execution noise: after arrival sampling only batch starts
        #: draw from the main stream, so its log-normals come in blocks.
        self._noise = LognormalStream(self._rng)
        #: function -> requests parked while it has no instance to take
        #: them; the audit's request-conservation ledger counts them.
        self.parked: Dict[str, Deque[Request]] = {
            name: deque() for name in self._managed
        }
        self._rate_estimate: Dict[str, float] = {
            name: 0.0 for name in self._managed
        }
        self._wake_scheduled: Dict[int, float] = {}
        self.loop.on(EventKind.ARRIVAL_REFILL, self._on_arrival_refill)
        self.loop.on(EventKind.BATCH_TIMEOUT, self._on_wake)
        self.loop.on(EventKind.BATCH_COMPLETE, self._on_batch_complete)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _schedule_arrivals(self) -> None:
        # OTP designs route requests through an external buffer layer
        # before they reach the platform; the request's user-visible
        # arrival predates its dispatch by that ingress delay.
        self._ingress_spikes = (
            self.faults.ingress_spikes() if self.faults is not None else []
        )
        if self.arrival_mode == "windowed":
            # Per-function streams derived from the main stream in
            # sorted-name order: deterministic for a given seed, and
            # the loop only ever holds one window of arrivals plus the
            # previous window's still-undelivered tail.
            names = sorted(self.workload)
            seeds = self._rng.integers(0, 2**63 - 1, size=len(names))
            self._arrival_rngs = {
                name: np.random.default_rng(int(seed))
                for name, seed in zip(names, seeds)
            }
            self._window_start = 0.0
            self.loop.schedule(0.0, EventKind.ARRIVAL_REFILL)
            return
        self._schedule_arrival_times([
            (name, sample_arrivals(trace, self._rng))
            for name, trace in self.workload.items()
        ])

    def _arrival_slo(self, name: str) -> float:
        if self.workflow_ledger is not None and self.workflow_ledger.successors:
            return self.workflow.end_to_end_slo_s
        return self.platform.function(name).slo_s

    def _schedule_arrival_times(
        self, sampled: List[Tuple[str, np.ndarray]]
    ) -> None:
        """Book sampled arrival instants as one block of lane events.

        Requests are built function by function, then by time, so their
        ids follow the sampling order; each is due at its issue time
        plus the ingress delay and any spike it falls in.
        """
        requests: List[Request] = []
        for name, times in sampled:
            slo = self._arrival_slo(name)
            requests.extend(
                map(
                    Request, itertools.repeat(name), times.tolist(),
                    itertools.repeat(slo),
                )
            )
        due = np.concatenate([times for _name, times in sampled])
        due += self._ingress_delay_s
        if self._ingress_spikes:
            for index, request in enumerate(requests):
                extra = 0.0
                for spike in self._ingress_spikes:
                    if spike.covers(request.arrival):
                        extra += spike.extra_delay_s
                due[index] += extra
        self.loop.schedule_many(due, EventKind.ARRIVAL, requests)

    def _on_arrival_refill(self, event: Event) -> None:
        """Sample one window of arrivals and book the next refill."""
        start = self._window_start
        end = min(start + self.arrival_window_s, self._horizon)
        self._schedule_arrival_times([
            (name, sample_arrivals_window(
                self.workload[name], self._arrival_rngs[name], start, end
            ))
            for name in sorted(self.workload)
        ])
        self._window_start = end
        if end < self._horizon:
            self.loop.schedule(end, EventKind.ARRIVAL_REFILL)

    # ------------------------------------------------------------------
    # arrival path
    # ------------------------------------------------------------------
    def _on_arrival(self, event: Event) -> None:
        """One gateway arrival: count it, feed the cold-start policy,
        admit it (workflow ledger, load shedding) and dispatch it."""
        request = event.payload
        name = request.function
        now = self.loop.now
        self.metrics.record_arrival(now)
        if self._trace:
            self._record_arrival(now, request.request_id, name)
        self._arrivals_since_tick[name] += 1
        self._record_invocation(name, now)
        if self.workflow_ledger is not None:
            self.workflow_ledger.admit(request)
        resilience = self.resilience_ledger
        if resilience is not None and resilience.sheds(
            name, now, len(self.parked[name])
        ):
            self._drop(request, DROP_SHED)
            return
        self._dispatch(request)

    def _drop(self, request: Request, reason: str) -> None:
        ledger = self.workflow_ledger
        if ledger is None:
            drop_time = self.loop.now
        elif ledger.absorb_drop(request):
            return
        else:
            # Attributed to the origin cohort, as completions are, or a
            # root admitted in warmup that drops later could make
            # completed+dropped exceed arrived in the kept window.
            drop_time = request.origin
        self.metrics.record_drop(drop_time, reason)
        if self._trace:
            self._record_drop(
                self.loop.now, request.request_id, request.function, reason
            )

    def _dispatch(self, request: Request) -> None:
        resilience = self.resilience_ledger
        if resilience is not None and resilience.expired(request, self.loop.now):
            self._drop(request, DROP_DEADLINE)
            return
        instance = self._route(request.function, self.loop.now)
        if instance is None:
            pending = self.parked[request.function]
            if len(pending) >= PENDING_CAP:
                self._drop(request, DROP_NO_CAPACITY)
                return
            pending.append(request)
            if self._trace:
                self._record_parked(
                    self.loop.now, request.request_id, request.function
                )
            return
        self._enqueue(instance, request)

    def _enqueue(self, instance: Instance, request: Request) -> None:
        now = self.loop.now
        ready = now >= instance.ready_at
        queue = instance.queue
        batch = instance.config.batch
        if ready:
            # Fig. 6(a): while the instance executes, only a bounded
            # number of waiting batches may accumulate (the assembling
            # batch plus one full pending batch by default); overflow
            # requests are dropped.
            if instance.busy and len(queue) >= batch * self._waiting_batches:
                self._drop(request, DROP_QUEUE_FULL)
                return
        else:
            if len(queue) >= batch * COLD_QUEUE_BATCHES:
                # Same overflow rule, but classify hopeless waits: when
                # the pending cold start alone already blows the SLO the
                # drop was inevitable regardless of queue depth.
                reason = (
                    DROP_SLO_UNREACHABLE
                    if instance.ready_at - request.origin > request.slo_s
                    else DROP_QUEUE_FULL
                )
                self._drop(request, reason)
                return
        full = queue.enqueue(request, now)
        if self._trace:
            self._record_enqueued(
                now, request.request_id, request.function,
                instance.instance_id, not ready,
            )
        if instance.busy:
            return
        if ready and not full:
            # A partial batch whose deadline is still ahead and already
            # booked as the wake: _maybe_start would find nothing to do.
            deadline = queue.deadline()
            if (
                now < deadline - 1e-12
                and self._wake_scheduled.get(instance.instance_id) == deadline
            ):
                return
        self._maybe_start(instance)

    # ------------------------------------------------------------------
    # batch lifecycle
    # ------------------------------------------------------------------
    def _maybe_start(self, instance: Instance) -> None:
        if instance.busy or instance.queue.is_empty:
            return
        now = self.loop.now
        if now < instance.ready_at:
            self._schedule_wake(instance, instance.ready_at)
            return
        if instance.queue.should_flush(now):
            self._start_batch(instance)
        else:
            deadline = instance.queue.deadline()
            if deadline is not None:
                self._schedule_wake(instance, deadline)

    def _schedule_wake(self, instance: Instance, time: float) -> None:
        already = self._wake_scheduled.get(instance.instance_id)
        if already is not None and abs(already - time) < 1e-9:
            return
        self._wake_scheduled[instance.instance_id] = time
        self.loop.schedule(time, EventKind.BATCH_TIMEOUT, instance)

    def _on_wake(self, event: Event) -> None:
        instance: Instance = event.payload
        if self._wake_scheduled.get(instance.instance_id) != event.time:
            # Stale: another booking superseded this wake and fires on
            # its own; acting here would only book that deadline twice.
            return
        del self._wake_scheduled[instance.instance_id]
        self._maybe_start(instance)

    def _start_batch(self, instance: Instance) -> None:
        now = self.loop.now
        requests = instance.queue.drain(now)
        self.executing += len(requests)
        instance.busy = True
        instance.idle_since = None
        model = instance.function.model
        gpu_profile = None
        if self._gpu_profiles and instance.placement is not None:
            gpu_profile = self._gpu_profiles.get(instance.placement.server_id)
        exec_s = self.executor.execution_time(
            model, len(requests), instance.config.cpu, instance.config.gpu,
            rng=self._noise, gpu_profile=gpu_profile,
        )
        batch_id = 0
        if self._trace:
            config = instance.config
            batch_id = self._record_batch_start(
                now, instance.instance_id, instance.function.name,
                [r.request_id for r in requests], len(requests), exec_s,
                (config.batch, config.cpu, config.gpu),
            )
        batch = _BatchInFlight(
            instance=instance, requests=requests, start=now, exec_s=exec_s,
            batch_id=batch_id,
        )
        if self.resilience_ledger is not None:
            self.resilience_ledger.inflight[instance.instance_id] = batch
        self.loop.schedule(now + exec_s, EventKind.BATCH_COMPLETE, batch)

    def _on_batch_complete(self, event: Event) -> None:
        batch: _BatchInFlight = event.payload
        if batch.lost:
            # The batch died with its server and its requests were
            # already retried/dropped at crash time.
            return
        instance = batch.instance
        now = self.loop.now
        self.executing -= len(batch.requests)
        if (
            instance.state == InstanceState.TERMINATED
            and instance.placement is None
        ):
            # The server died mid-execution: the in-flight batch is lost.
            for request in batch.requests:
                self._drop(request, DROP_SERVER_FAILURE)
            instance.busy = False
            return
        ledger = self.workflow_ledger
        successors = ledger and ledger.successors.get(instance.function.name)
        if successors:
            ledger.fan_out(batch.requests, successors, now, self._inject)
        else:
            self._complete_batch(batch, now)
        if self.resilience_ledger is not None:
            self.resilience_ledger.settle(instance, now)
        instance.busy = False
        if instance.queue.is_empty:
            instance.idle_since = now
        self._maybe_start(instance)

    def _complete_batch(self, batch: _BatchInFlight, now: float) -> None:
        """Record a batch that leaves the system: one ledger entry.

        Per-request work is only what needs a request: the workflow
        sink's end-to-end judgement, tracer emits and retry counting.
        """
        instance = batch.instance
        requests = batch.requests
        # One (b, c, g) tuple per batch, shared by the ledger and every
        # member's trace row.
        config = instance.config
        bcg = (config.batch, config.cpu, config.gpu)
        ledger = self.workflow_ledger
        sink = (
            ledger is not None
            and instance.function.name in ledger.stage_latencies
        )
        resilience = self.resilience_ledger
        if sink or self._trace or resilience is not None:
            completed = []
            for request in requests:
                if sink and not ledger.complete(request, now):
                    continue
                if sink and self._trace:
                    self._record_workflow_complete(
                        now, request.root, self.workflow.name,
                        request.origin, now - request.origin,
                        self.workflow.end_to_end_slo_s,
                    )
                if request.attempt:
                    resilience.retry_completions += 1
                completed.append(request)
                if self._trace:
                    self._trace_completion(batch, request, now, bcg)
        else:
            completed = requests
        self.metrics.record_batch(
            instance.function.name, completed, batch.start, now,
            instance.ready_at, batch.exec_s, bcg, len(requests),
        )

    def _trace_completion(
        self, batch: _BatchInFlight, request: Request, now: float,
        bcg: Tuple[int, int, int],
    ) -> None:
        """Emit one batch member's REQUEST_COMPLETE span."""
        instance = batch.instance
        cold_wait = min(
            max(0.0, instance.ready_at - request.arrival),
            batch.start - request.arrival,
        )
        latency = now - request.origin
        # batch_wait_s spans every upstream stage of a workflow; the
        # ledger's queue wait is this stage's.
        self._record_complete(
            now, request.request_id, request.function, instance.instance_id,
            batch.batch_id, request.origin, cold_wait,
            max(0.0, now - request.origin - cold_wait - batch.exec_s),
            batch.exec_s, latency, len(batch.requests), bcg, request.slo_s,
            latency > request.slo_s + 1e-9,
        )

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _handle_lost(self, lost: List[Instance]) -> None:
        """Re-account the requests stranded on dead instances."""
        for instance in lost:
            # lose() may re-dispatch into a new batch, which adds to
            # ``executing``; subtract only after it returns.
            stranded = self.resilience_ledger.lose(instance, self.loop.now)
            self.executing -= stranded

    def _inject(
        self, stage: str, root: int, slo_s: float, origin: float
    ) -> None:
        """The workflow ledger's callback: dispatch a token to ``stage``."""
        now = self.loop.now
        token = Request(stage, now, slo_s, origin=origin, root=root)
        if self._trace:
            self._record_workflow_stage(now, root, token.request_id, stage)
        self._arrivals_since_tick[stage] += 1
        self._record_invocation(stage, now)
        self._dispatch(token)

    # ------------------------------------------------------------------
    # control loop
    # ------------------------------------------------------------------
    def _estimate_rate(self, name: str) -> float:
        oracle = self.rate_mode == "oracle"
        if oracle and name in self.workload:
            return self.workload[name].rps_at(self.loop.now)
        measured = self._arrivals_since_tick[name] / CONTROL_INTERVAL_S
        self._arrivals_since_tick[name] = 0
        if oracle:
            # Downstream stages have no trace to read.  Their true
            # arrival rate is the upstream completion throughput on
            # their inbound edges (fan-out already multiplies the
            # forwarded count), so report the raw forwarded rate for
            # the tick instead of EWMA-smoothing from a cold start --
            # the oracle promises no estimation lag for entry stages,
            # and interior stages deserve the same fidelity.
            estimate = measured
        else:
            estimate = (
                EWMA_WEIGHT * measured
                + (1.0 - EWMA_WEIGHT) * self._rate_estimate[name]
            )
        self._rate_estimate[name] = estimate
        return estimate

    def _control(self, name: str, now: float) -> None:
        rate = self._estimate_rate(name)
        outcome = self.platform.control(name, rate, now)
        self._drain_pending(name)
        if self.timeline is not None:
            self._sample_timeline(name, rate, outcome, now)

    def _after_control(self, now: float) -> None:
        if self.resilience_ledger is not None:
            # Cold starts launched by this control step inside an active
            # straggler window are stretched too.
            self.resilience_ledger.stretch_cold_starts(now)
        stats = self._registry.stats
        self.metrics.record_scaling_state(
            now,
            cold_starts=stats.cold_starts,
            launches=stats.launches,
            warm_reuses=stats.warm_reuses,
        )

    def _audit_tick(self, now: float) -> None:
        self.invariants.check_tick(self, now)

    def _drain_pending(self, name: str) -> None:
        pending = self.parked[name]
        resilience = self.resilience_ledger
        while pending:
            if resilience is not None and resilience.expired(
                pending[0], self.loop.now
            ):
                self._drop(pending.popleft(), DROP_DEADLINE)
                continue
            instance = self._route(name, self.loop.now)
            if instance is None:
                return
            self._enqueue(instance, pending.popleft())

    def _sample_timeline(
        self, name: str, rate: float, outcome: ControlOutcome, now: float
    ) -> None:
        """One timeline row for one function at one control tick."""
        instances = self.platform.instances(name)
        live = sum(1 for inst in instances if now >= inst.ready_at)
        launching = len(instances) - live
        queue_depth = sum(
            len(inst.queue) for inst in instances if inst.queue is not None
        )
        oracle = (
            self.workload[name].rps_at(now) if name in self.workload else ""
        )
        self.timeline.sample(
            t=now,
            function=name,
            rate_estimate=rate,
            oracle_rps=oracle,
            pending=len(self.parked[name]),
            queue_depth=queue_depth,
            live_instances=live,
            launching_instances=launching,
            warm_pool=len(self._registry.warm_pool(name)),
            weighted_usage=self.platform.cluster.weighted_used(),
            dispatch_case=outcome.dispatch_case,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _audit_final(self, now: float) -> None:
        self.invariants.check_final(self, now)

    def _report(self) -> SimulationReport:
        stats = self._registry.stats
        report = self.metrics.finalize(
            duration_s=self._horizon,
            warmup_s=self.warmup_s,
            cold_starts=stats.cold_starts,
            launches=stats.launches,
            warm_reuses=stats.warm_reuses,
            reserved_idle_resource_s=stats.reserved_idle_resource_s,
        )
        if self.resilience_ledger is not None:
            report.resilience = self.resilience_ledger.summary(
                report.availability, self._fault_counts, self.loop.now
            )
        if self.workflow_ledger is not None:
            report.workflows = self.workflow_ledger.summary(self._horizon)
        return report
