"""The telemetry data model: the event table, flat events and spans.

Everything the tracer records is a :class:`TraceEvent` -- a sim-time
timestamp, a kind string and a flat argument dict.  Which fields each
kind carries is declared once, in :data:`EVENT_SCHEMA`; the recording
tracer checks every emitted event against it.  Request *spans*
(``cold_wait -> batch_wait -> exec``) are not tracked live; they are
reconstructed from ``request_complete`` events, whose latency
decomposition (``l = t_cold + t_batch + t_exec``) pins each phase's
boundaries exactly.  This keeps the hot path to one append per event
and makes the span invariant trivially true by construction *of the
export*, while the tests check it against the runtime's own records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

# ---------------------------------------------------------------------------
# drop reasons (satellite: replaces the bare `dropped` count)
# ---------------------------------------------------------------------------
#: the instance's bounded waiting-batch queue overflowed (Fig. 6a rule).
DROP_QUEUE_FULL = "queue_full"
#: no instance exists and the per-function pending queue is at capacity.
DROP_NO_CAPACITY = "no_capacity"
#: dropped while queued behind a cold start that already exceeds the SLO.
DROP_SLO_UNREACHABLE = "slo_unreachable"
#: the serving machine died with the batch in flight.
DROP_SERVER_FAILURE = "server_failure"
#: the request outlived its resilience deadline (``deadline_factor * slo``).
DROP_DEADLINE = "deadline_expired"
#: load-shed at the gateway: the backlog already exceeds what the
#: ready fleet can clear within the SLO.
DROP_SHED = "shed_overload"
#: the request can never fit: prompt + output KV exceeds every
#: worker's cache capacity (repro.llm admission guard).
DROP_KV_INFEASIBLE = "kv_infeasible"

DROP_REASONS = (
    DROP_QUEUE_FULL,
    DROP_NO_CAPACITY,
    DROP_SLO_UNREACHABLE,
    DROP_SERVER_FAILURE,
    DROP_DEADLINE,
    DROP_SHED,
    DROP_KV_INFEASIBLE,
)

# ---------------------------------------------------------------------------
# preemption reasons (repro.llm: KV-memory pressure during decode)
# ---------------------------------------------------------------------------
#: victim's KV cache swapped to host memory; resumes where it left off.
PREEMPT_SWAP = "swap"
#: victim's KV cache discarded; the request restarts from prefill.
PREEMPT_SACRIFICE = "sacrifice"

PREEMPT_MODES = (PREEMPT_SWAP, PREEMPT_SACRIFICE)


# ---------------------------------------------------------------------------
# event kinds
# ---------------------------------------------------------------------------
REQUEST_ARRIVAL = "request_arrival"
REQUEST_PARKED = "request_parked"
REQUEST_ENQUEUED = "request_enqueued"
REQUEST_DROP = "request_drop"
REQUEST_COMPLETE = "request_complete"
BATCH_START = "batch_start"
CONTROL_TICK = "control_tick"
DISPATCH_PLAN = "dispatch_plan"
SCALE_UP = "scale_up"
SCALE_DOWN = "scale_down"
COLD_START = "cold_start"
COLDSTART_DECISION = "coldstart_decision"
VERTICAL_RESIZE = "vertical_resize"
SERVER_FAILURE = "server_failure"
SERVER_RECOVERY = "server_recovery"
REQUEST_RETRY = "request_retry"
FAULT_INJECTED = "fault_injected"
LLM_STEP = "llm_step"
PREEMPTION = "preemption"
SWAP_IN = "swap_in"
FIRST_TOKEN = "first_token"
WORKFLOW_STAGE = "workflow_stage"
WORKFLOW_COMPLETE = "workflow_complete"

#: the per-request phase names, in lifecycle order.
REQUEST_PHASES = ("cold_wait", "batch_wait", "exec")


@dataclass(frozen=True)
class EventSchema:
    """One row of :data:`EVENT_SCHEMA`: what an event of a kind carries."""

    #: the fields the emitting site passes, in recorded order.
    fields: Tuple[str, ...]
    #: fields holding raw ids the recording tracer interns, in interning
    #: order: ``request``, ``workflow_id`` and the ``requests`` list index
    #: requests; ``instance`` indexes instances.
    ids: Tuple[str, ...] = ()
    #: the recording tracer adds a fresh ``batch`` id and returns it.
    mints_batch: bool = False
    #: Chrome-trace instant-event label; None keeps the kind off the
    #: control-plane instant track.
    instant: Optional[str] = None


_REQUEST = ("request",)
_REQUEST_INSTANCE = ("request", "instance")

#: event kind -> schema row.  Adding an event kind takes one row here
#: and one line in ``docs/telemetry.md``.
EVENT_SCHEMA: Dict[str, EventSchema] = {
    # -- request lifecycle
    REQUEST_ARRIVAL: EventSchema(("request", "function"), _REQUEST),
    REQUEST_PARKED: EventSchema(("request", "function"), _REQUEST),
    REQUEST_ENQUEUED: EventSchema(
        ("request", "function", "instance", "cold"), _REQUEST_INSTANCE
    ),
    REQUEST_DROP: EventSchema(
        ("request", "function", "reason"), _REQUEST, instant="drop"
    ),
    REQUEST_COMPLETE: EventSchema(
        (
            "request", "function", "instance", "batch", "arrival",
            "cold_wait_s", "batch_wait_s", "exec_s", "latency_s",
            "batch_size", "config", "slo_s", "violated",
        ),
        _REQUEST_INSTANCE,
    ),
    BATCH_START: EventSchema(
        ("instance", "function", "requests", "batch_size", "exec_s", "config"),
        ("instance", "requests"),
        mints_batch=True,
    ),
    # -- control plane
    CONTROL_TICK: EventSchema(("functions",), instant="control_tick"),
    DISPATCH_PLAN: EventSchema((
        "function", "case", "assigned", "total_assigned", "residual_rps",
        "to_release",
    )),
    SCALE_UP: EventSchema(
        ("function", "launched", "reclaimed", "residual_rps"),
        instant="scale_up",
    ),
    SCALE_DOWN: EventSchema(("function", "released"), instant="scale_down"),
    COLD_START: EventSchema(
        ("function", "instance", "ready_at", "config"), ("instance",),
        instant="cold_start",
    ),
    COLDSTART_DECISION: EventSchema(
        ("function", "prewarm_s", "keepalive_s"), instant="coldstart_decision"
    ),
    VERTICAL_RESIZE: EventSchema(
        ("function", "instance", "old_gpu", "new_gpu", "r_up"), ("instance",)
    ),
    # -- faults
    SERVER_FAILURE: EventSchema(("server", "lost"), instant="server_failure"),
    SERVER_RECOVERY: EventSchema(("server",)),
    FAULT_INJECTED: EventSchema(("fault", "detail")),
    REQUEST_RETRY: EventSchema(
        ("request", "function", "attempt", "delay_s"), _REQUEST
    ),
    # -- autoregressive serving (repro.llm)
    LLM_STEP: EventSchema(
        ("instance", "step", "batch_tokens", "sequences", "duration_s"),
        ("instance",),
    ),
    FIRST_TOKEN: EventSchema(
        ("request", "function", "instance", "ttft_s"), _REQUEST_INSTANCE
    ),
    PREEMPTION: EventSchema(
        ("request", "function", "instance", "mode", "policy", "kv_tokens"),
        _REQUEST_INSTANCE,
    ),
    SWAP_IN: EventSchema(
        ("request", "function", "instance", "kv_tokens"), _REQUEST_INSTANCE
    ),
    # -- DAG workflows (repro.workflows); ``workflow_id`` is the root
    # request's id, linking every stage request of one execution.
    WORKFLOW_STAGE: EventSchema(
        ("workflow_id", "request", "function"), ("workflow_id", "request")
    ),
    WORKFLOW_COMPLETE: EventSchema(
        ("workflow_id", "workflow", "origin", "latency_s", "slo_s"),
        ("workflow_id",),
    ),
}


@dataclass
class TraceEvent:
    """One recorded observation: ``(sim time, kind, flat args)``."""

    # Slots: a traced run holds one of these per event.
    __slots__ = ("ts", "kind", "args")

    ts: float
    kind: str
    args: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        """A flat JSON-serialisable view (args keys never clash)."""
        payload: Dict[str, Any] = {"ts": self.ts, "kind": self.kind}
        payload.update(self.args)
        return payload


@dataclass
class Span:
    """A closed interval on some track, derived from trace events."""

    name: str
    cat: str  # "request" | "instance" | "system"
    start: float
    end: float
    track: int  # request id, instance id or 0 for system tracks
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in sim-time seconds."""
        return self.end - self.start


def _event_dict(event) -> Dict[str, Any]:
    """Accept both TraceEvent objects and already-flat dicts."""
    if isinstance(event, dict):
        return event
    return event.to_dict()


def request_spans(events: Iterable[Any]) -> List[Span]:
    """Per-request phase spans from ``request_complete`` events.

    Each completed request yields up to three contiguous spans
    (zero-length phases are skipped) tiling exactly
    ``[arrival, completion]`` -- the paper's decomposition
    ``l = t_cold + t_batch + t_exec`` rendered on one track per
    request.
    """
    spans: List[Span] = []
    for raw in events:
        event = _event_dict(raw)
        if event["kind"] != REQUEST_COMPLETE:
            continue
        request = int(event["request"])
        cursor = float(event["arrival"])
        shared = {"function": event["function"], "batch": event["batch"]}
        for phase in REQUEST_PHASES:
            duration = float(event[f"{phase}_s"])
            if duration <= 1e-9:  # skip float-residual "phases"
                continue
            spans.append(
                Span(
                    name=phase,
                    cat="request",
                    start=cursor,
                    end=cursor + duration,
                    track=request,
                    args=dict(shared),
                )
            )
            cursor += duration
    return spans


def batch_spans(events: Iterable[Any]) -> List[Span]:
    """Per-instance batch execution spans from ``batch_start`` events."""
    spans: List[Span] = []
    for raw in events:
        event = _event_dict(raw)
        if event["kind"] != BATCH_START:
            continue
        spans.append(
            Span(
                name=f"batch b={event['batch_size']}",
                cat="instance",
                start=float(event["ts"]),
                end=float(event["ts"]) + float(event["exec_s"]),
                track=int(event["instance"]),
                args={
                    "function": event["function"],
                    "batch": event["batch"],
                    "config": event["config"],
                },
            )
        )
    return spans
