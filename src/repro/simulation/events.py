"""Event types of the serving simulation."""

from __future__ import annotations

import enum
from typing import Any


class EventKind(enum.Enum):
    """What a queued event means.

    Members hash by identity: they are singletons (a pickle round trip
    returns the same object), and the event loop looks every event's
    handler up by kind, where ``Enum.__hash__`` would be a Python call.
    """

    __hash__ = object.__hash__

    #: a request arrives at the platform gateway.
    ARRIVAL = "arrival"
    #: windowed arrival mode: sample and schedule the next window of
    #: arrivals (keeps the arrival lane O(window), not O(trace)).
    ARRIVAL_REFILL = "arrival_refill"
    #: a batch queue's waiting deadline fires (flush partial batch).
    BATCH_TIMEOUT = "batch_timeout"
    #: an executing batch finishes.
    BATCH_COMPLETE = "batch_complete"
    #: the periodic auto-scaling control step.
    CONTROL_TICK = "control_tick"
    #: a materialized fault-plan event fires (repro.faults).
    FAULT = "fault"
    #: a backed-off retry of a stranded request re-enters dispatch.
    RETRY = "retry"
    #: an LLM worker's in-flight prefill iteration, or run of decode
    #: iterations, completes (continuous batching advances at these
    #: token boundaries).
    DECODE_STEP = "decode_step"


class Event:
    """A timestamped event handed to its kind's handler.

    A ``__slots__`` class rather than a dataclass: millions of events
    are created per run.  Events do not compare: the event loop orders
    bare ``(time, seq, event)`` tuples, so ties in time break by
    insertion ``seq`` and the event itself is never compared.
    """

    __slots__ = ("time", "seq", "kind", "payload")

    def __init__(
        self,
        time: float,
        seq: int,
        kind: EventKind,
        payload: Any = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.kind = kind
        self.payload = payload
