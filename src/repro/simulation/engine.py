"""A minimal deterministic discrete-event loop."""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.events import Event, EventKind

Handler = Callable[[Event], None]

#: heap entry: (time, seq, event).  Bare tuples keep heap sift
#: comparisons in C (float/int compares) instead of calling
#: ``Event.__lt__``; ties in time still break by insertion seq.
_HeapEntry = Tuple[float, int, Event]


class EventBudgetExceeded(RuntimeError):
    """The event budget ran out before the heap drained.

    Carries where the loop stopped so callers can salvage partial
    metrics (the collector holds everything processed up to ``now``)
    instead of losing the whole run.
    """

    def __init__(self, now: float, processed: int, budget: int) -> None:
        super().__init__(
            f"event budget of {budget} exhausted at t={now:.3f}s"
            f" after {processed} events"
        )
        self.now = now
        self.processed = processed
        self.budget = budget


class EventLoop:
    """Event heap plus a pre-sorted lane, with per-kind handlers.

    Dynamic events (completions, wakes, ticks, faults, retries) go on
    the heap one :meth:`schedule` call at a time.  Blocks of events
    known up front -- a workload's arrivals -- go in one
    :meth:`schedule_many` call into the *lane*: parallel lists sorted
    once, never sifted.  :meth:`run` merges the lane and the heap by
    ``(time, seq)``, which is exactly the order one heap holding every
    event would pop them in.

    Determinism: ties in time break by insertion sequence, so identical
    seeds replay identically.
    """

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._seq = itertools.count()
        self._handlers: Dict[EventKind, Handler] = {}
        # The lane, in descending (time, seq) order: its head is the
        # last item, so taking it is three O(1) pops, and a draining
        # lane shrinks as a draining heap would.
        self._lane_times: List[float] = []
        self._lane_seqs: List[int] = []
        self._lane_payloads: List[Any] = []
        self._lane_kind: Optional[EventKind] = None
        self.now = 0.0
        self.processed = 0

    def on(self, kind: EventKind, handler: Handler) -> None:
        """Register the handler for one event kind."""
        self._handlers[kind] = handler

    def schedule(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Queue an event; times before `now` clamp to `now` (causality)."""
        if time < self.now:
            time = self.now
        seq = next(self._seq)
        event = Event(time, seq, kind, payload)
        heappush(self._heap, (time, seq, event))
        return event

    def schedule_many(
        self, times: Sequence[float], kind: EventKind, payloads: Sequence[Any]
    ) -> None:
        """Queue one ``kind`` event per ``(time, payload)`` in the lane.

        Equivalent to calling :meth:`schedule` for each pair in turn --
        same clamping, one seq each from the same counter, so every
        later event's seq is unchanged -- without a heap push per event.
        ``times`` need not be sorted; ties keep the given order.  A
        block scheduled while an earlier one is still queued merges
        into its undrained tail by ``(time, seq)``.
        """
        count = len(payloads)
        if count == 0:
            return
        if self._lane_times and kind is not self._lane_kind:
            raise ValueError(
                f"the lane holds {self._lane_kind} events; cannot add {kind}"
            )
        base = next(self._seq)
        self._seq = itertools.count(base + count)
        due = np.asarray(times, dtype=float)
        if due.min() < self.now:
            due = np.maximum(due, self.now)
        # Descending (time, seq): a stable ascending sort, reversed.
        order = np.argsort(due, kind="stable")[::-1]
        block_times = due[order].tolist()
        block_payloads = [payloads[index] for index in order]
        order += base  # now the seqs, in lane order
        lane = (block_times, order.tolist(), block_payloads)
        if self._lane_times:
            # Every queued seq is below the block's, so the merged
            # (time, seq) keys are unique: payloads never compare.
            merged = sorted(
                itertools.chain(
                    zip(self._lane_times, self._lane_seqs, self._lane_payloads),
                    zip(*lane),
                ),
                reverse=True,
            )
            lane = tuple(map(list, zip(*merged)))
        self._lane_times, self._lane_seqs, self._lane_payloads = lane
        self._lane_kind = kind

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Drain the heap and the lane (optionally stopping at a horizon)."""
        heap = self._heap
        handlers = self._handlers
        while True:
            # The lane's head goes first unless the heap's head sorts
            # before it by (time, seq).  Handlers may schedule a new
            # block, so the lane is read afresh for every event.
            lane_times = self._lane_times
            if lane_times:
                time = lane_times[-1]
                from_lane = not heap or time < heap[0][0] or (
                    time == heap[0][0] and self._lane_seqs[-1] < heap[0][1]
                )
            elif heap:
                from_lane = False
            else:
                break
            if from_lane:
                if until is not None and time > until:
                    break
                if self.processed >= max_events:
                    raise EventBudgetExceeded(self.now, self.processed, max_events)
                lane_times.pop()
                event = Event(
                    time, self._lane_seqs.pop(), self._lane_kind,
                    self._lane_payloads.pop(),
                )
            else:
                if until is not None and heap[0][0] > until:
                    break
                if self.processed >= max_events:
                    raise EventBudgetExceeded(self.now, self.processed, max_events)
                time, _seq, event = heappop(heap)
            self.now = time
            handler = handlers.get(event.kind)
            if handler is None:
                raise RuntimeError(f"no handler for event kind {event.kind}")
            handler(event)
            self.processed += 1
