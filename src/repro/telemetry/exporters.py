"""Trace exporters: JSONL, CSV timelines and Chrome ``trace_event``.

* **JSONL** -- one flat JSON object per line, keys sorted, compact
  separators: byte-identical across runs with identical seeds, and
  greppable/jq-able without tooling.
* **CSV** -- the :class:`~repro.telemetry.timeline.TimelineRecorder`
  rows under their fixed column header.
* **Chrome trace** -- the ``trace_event`` JSON object format; the file
  opens directly in ``chrome://tracing`` or https://ui.perfetto.dev.
  Request phases and instance batches become complete (``X``) slices,
  drops/scaling/failures become instant (``i``) events, and queue
  depth / usage become counter (``C``) tracks when a timeline is
  supplied.  Timestamps are microseconds, the unit the format demands.
"""

from __future__ import annotations

import csv
import json
from typing import Any, Dict, Iterable, List, Optional

from repro.telemetry.spans import EVENT_SCHEMA, batch_spans, request_spans
from repro.telemetry.timeline import TIMELINE_COLUMNS, TimelineRecorder

#: Chrome-trace process ids: one synthetic "process" per track family.
PID_REQUESTS = 1
PID_INSTANCES = 2
PID_SYSTEM = 3
PID_COUNTERS = 4


def _normalize(events: Iterable[Any]) -> List[Dict[str, Any]]:
    out = []
    for event in events:
        out.append(event if isinstance(event, dict) else event.to_dict())
    return out


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------
def jsonl_lines(events: Iterable[Any]) -> List[str]:
    """Deterministic one-object-per-line serialisation."""
    return [
        json.dumps(event, sort_keys=True, separators=(",", ":"))
        for event in _normalize(events)
    ]


def write_jsonl(events: Iterable[Any], path: str) -> int:
    """Write a JSONL trace; returns the number of lines written."""
    lines = jsonl_lines(events)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace back into flat event dicts."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ---------------------------------------------------------------------------
# CSV timeline
# ---------------------------------------------------------------------------
def write_timeline_csv(timeline: TimelineRecorder, path: str) -> int:
    """Write the sampled timeline rows; returns the row count."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(TIMELINE_COLUMNS))
        writer.writeheader()
        for row in timeline.rows:
            writer.writerow(row)
    return len(timeline.rows)


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------
def _us(seconds: float) -> float:
    return seconds * 1e6


def chrome_trace(
    events: Iterable[Any], timeline: Optional[TimelineRecorder] = None
) -> Dict[str, Any]:
    """Build the ``trace_event`` JSON object for a recorded run."""
    events = _normalize(events)
    trace_events: List[Dict[str, Any]] = []

    def meta(pid: int, name: str) -> None:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    meta(PID_REQUESTS, "requests")
    meta(PID_INSTANCES, "instances")
    meta(PID_SYSTEM, "control plane")
    meta(PID_COUNTERS, "timelines")

    for span in request_spans(events):
        trace_events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(span.duration),
                "pid": PID_REQUESTS,
                "tid": span.track,
                "args": span.args,
            }
        )
    for span in batch_spans(events):
        trace_events.append(
            {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "ts": _us(span.start),
                "dur": _us(span.duration),
                "pid": PID_INSTANCES,
                "tid": span.track,
                "args": span.args,
            }
        )

    for event in events:
        row = EVENT_SCHEMA.get(event["kind"])
        if row is None or row.instant is None:
            continue
        name = row.instant
        args = {
            key: value
            for key, value in event.items()
            if key not in ("ts", "kind")
        }
        label = event.get("function")
        trace_events.append(
            {
                "name": f"{name}:{label}" if label else name,
                "cat": "system",
                "ph": "i",
                "s": "g",
                "ts": _us(event["ts"]),
                "pid": PID_SYSTEM,
                "tid": 0,
                "args": args,
            }
        )

    if timeline is not None:
        for row in timeline.rows:
            for counter in ("queue_depth", "pending", "live_instances",
                            "weighted_usage"):
                value = row.get(counter)
                if value == "" or value is None:
                    continue
                trace_events.append(
                    {
                        "name": f"{row['function']}:{counter}",
                        "ph": "C",
                        "ts": _us(float(row["t"])),
                        "pid": PID_COUNTERS,
                        "tid": 0,
                        "args": {counter: value},
                    }
                )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Iterable[Any],
    path: str,
    timeline: Optional[TimelineRecorder] = None,
) -> int:
    """Write a ``chrome://tracing`` file; returns the event count."""
    payload = chrome_trace(events, timeline=timeline)
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True)
    return len(payload["traceEvents"])
