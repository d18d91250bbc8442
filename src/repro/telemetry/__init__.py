"""Per-request tracing, sim-time metric timelines and trace exporters.

Simulator-side observability (not a paper mechanism): one recording
method, ``Tracer.emit(kind, ts, **fields)`` (null by default), checked
against the event table :data:`EVENT_SCHEMA` and threaded through the
serving runtime, the INFless control plane and the baselines, an
in-memory recorder, control-tick metric timelines, and exporters to
JSONL / CSV / Chrome ``trace_event`` so a run opens directly in
``chrome://tracing`` or Perfetto.  See ``docs/telemetry.md``.
"""

from repro.telemetry.spans import (
    DROP_DEADLINE,
    DROP_NO_CAPACITY,
    DROP_QUEUE_FULL,
    DROP_REASONS,
    DROP_SERVER_FAILURE,
    DROP_SHED,
    DROP_SLO_UNREACHABLE,
    EVENT_SCHEMA,
    WORKFLOW_COMPLETE,
    WORKFLOW_STAGE,
    Span,
    TraceEvent,
    batch_spans,
    request_spans,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    InMemoryTracer,
    Tracer,
    attach_tracer,
)
from repro.telemetry.timeline import TIMELINE_COLUMNS, TimelineRecorder
from repro.telemetry.exporters import (
    chrome_trace,
    jsonl_lines,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_timeline_csv,
)
from repro.telemetry.summary import (
    SUMMARY_HEADER,
    FunctionSummary,
    summarize_events,
    summary_rows,
)

__all__ = [
    "DROP_DEADLINE",
    "DROP_NO_CAPACITY",
    "DROP_QUEUE_FULL",
    "DROP_REASONS",
    "DROP_SERVER_FAILURE",
    "DROP_SHED",
    "DROP_SLO_UNREACHABLE",
    "EVENT_SCHEMA",
    "WORKFLOW_COMPLETE",
    "WORKFLOW_STAGE",
    "Span",
    "TraceEvent",
    "batch_spans",
    "request_spans",
    "NULL_TRACER",
    "InMemoryTracer",
    "Tracer",
    "attach_tracer",
    "TIMELINE_COLUMNS",
    "TimelineRecorder",
    "chrome_trace",
    "jsonl_lines",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_timeline_csv",
    "SUMMARY_HEADER",
    "FunctionSummary",
    "summarize_events",
    "summary_rows",
]
