"""The tracer's one recording method and the in-memory recorder.

Instrumented components record through a single call,
``tracer.emit(kind, ts, **fields)``, where ``kind`` is a row of the
event table :data:`~repro.telemetry.spans.EVENT_SCHEMA` and ``fields``
are exactly that row's fields.  The base :class:`Tracer` is the **null
tracer**: ``emit`` is a no-op and ``enabled`` is False, so every emit
site guards on ``enabled`` (or a cached copy of it) and a disabled
tracer costs one attribute read, never the cost of building fields.
The serving runtime, the auto-scaler, the baselines and the cold-start
policies all default to :data:`NULL_TRACER`; passing an
:class:`InMemoryTracer` to :class:`~repro.simulation.runtime.ServingSimulation`
(or calling :func:`attach_tracer` on a platform directly) switches the
whole stack to recording.

Determinism: raw request/instance ids come from process-global
counters, so two runs in one process would disagree.  The recording
tracer therefore *interns* the id fields the table names -- dense,
first-seen-order local ids -- which makes traces from identical seeds
byte-identical.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from repro.telemetry.spans import EVENT_SCHEMA, TraceEvent


class Tracer:
    """The null tracer: :meth:`emit` records nothing.

    Subclasses override :meth:`emit`; every field is a plain scalar (an
    id, a name, a sim-time float) or a list of them, so implementations
    are free of simulator imports.
    """

    #: True when :meth:`emit` actually records; emit sites check this
    #: before assembling any fields.
    enabled: bool = False

    def emit(self, kind: str, ts: float, **fields: Any) -> int:
        """Record one event of ``kind`` at sim time ``ts``.

        Returns the minted batch id for ``batch_start`` events and 0
        otherwise (always 0 on the null tracer).
        """
        return 0


#: shared default instance; stateless, so sharing is safe.
NULL_TRACER = Tracer()


def _schema_error(kind: str, fields: Dict[str, Any]) -> ValueError:
    """The ValueError for an event that does not match its table row."""
    row = EVENT_SCHEMA.get(kind)
    if row is None:
        return ValueError(f"unknown trace event kind {kind!r}")
    missing = sorted(set(row.fields) - fields.keys())
    extra = sorted(fields.keys() - set(row.fields))
    return ValueError(
        f"trace event {kind!r}: missing fields {missing}, unexpected"
        f" fields {extra}"
    )


class InMemoryTracer(Tracer):
    """Records every event as a :class:`TraceEvent` with interned ids."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._batch_seq = itertools.count(1)
        requests: Dict[int, int] = {}
        instances: Dict[int, int] = {}
        # id field -> the interning table of its id space.
        tables = {
            "request": requests,
            "workflow_id": requests,
            "requests": requests,
            "instance": instances,
        }
        #: kind -> (field names, (id field, table) pairs, the same for
        #: fields holding id lists, mints a batch id): the schema table
        #: resolved once against this tracer's tables, so an emit does
        #: no per-field lookups.
        self._plans: Dict[str, tuple] = {}
        for kind, row in EVENT_SCHEMA.items():
            ids = tuple((f, tables[f]) for f in row.ids if f != "requests")
            lists = tuple((f, tables[f]) for f in row.ids if f == "requests")
            self._plans[kind] = (
                frozenset(row.fields), ids, lists, row.mints_batch
            )

    def as_dicts(self) -> List[Dict[str, Any]]:
        """The flat-dict view the exporters and summaries consume."""
        return [event.to_dict() for event in self.events]

    def emit(self, kind: str, ts: float, **fields: Any) -> int:
        """Check ``fields`` against the kind's row, intern ids, record.

        Raises ValueError naming the kind (and the offending fields)
        for an unknown kind or a field set that differs from the row.
        """
        try:
            names, ids, lists, mints_batch = self._plans[kind]
        except KeyError:
            raise _schema_error(kind, fields) from None
        if len(fields) != len(names) or not names.issuperset(fields):
            raise _schema_error(kind, fields)
        for name, table in ids:
            fields[name] = table.setdefault(fields[name], len(table))
        for name, table in lists:
            fields[name] = [table.setdefault(r, len(table)) for r in fields[name]]
        if not mints_batch:
            self.events.append(TraceEvent(ts, kind, fields))
            return 0
        batch = next(self._batch_seq)
        self.events.append(TraceEvent(ts, kind, {"batch": batch, **fields}))
        return batch


def attach_tracer(platform: Any, tracer: Optional[Tracer]) -> Tracer:
    """Point a platform and its traced components at one tracer.

    Works on any object: sets ``tracer`` on the platform itself and on
    the sub-components that emit events today (the auto-scaler and the
    keep-alive policy).  Passing None resets to the null tracer.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    for target in (
        platform,
        getattr(platform, "autoscaler", None),
        getattr(platform, "policy", None),
    ):
        if target is not None:
            try:
                target.tracer = tracer
            except AttributeError:
                pass  # __slots__ or frozen objects simply opt out
    return tracer
