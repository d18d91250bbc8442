"""The tracer's two recording forms and the in-memory recorder.

Instrumented components record an event of ``kind`` -- a row of the
event table :data:`~repro.telemetry.spans.EVENT_SCHEMA` -- in one of
two forms:

* ``tracer.emit(kind, ts, **fields)``, where ``fields`` are exactly
  that row's fields, checked on every call; rare control-plane sites
  use this keyword form;
* ``record = tracer.recorder(kind, *names)`` once, then
  ``record(ts, *values)`` per event.  ``names`` must be the row's
  fields in the row's order, checked once at bind time, so hot
  per-request sites pay only for a per-call count of the values.

The base :class:`Tracer` is the **null tracer**: ``emit`` and every
bound recorder are no-ops and ``enabled`` is False, so every emit
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
byte-identical.  It interns when the log is read, not when a row is
written: rows are read in emission order, so the ids are the same.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence

from repro.telemetry.spans import EVENT_SCHEMA, EventSchema, TraceEvent


def _schema_error(kind: str, names: Iterable[str]) -> ValueError:
    """The ValueError for field names that do not match the kind's row."""
    row = EVENT_SCHEMA.get(kind)
    if row is None:
        return ValueError(f"unknown trace event kind {kind!r}")
    names = list(names)
    missing = sorted(set(row.fields) - set(names))
    extra = sorted(set(names) - set(row.fields))
    if missing or extra:
        return ValueError(
            f"trace event {kind!r}: missing fields {missing}, unexpected"
            f" fields {extra}"
        )
    return ValueError(
        f"trace event {kind!r}: fields {names} are not in the row's order"
        f" {list(row.fields)}"
    )


def _bound_row(kind: str, names: tuple) -> EventSchema:
    """The kind's row, if ``names`` are its fields in its order."""
    row = EVENT_SCHEMA.get(kind)
    if row is None or names != row.fields:
        raise _schema_error(kind, names)
    return row


def _arity_error(kind: str, names: Sequence[str], values: int) -> ValueError:
    """The ValueError for a bound call with the wrong number of values."""
    return ValueError(
        f"trace event {kind!r}: {values} values recorded for fields"
        f" {list(names)}"
    )


def _record_nothing(ts: float, *values: Any) -> int:
    """The null tracer's recorder."""
    return 0


class Tracer:
    """The null tracer: :meth:`emit` and its recorders record nothing.

    A subclass sets ``enabled = True`` and overrides :meth:`emit`; the
    base :meth:`recorder` then routes each bound call through it.  The
    base :meth:`count` and :meth:`column` read :attr:`events`, so a
    subclass that keeps its :class:`TraceEvent` list there passes the
    invariant checker's telemetry agreement; one that does not
    overrides them.  Every field is a plain scalar (an id, a name, a
    sim-time float) or a list of them, so implementations are free of
    simulator imports.
    """

    #: True when :meth:`emit` actually records; emit sites check this
    #: before assembling any fields.
    enabled: bool = False
    #: the recorded events, in emission order (none on the null tracer).
    events: Sequence[TraceEvent] = ()

    def emit(self, kind: str, ts: float, **fields: Any) -> int:
        """Record one event of ``kind`` at sim time ``ts``.

        Returns the minted batch id for ``batch_start`` events and 0
        otherwise (always 0 on the null tracer).
        """
        return 0

    def recorder(self, kind: str, *names: str) -> Callable[..., int]:
        """Bind an emit site: ``record(ts, *values) -> int``.

        ``names`` must be the kind's fields in its row's order, else
        ValueError naming the kind.  ``record`` takes one value per
        name and returns what :meth:`emit` would.  The null tracer
        returns one shared no-op.
        """
        _bound_row(kind, names)
        if not self.enabled:
            return _record_nothing
        emit = self.emit

        def record(ts: float, *values: Any) -> int:
            if len(values) != len(names):
                raise _arity_error(kind, names, len(values))
            return emit(kind, ts, **dict(zip(names, values)))

        return record

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were recorded."""
        return sum(1 for event in self.events if event.kind == kind)

    def column(self, kind: str, field: str) -> List[Any]:
        """One field of every ``kind`` event, in emission order."""
        return [
            event.args[field] for event in self.events if event.kind == kind
        ]


#: shared default instance; stateless, so sharing is safe.
NULL_TRACER = Tracer()


#: id field -> the interning table (a builder argument) of its id space.
_ID_TABLES = {
    "request": "requests",
    "workflow_id": "requests",
    "requests": "requests",
    "instance": "instances",
}
#: id fields that hold a list of ids.
_ID_LISTS = frozenset({"requests"})


def _compile_builder(kind: str, row: EventSchema) -> Callable[..., TraceEvent]:
    """``build(logged_row, requests, instances) -> TraceEvent`` for ``kind``.

    The builder is generated source, as :mod:`dataclasses` generates
    ``__init__``: one dict display per event, with the row's id fields
    interned inline.  A display evaluates left to right, so ids are
    interned in field order, which every row's ``ids`` follows.  The
    minted ``batch`` (logged last) becomes the first key.
    """
    if row.ids != tuple(name for name in row.fields if name in row.ids):
        raise ValueError(f"trace event {kind!r}: ids are not in field order")
    items = [f"'batch': row[{len(row.fields) + 1}]"] if row.mints_batch else []
    for index, name in enumerate(row.fields, 1):
        value = f"row[{index}]"
        if name in row.ids:
            table = _ID_TABLES[name]
            intern = f"{table}.setdefault({{}}, len({table}))"
            if name in _ID_LISTS:
                value = f"[{intern.format('r')} for r in {value}]"
            else:
                value = intern.format(value)
        items.append(f"{name!r}: {value}")
    source = (
        "def build(row, requests, instances):\n"
        f"    return TraceEvent(row[0], {kind!r}, {{{', '.join(items)}}})\n"
    )
    namespace: Dict[str, Any] = {"TraceEvent": TraceEvent}
    exec(source, namespace)
    return namespace["build"]


#: kind -> its event builder, compiled once from the schema table.
_BUILDERS = {
    kind: _compile_builder(kind, row) for kind, row in EVENT_SCHEMA.items()
}


class InMemoryTracer(Tracer):
    """Logs every event as one flat row; builds events on read.

    The log is two parallel deques: the event's ``(ts, *values)`` row,
    with ``values`` in the row's field order and a ``batch_start``'s
    minted batch id appended, and the event's kind.  :attr:`events`
    turns the rows logged since the last read into :class:`TraceEvent`
    objects with interned ids, freeing each row as it goes, and keeps
    the events.  Bound recorders append rows without calling
    :meth:`emit`, so a subclass that intercepts events overrides
    :meth:`recorder` as well.
    """

    enabled = True

    def __init__(self) -> None:
        self._rows: Deque[tuple] = deque()
        self._kinds: Deque[str] = deque()
        self._batches = itertools.count(1)
        self._events: List[TraceEvent] = []
        # The interning tables: raw id -> dense first-seen id.
        self._requests: Dict[int, int] = {}
        self._instances: Dict[int, int] = {}

    @property
    def events(self) -> List[TraceEvent]:
        """Every recorded event, in emission order (do not mutate).

        Rows logged since the last read become events here, each
        row freed as its event is built; ids are interned in emission
        order, so reading mid-run changes none.
        """
        rows, kinds, events = self._rows, self._kinds, self._events
        requests, instances = self._requests, self._instances
        # The new events hold no reference cycles.  Pausing the
        # collector while ~2 containers per event arrive keeps it from
        # walking the whole heap over and over; it is re-enabled, not
        # run, afterwards.
        collecting = gc.isenabled()
        gc.disable()
        try:
            pop_row, pop_kind = rows.popleft, kinds.popleft
            events += [
                _BUILDERS[pop_kind()](pop_row(), requests, instances)
                for _ in range(len(rows))
            ]
        finally:
            if collecting:
                gc.enable()
        return events

    def as_dicts(self) -> List[Dict[str, Any]]:
        """The flat-dict view the exporters and summaries consume."""
        return [event.to_dict() for event in self.events]

    def recorder(self, kind: str, *names: str) -> Callable[..., int]:
        """Bind an emit site to a row append (see :meth:`Tracer.recorder`).

        Each call checks only how many values it got.
        """
        schema = _bound_row(kind, names)
        width = 1 + len(names)
        add_row = self._rows.append
        add_kind = self._kinds.append
        # ``row`` is ``(ts, *values)``: the call packs it, nothing else
        # is allocated per event.
        if not schema.mints_batch:

            def record(*row: Any) -> int:
                if len(row) != width:
                    raise _arity_error(kind, names, len(row) - 1)
                add_row(row)
                add_kind(kind)
                return 0

            return record
        batches = self._batches

        def record_batch(*row: Any) -> int:
            if len(row) != width:
                raise _arity_error(kind, names, len(row) - 1)
            batch = next(batches)
            add_row((*row, batch))
            add_kind(kind)
            return batch

        return record_batch

    def emit(self, kind: str, ts: float, **fields: Any) -> int:
        """Check ``fields`` against the kind's row, then log one row.

        Raises ValueError naming the kind (and the offending fields)
        for an unknown kind or a field set that differs from the row.
        """
        schema = EVENT_SCHEMA.get(kind)
        if schema is None or len(fields) != len(schema.fields):
            raise _schema_error(kind, fields)
        try:
            values = [fields[name] for name in schema.fields]
        except KeyError:
            raise _schema_error(kind, fields) from None
        batch = 0
        if schema.mints_batch:
            batch = next(self._batches)
            values.append(batch)
        self._rows.append((ts, *values))
        self._kinds.append(kind)
        return batch

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were logged.

        Builds no events unless :attr:`events` was already read.
        """
        if self._events:
            return super().count(kind)
        return self._kinds.count(kind)

    def column(self, kind: str, field: str) -> List[Any]:
        """One field of every ``kind`` event, in emission order.

        Reads the log directly, unless :attr:`events` was already
        read or ``field`` is an interned id or the minted ``batch``,
        which only :attr:`events` resolves.
        """
        schema = EVENT_SCHEMA.get(kind)
        if (
            self._events
            or schema is None
            or field in schema.ids
            or field not in schema.fields
        ):
            return super().column(kind, field)
        index = 1 + schema.fields.index(field)
        selected = itertools.compress(self._rows, map(kind.__eq__, self._kinds))
        return [row[index] for row in selected]


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
