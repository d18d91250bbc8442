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

The recording tracer's log is columnar: each kind has a ``ts`` list,
one list per field of its row and, for ``batch_start``, a list of the
minted batch ids; one byte array holds the kinds' codes in emission
order.  Recording an event appends its scalars to those lists and one
code to the array, so it keeps no new container: the values the caller
passes are kept by reference, and nothing else is allocated per event
that outlives the call.  Reading :attr:`InMemoryTracer.events` zips
each kind's columns back into rows, builds one
:class:`~repro.telemetry.spans.TraceEvent` per code in order and
empties the columns it read.

Determinism: raw request/instance ids come from process-global
counters, so two runs in one process would disagree.  The recording
tracer therefore *interns* the id fields the table names -- dense,
first-seen-order local ids -- which makes traces from identical seeds
byte-identical.  It interns when the log is read, not when an event is
recorded: events are built in emission order, so the ids are the same.
"""

from __future__ import annotations

import gc
import itertools
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

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


def _logged_fields(row: EventSchema) -> tuple:
    """The fields a row logs after ``ts``: its own, then a minted batch."""
    return row.fields + ("batch",) if row.mints_batch else row.fields


def _known_row(kind: str) -> EventSchema:
    """The kind's row, else the unknown-kind ValueError."""
    row = EVENT_SCHEMA.get(kind)
    if row is None:
        raise _schema_error(kind, ())
    return row


def _column_position(kind: str, field: str) -> int:
    """Where ``field`` sits in a logged ``kind`` row (``ts`` is 0).

    Raises the :func:`_schema_error` ValueError naming the kind and the
    field for an unknown kind or a field the kind's events do not carry.
    """
    row = _known_row(kind)
    logged = _logged_fields(row)
    if field not in logged:
        raise _schema_error(kind, (*row.fields, field))
    return 1 + logged.index(field)


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
        """How many events of ``kind`` were recorded.

        ValueError for a kind :data:`EVENT_SCHEMA` does not declare.
        """
        _known_row(kind)
        return sum(1 for event in self.events if event.kind == kind)

    def column(self, kind: str, field: str) -> List[Any]:
        """One field of every ``kind`` event, in emission order.

        ValueError naming the kind and the field for an unknown kind or
        a field outside the kind's row (a minting kind's ``batch`` is
        inside it).
        """
        _column_position(kind, field)
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
#: fields a site may log as any sequence (the runtime shares one
#: ``(b, c, g)`` tuple per batch); an event always holds a new list.
_LISTS = frozenset({"config"})


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
        elif name in _LISTS:
            value = f"list({value})"
        items.append(f"{name!r}: {value}")
    source = (
        "def build(row, requests, instances):\n"
        f"    return TraceEvent(row[0], {kind!r}, {{{', '.join(items)}}})\n"
    )
    namespace: Dict[str, Any] = {"TraceEvent": TraceEvent}
    exec(source, namespace)
    return namespace["build"]


def _compile_binder(width: int, mints: bool) -> Callable[..., Any]:
    """``bind(order, code, columns, mint, kind, names) -> record``.

    ``record(ts, *values) -> int`` is a bound recorder on one log for
    rows of ``width`` fields: it checks the count of values, appends
    ``ts`` and each value to the kind's ``columns`` (and, when
    ``mints``, a fresh ``mint()`` batch id to the last one), then the
    kind's ``code`` to ``order``.  Generated source, like the builders,
    so a call runs no loop and keeps no container.
    """
    values = [f"v{index}" for index in range(width)]
    adds = [f"add{index}" for index in range(1 + width + mints)]
    appends = [f"add{index}({value})" for index, value in enumerate(values, 1)]
    if mints:
        appends += ["batch = mint()", f"add{width + 1}(batch)"]
    source = (
        "def bind(order, code, columns, mint, kind, names):\n"
        "    add_code = order.append\n"
        f"    {', '.join(adds)}, = [column.append for column in columns]\n"
        "    def record(ts, *values):\n"
        f"        if len(values) != {width}:\n"
        "            raise _arity_error(kind, names, len(values))\n"
        f"        {', '.join(values)}, = values\n"
        f"        add0(ts); {'; '.join(appends)}\n"
        "        add_code(code)\n"
        f"        return {'batch' if mints else 0}\n"
        "    return record\n"
    )
    namespace: Dict[str, Any] = {"_arity_error": _arity_error}
    exec(source, namespace)
    return namespace["bind"]


#: kind -> its code in the log's order array (its schema position).
_CODES = {kind: code for code, kind in enumerate(EVENT_SCHEMA)}
#: code -> the kind's event builder, compiled once from the schema table.
_BUILDERS = tuple(
    _compile_builder(kind, row) for kind, row in EVENT_SCHEMA.items()
)
#: (field count, mints a batch) -> the recorder binder rows of that
#: shape share, compiled once from the schema table.
_BINDERS = {
    shape: _compile_binder(*shape)
    for shape in {(len(row.fields), row.mints_batch) for row in EVENT_SCHEMA.values()}
}


class InMemoryTracer(Tracer):
    """Logs every event into columns; builds events on read.

    Each kind has its own columns: ``ts``, one per field of its row,
    in the row's order, and a ``batch_start``'s minted batch ids last.
    A byte array keeps the kind codes in emission order.
    :attr:`events` turns the events logged since the last read into
    :class:`TraceEvent` objects with interned ids, empties the columns
    and keeps the events.  Bound recorders append to the columns
    without calling :meth:`emit`, so a subclass that intercepts events
    overrides :meth:`recorder` as well.
    """

    enabled = True

    def __init__(self) -> None:
        self._order = array("B")
        self._columns: List[List[list]] = [
            [[] for _ in range(1 + len(_logged_fields(row)))]
            for row in EVENT_SCHEMA.values()
        ]
        # Per kind, the events already built from (and cleared out of)
        # its columns.
        self._read = [0] * len(EVENT_SCHEMA)
        mint = itertools.count(1).__next__
        self._records = [
            _BINDERS[len(row.fields), row.mints_batch](
                self._order, code, columns, mint, kind, row.fields
            )
            for code, ((kind, row), columns) in enumerate(
                zip(EVENT_SCHEMA.items(), self._columns)
            )
        ]
        self._events: List[TraceEvent] = []
        # The interning tables: raw id -> dense first-seen id.
        self._requests: Dict[int, int] = {}
        self._instances: Dict[int, int] = {}

    @property
    def events(self) -> List[TraceEvent]:
        """Every recorded event, in emission order (do not mutate).

        Events logged since the last read are built here, in emission
        order, and their columns emptied; ids are interned in emission
        order, so reading mid-run changes none.
        """
        order, events = self._order, self._events
        if not order:
            return events
        columns, read = self._columns, self._read
        requests, instances = self._requests, self._instances
        # One row iterator per kind; zip hands back the row tuple it
        # made last, once the builder has let go of it.
        rows = [zip(*kind_columns).__next__ for kind_columns in columns]
        # The new events hold no reference cycles.  Pausing the
        # collector while ~2 containers per event arrive keeps it from
        # walking the whole heap over and over; it is re-enabled, not
        # run, afterwards.
        collecting = gc.isenabled()
        gc.disable()
        try:
            events += [
                _BUILDERS[code](rows[code](), requests, instances)
                for code in order
            ]
        finally:
            if collecting:
                gc.enable()
        for code, kind_columns in enumerate(columns):
            read[code] += len(kind_columns[0])
            for column in kind_columns:
                column.clear()
        del order[:]
        return events

    def as_dicts(self) -> List[Dict[str, Any]]:
        """The flat-dict view the exporters and summaries consume."""
        return [event.to_dict() for event in self.events]

    def recorder(self, kind: str, *names: str) -> Callable[..., int]:
        """Bind an emit site to the kind's columns.

        See :meth:`Tracer.recorder`; each call checks only how many
        values it got.  Every bind of one kind returns the same
        recorder.
        """
        _bound_row(kind, names)
        return self._records[_CODES[kind]]

    def emit(self, kind: str, ts: float, **fields: Any) -> int:
        """Check ``fields`` against the kind's row, then log the event.

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
        return self._records[_CODES[kind]](ts, *values)

    def count(self, kind: str) -> int:
        """How many events of ``kind`` were logged; builds none."""
        _known_row(kind)
        code = _CODES[kind]
        return self._read[code] + len(self._columns[code][0])

    def column(self, kind: str, field: str) -> List[Any]:
        """One field of every ``kind`` event, in emission order.

        A copy of the field's column, unless events of ``kind`` were
        already read or ``field`` is one that only :attr:`events`
        resolves: an interned id or a ``config``.
        """
        position = _column_position(kind, field)
        code = _CODES[kind]
        ids = EVENT_SCHEMA[kind].ids
        if self._read[code] or field in ids or field in _LISTS:
            return super().column(kind, field)
        return list(self._columns[code][position])


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
