"""Byte-identical trace exports against ``tests/data/golden_traces.json``.

Each scenario of ``tests/trace_golden.py`` must reproduce its pinned
event count and the sha256 of its JSONL and Chrome-trace exports.  A
failure means a change altered what the tracer records -- an event
kind, a field, a value, or the order of events -- not just its speed.
Regenerate only for a deliberate change::

    PYTHONPATH=src python -m tests.trace_golden --write
"""

from __future__ import annotations

import json

import pytest

from repro.telemetry.spans import EVENT_SCHEMA
from tests.trace_golden import GOLDEN_TRACES_PATH, SCENARIOS, run_all, trace_digest


@pytest.fixture(scope="module")
def traces():
    return run_all()


def _golden():
    return json.loads(GOLDEN_TRACES_PATH.read_text())


def test_golden_covers_every_scenario():
    assert sorted(_golden()) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(traces, name):
    assert trace_digest(traces[name]) == _golden()[name], (
        f"scenario {name!r}: the trace export diverged from its golden"
    )


def test_scenarios_emit_every_schema_kind(traces):
    """Every row of the schema table is exercised by some scenario."""
    kinds = set()
    for events in traces.values():
        kinds.update(event.kind for event in events)
    assert kinds == set(EVENT_SCHEMA)
