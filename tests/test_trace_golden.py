"""Byte-identical trace exports against the ``trace.<name>`` goldens.

Four small traced runs whose exports are pinned -- event count, JSONL
sha256 and Chrome-trace sha256, plus each event kind's count and JSONL
sha256.  A failure means a change altered what the tracer records -- an
event kind, a field, a value, or the order of events -- not just its
speed; the first moved kind is named.  Between them the runs emit every
event kind of :data:`repro.telemetry.spans.EVENT_SCHEMA`:

* ``infless_faults`` -- INFless under a fault plan (server crash,
  instance kill, recovery) with resilience retries and the hybrid
  vertical-then-horizontal auto-scaler;
* ``osvt_workflow`` -- the OSVT DAG under decomposed SLO budgets; the
  load steps down to zero so instances retire;
* ``osvt_workflow_crash`` -- the same DAG with resilience retries under
  a server crash, an instance kill and a recovery;
* ``llm_swap_crash`` -- continuous batching with swap preemption under
  a tight KV cap, plus a server crash.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro import Experiment
from repro.core import FunctionSpec
from repro.faults import FaultPlan, InstanceKill, ServerCrash, ServerRecovery
from repro.profiling import build_default_predictor
from repro.telemetry import chrome_trace, jsonl_lines
from repro.telemetry.spans import EVENT_SCHEMA
from repro.workloads import constant_trace
from repro.workloads.trace import Trace

from tests.goldens import STORE, assert_golden, digest


def _step_trace(*segments):
    """A 1 s-step trace from ``(rps, seconds)`` segments."""
    rps = [float(level) for level, seconds in segments for _ in range(seconds)]
    return Trace(name="step", step_s=1.0, rps=np.array(rps))


def scenario_infless_faults(predictor) -> List:
    """INFless, hybrid scaling, crash + kill + recovery, with retries."""
    function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    plan = FaultPlan(events=(
        ServerCrash(at_s=4.0, server_id=0),
        InstanceKill(at_s=8.0, function=function.name),
        ServerRecovery(at_s=10.0, server_id=0),
    ))
    experiment = Experiment(
        platform="infless",
        functions=[function],
        workload={function.name: _step_trace((40, 6), (200, 8), (30, 4))},
        servers=4,
        predictor=predictor,
        autoscaler="hybrid",
        faults=plan,
        resilience=True,
        telemetry=True,
        invariants="strict",
        seed=4,
    )
    experiment.run()
    return experiment.tracer.events


def scenario_osvt_workflow(predictor) -> List:
    """The OSVT DAG, decomposed budgets, load stepping down to zero."""
    experiment = Experiment(
        platform="infless",
        workflow="osvt",
        workflow_policy="decomposed",
        workload={"osvt-ssd": _step_trace((150, 6), (0, 8))},
        predictor=predictor,
        telemetry=True,
        invariants="strict",
        seed=2,
    )
    experiment.run()
    return experiment.tracer.events


def scenario_osvt_workflow_crash(predictor) -> List:
    """The OSVT DAG under a crash, an instance kill and a recovery."""
    plan = FaultPlan(events=(
        ServerCrash(at_s=8.0, server_id=0),
        InstanceKill(at_s=9.0, function="osvt-mobilenet"),
        ServerRecovery(at_s=11.0, server_id=0),
    ))
    experiment = Experiment(
        platform="infless",
        workflow="osvt",
        workflow_policy="decomposed",
        workload={"osvt-ssd": _step_trace((150, 12), (0, 4))},
        servers=4,
        predictor=predictor,
        faults=plan,
        resilience=True,
        telemetry=True,
        invariants="strict",
        seed=5,
    )
    experiment.run()
    return experiment.tracer.events


def scenario_llm_swap_crash(predictor) -> List:
    """Continuous batching, swap preemption, one server crash."""
    function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
    experiment = Experiment(
        platform="llm",
        functions=[function],
        workload={function.name: constant_trace(15.0, 12.0)},
        servers=2,
        predictor=predictor,
        platform_options={
            "tpot_slo_s": 0.05, "max_kv_tokens": 2000, "preemption": "swap",
        },
        faults=FaultPlan(events=(ServerCrash(at_s=8.0, server_id=1),)),
        telemetry=True,
        invariants="strict",
        seed=11,
    )
    experiment.run()
    return experiment.tracer.events


SCENARIOS: Dict[str, Callable] = {
    "infless_faults": scenario_infless_faults,
    "osvt_workflow": scenario_osvt_workflow,
    "osvt_workflow_crash": scenario_osvt_workflow_crash,
    "llm_swap_crash": scenario_llm_swap_crash,
}


def trace_golden(events) -> Dict[str, object]:
    """A trace's pinned form: whole-export digests plus one per kind.

    ``whole`` holds the event count and the sha256 of exactly the bytes
    ``write_jsonl`` and ``write_chrome_trace`` (no timeline) write to
    disk; ``groups`` holds each event kind's count and the sha256 of its
    JSONL lines, so a failure names the kind that moved.
    """
    lines = [line + "\n" for line in jsonl_lines(events)]
    by_kind: Dict[str, List[str]] = {}
    for event, line in zip(events, lines, strict=True):
        by_kind.setdefault(event.kind, []).append(line)
    return {
        "groups": {
            kind: {"events": len(group), "sha256": digest("".join(group))}
            for kind, group in by_kind.items()
        },
        "whole": {
            "events": len(events),
            "jsonl_sha256": digest("".join(lines)),
            "chrome_sha256": digest(
                json.dumps(chrome_trace(events), sort_keys=True)
            ),
        },
    }


@pytest.fixture(scope="module")
def traces():
    """Every scenario's recorded events, sharing one predictor."""
    predictor = build_default_predictor()
    return {name: scenario(predictor) for name, scenario in SCENARIOS.items()}


def test_golden_covers_every_scenario():
    assert STORE.names("trace.") == sorted(f"trace.{name}" for name in SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(traces, name):
    assert_golden(f"trace.{name}", trace_golden(traces[name]))


def test_scenarios_emit_every_schema_kind(traces):
    """Every row of the schema table is exercised by some scenario."""
    kinds = set()
    for events in traces.values():
        kinds.update(event.kind for event in events)
    assert kinds == set(EVENT_SCHEMA)
