"""Seeded traced runs pinning the tracer's exact output bytes.

Companion to ``tests/golden_scenarios.py`` for the telemetry layer:
three small traced runs whose exports are pinned -- event count, JSONL
sha256 and Chrome-trace sha256 -- in ``tests/data/golden_traces.json``
and compared by ``tests/test_trace_golden.py``.  Between them the runs
emit every event kind of :data:`repro.telemetry.spans.EVENT_SCHEMA`:

* ``infless_faults`` -- INFless under a fault plan (server crash,
  instance kill, recovery) with resilience retries and the hybrid
  vertical-then-horizontal auto-scaler;
* ``osvt_workflow`` -- the OSVT DAG under decomposed SLO budgets; the
  load steps down to zero so instances retire;
* ``llm_swap_crash`` -- continuous batching with swap preemption under
  a tight KV cap, plus a server crash.

Regenerate only for a deliberate change to what the tracer records,
and say why in the commit message::

    PYTHONPATH=src python -m tests.trace_golden --write
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List

GOLDEN_TRACES_PATH = Path(__file__).parent / "data" / "golden_traces.json"


def _step_trace(*segments):
    """A 1 s-step trace from ``(rps, seconds)`` segments."""
    import numpy as np

    from repro.workloads.trace import Trace

    rps = [float(level) for level, seconds in segments for _ in range(seconds)]
    return Trace(name="step", step_s=1.0, rps=np.array(rps))


def scenario_infless_faults(predictor) -> List:
    """INFless, hybrid scaling, crash + kill + recovery, with retries."""
    from repro import Experiment
    from repro.core import FunctionSpec
    from repro.faults import FaultPlan, InstanceKill, ServerCrash, ServerRecovery

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
    from repro import Experiment

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


def scenario_llm_swap_crash(predictor) -> List:
    """Continuous batching, swap preemption, one server crash."""
    from repro import Experiment
    from repro.core import FunctionSpec
    from repro.faults import FaultPlan, ServerCrash
    from repro.workloads import constant_trace

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
    "llm_swap_crash": scenario_llm_swap_crash,
}


def run_all() -> Dict[str, List]:
    """Every scenario's recorded events, sharing one predictor."""
    from repro.profiling import build_default_predictor

    predictor = build_default_predictor()
    return {name: scenario(predictor) for name, scenario in SCENARIOS.items()}


def trace_digest(events) -> Dict[str, object]:
    """Event count plus the sha256 of the JSONL and Chrome exports.

    The bytes hashed are exactly what ``write_jsonl`` and
    ``write_chrome_trace`` (no timeline) write to disk.
    """
    from repro.telemetry import chrome_trace, jsonl_lines

    jsonl = "".join(line + "\n" for line in jsonl_lines(events))
    chrome = json.dumps(chrome_trace(events), sort_keys=True)
    return {
        "events": len(events),
        "jsonl_sha256": hashlib.sha256(jsonl.encode()).hexdigest(),
        "chrome_sha256": hashlib.sha256(chrome.encode()).hexdigest(),
    }


def main() -> None:
    """Regenerate (or print) the golden trace digests."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", action="store_true",
        help="overwrite tests/data/golden_traces.json",
    )
    args = parser.parse_args()
    payload = {name: trace_digest(events) for name, events in run_all().items()}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN_TRACES_PATH.write_text(text)
        print(f"wrote {GOLDEN_TRACES_PATH}")
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
