"""The declared compatibility table: every spec runs clean or names its row.

A hypothesis suite samples small experiments across platform, engine,
fleet vs default cluster, workflow, faults, resilience, telemetry,
metrics mode and arrival mode.  Each one either raises a
``ValueError`` naming a :data:`~repro.api.compatibility.COMPATIBILITY`
row, or runs with zero violations under strict invariants.  The matrix
in ``docs/architecture.md`` must be the table, rendered.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import Experiment
from repro.api.compatibility import (
    COMPATIBILITY,
    ENGINES,
    PLATFORM_CLASSES,
    check,
    requested_features,
)
from repro.core.function import FunctionSpec
from repro.faults import (
    FaultPlan,
    IngressSpike,
    InstanceKill,
    ServerCrash,
    ServerRecovery,
)
from repro.workloads import constant_trace

ROW_NAMES = {row.name for row in COMPATIBILITY}
_ROW_RE = re.compile(r"compatibility row '([^']+)'")

DURATION_S = 8.0
_CRASH = FaultPlan(events=(
    ServerCrash(at_s=3.0, server_id=0),
    ServerRecovery(at_s=5.0, server_id=0),
))
_SPIKE = FaultPlan(events=(
    IngressSpike(at_s=2.0, duration_s=2.0, extra_delay_s=0.05),
))
_FLEET = {"groups": [
    {"count": 1, "gpu_profile": "2080ti"},
    {"count": 1, "gpu_profile": "a100"},
]}


def _experiment(
    platform, engine, fleet, workflow, faults, resilience, telemetry,
    metrics_mode, arrival_mode,
) -> Experiment:
    llm = platform.startswith("llm")
    if workflow:
        functions, entry = None, "osvt-ssd"
    else:
        model = "llm-125m" if llm else "mnist"
        functions = [FunctionSpec.for_model(model, slo_s=0.5 if llm else 0.1)]
        entry = functions[0].name
    if faults == "kill":
        faults = FaultPlan(events=(InstanceKill(at_s=3.0, function=entry),))
    return Experiment(
        platform=platform,
        engine=engine,
        servers=2,
        fleet=_FLEET if fleet else None,
        functions=functions,
        workflow="osvt" if workflow else None,
        workload={entry: constant_trace(4.0 if llm else 20.0, DURATION_S)},
        faults=faults,
        resilience=resilience,
        telemetry=telemetry,
        metrics_mode=metrics_mode,
        arrival_mode=arrival_mode,
        arrival_window_s=3.0,
        invariants="strict",
        seed=7,
    )


@given(
    platform=st.sampled_from(
        ["infless", "openfaas+", "batch", "batch+rs", "llm", "llm-fcfs"]
    ),
    engine=st.sampled_from(ENGINES),
    fleet=st.booleans(),
    workflow=st.booleans(),
    faults=st.sampled_from([None, _CRASH, _SPIKE, "kill"]),
    resilience=st.booleans(),
    telemetry=st.booleans(),
    metrics_mode=st.sampled_from(["exact", "sketch"]),
    arrival_mode=st.sampled_from(["eager", "windowed"]),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_spec_runs_clean_or_names_its_row(**spec):
    try:
        report = _experiment(**spec).run()
    except ValueError as exc:
        named = _ROW_RE.search(str(exc))
        assert named is not None, f"unnamed rejection: {exc}"
        assert named.group(1) in ROW_NAMES
        return
    assert report.invariant_violations == []
    assert report.completed > 0


def test_rejection_names_the_refusing_row():
    with pytest.raises(ValueError, match="compatibility row 'workflow'"):
        check("fluid", "infless", requested_features(
            functions=None, workflow="osvt",
        ))


def test_factory_platforms_are_checked_once_built():
    from repro.cluster import build_testbed_cluster
    from repro.llm.engine import ContinuousBatchingLLM

    function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
    experiment = Experiment(
        platform=lambda cluster: ContinuousBatchingLLM(cluster),
        cluster=build_testbed_cluster(num_servers=1),
        functions=[function],
        workload={function.name: constant_trace(4.0, DURATION_S)},
        metrics_mode="sketch",
    )
    with pytest.raises(ValueError, match="compatibility row 'sketch metrics'"):
        experiment.build()


@pytest.mark.parametrize("engine", ["fluid", "hybrid"])
@pytest.mark.parametrize("option, row", [
    # A fresh recorder holds no rows, yet it is still a timeline.
    ({"timeline": True}, "timeline"),
    ({"metrics_mode": "sketch"}, "sketch metrics"),
])
def test_fluid_engines_refuse_what_they_would_ignore(engine, option, row):
    function = FunctionSpec.for_model("mnist", slo_s=0.1)
    with pytest.raises(ValueError, match=f"compatibility row '{row}'"):
        Experiment(
            platform="infless",
            engine=engine,
            functions=[function],
            workload={function.name: constant_trace(20.0, DURATION_S)},
            **option,
        )


def test_delay_faults_count_only_inside_the_horizon():
    late = FaultPlan(events=(
        IngressSpike(at_s=2 * DURATION_S, duration_s=1.0, extra_delay_s=0.1),
    ))
    workload = {"f": constant_trace(4.0, DURATION_S)}
    assert "delay faults" in requested_features(
        workload=workload, faults=_SPIKE
    )
    assert "delay faults" not in requested_features(
        workload=workload, faults=late
    )


# ----------------------------------------------------------------------
# docs/architecture.md carries the table, rendered
# ----------------------------------------------------------------------
ARCHITECTURE_DOC = (
    Path(__file__).resolve().parents[1] / "docs" / "architecture.md"
)
_BEGIN = "<!-- compatibility-table:begin -->"
_END = "<!-- compatibility-table:end -->"


def _render_table() -> str:
    def cell(classes) -> str:
        if tuple(classes) == PLATFORM_CLASSES:
            return "all"
        return ", ".join(classes) or "-"

    lines = [
        "| row | " + " | ".join(ENGINES) + " | refused because |",
        "|---|" + "---|" * len(ENGINES) + "---|",
    ]
    for row in COMPATIBILITY:
        cells = " | ".join(cell(row.runs_on.get(e, ())) for e in ENGINES)
        lines.append(f"| {row.name} | {cells} | {row.why} |")
    return "\n".join(lines)


def test_architecture_doc_matrix_matches_table():
    text = ARCHITECTURE_DOC.read_text()
    assert _BEGIN in text and _END in text, "matrix markers missing"
    documented = text.split(_BEGIN, 1)[1].split(_END, 1)[0].strip()
    expected = _render_table()
    assert documented == expected, (
        "docs/architecture.md's compatibility matrix is stale; replace"
        f" the block between the markers with:\n\n{expected}\n"
    )
