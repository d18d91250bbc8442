"""Determinism and safety properties of the LLM runtime.

* bit-identical repeat runs (a run is a pure function of its seed);
* the golden TTFT/TPOT report for a fixed seed (``llm.continuous``):
  a divergence means a change altered continuous-batching behaviour
  (RNG stream consumption, step planning order, KV accounting) rather
  than just its speed;
* a hypothesis property: preemption never strands a request --
  whatever the KV cap, preemption mode and victim policy, every
  arrival ends the run completed or dropped, never parked forever;
* fused decode runs change nothing: a traced run plans one iteration
  per event, so it is the reference an untraced run must match, under
  every policy, on a shared GPU, under faults and where device memory
  ends decode runs;
* how many events a run takes: well under one per iteration when
  decode runs fuse, at least one per iteration when they cannot.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suites import llm_decode_experiment
from repro.cluster import build_testbed_cluster
from repro.cluster.cluster import Cluster
from repro.cluster.fleet import GpuProfile
from repro.cluster.server import Server
from repro.core import FunctionSpec
from repro.faults import FaultPlan
from repro.llm import ContinuousBatchingLLM, LLMSimulation
from repro.telemetry import InMemoryTracer
from repro.workloads import constant_trace

from tests.goldens import assert_golden


def scenario_llm_continuous() -> dict:
    """Continuous batching with swap preemption under a tight KV cap.

    The cap forces the full machinery through the run -- prefill
    packing, decode growth, swap-out/swap-in cycles -- so the golden
    covers the paths a refactor is most likely to disturb.
    """
    function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
    platform = ContinuousBatchingLLM(
        build_testbed_cluster(num_servers=2),
        admission="fcfs",
        max_kv_tokens=2000,
        tpot_slo_s=0.05,
    )
    platform.deploy(function)
    simulation = LLMSimulation(
        platform=platform,
        workload={function.name: constant_trace(15.0, 12.0)},
        invariants="strict",
        seed=11,
    )
    return simulation.run().to_dict()


def test_repeat_runs_are_bit_identical():
    first = json.loads(json.dumps(scenario_llm_continuous()))
    second = json.loads(json.dumps(scenario_llm_continuous()))
    assert first == second


def test_llm_report_matches_golden_bit_identically():
    assert_golden("llm.continuous", scenario_llm_continuous())


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    max_kv_tokens=st.integers(min_value=1200, max_value=4000),
    preemption=st.sampled_from(["swap", "sacrifice"]),
    victims=st.sampled_from(["conservative", "aggressive"]),
)
def test_preemption_never_strands_a_request(
    seed, max_kv_tokens, preemption, victims
):
    """Every arrival finishes or is dropped, under any KV pressure.

    Runs under the strict invariant audit (autouse fixture), so the
    KV ledger and conservation checks also gate every control tick of
    every generated case.
    """
    function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
    platform = ContinuousBatchingLLM(
        build_testbed_cluster(num_servers=2),
        admission="fcfs",
        max_kv_tokens=max_kv_tokens,
        preemption=preemption,
        victims=victims,
    )
    platform.deploy(function)
    simulation = LLMSimulation(
        platform=platform,
        workload={function.name: constant_trace(14.0, 8.0)},
        seed=seed,
    )
    report = simulation.run()
    assert report.completed + report.dropped == report.arrived
    assert simulation.sequences_in_system() == (0, 0, 0)


# ----------------------------------------------------------------------
# fused decode runs
# ----------------------------------------------------------------------
CHAOS_PLAN = Path(__file__).parents[1] / "examples" / "llm_chaos_plan.json"


class _TickProbe(LLMSimulation):
    """Records every worker's token state at each control tick."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ticks = []

    def _after_control(self, now: float) -> None:
        self.ticks.append([
            (w.worker_id, w.busy_until, w.decode_steps, w.tokens_generated,
             w.kv_resident_tokens, w.device.kv_reserved_mb, w.kv_free_tokens)
            for w in self.platform.workers
        ])
        super()._after_control(now)


def _simulation(
    traced: bool, servers: int = 2, faults=None, runtime=LLMSimulation,
    model: str = "llm-125m", gpu_memory_gb: Optional[float] = None,
    **options,
):
    """An llm-125m run (or ``model``'s) under the strict audit, on the
    testbed or on one-GPU servers of ``gpu_memory_gb`` each."""
    function = FunctionSpec.for_model(model, slo_s=0.5)
    if gpu_memory_gb is None:
        cluster = build_testbed_cluster(num_servers=servers)
    else:
        small = GpuProfile(name="small", memory_gb=gpu_memory_gb)
        cluster = Cluster([
            Server(server_id=i, num_gpus=1, gpu_profile=small)
            for i in range(servers)
        ])
    platform = ContinuousBatchingLLM(cluster, tpot_slo_s=0.05, **options)
    platform.deploy(function)
    return runtime(
        platform=platform,
        workload={function.name: constant_trace(15.0, 10.0)},
        tracer=InMemoryTracer() if traced else None,
        invariants="strict",
        faults=faults,
        seed=5,
    )


def _traced_and_untraced(**kwargs):
    """Both simulations and the report they agree on."""
    reference = _simulation(traced=True, **kwargs)
    fused = _simulation(traced=False, **kwargs)
    report = reference.run().to_dict()
    assert fused.run().to_dict() == report
    return reference, fused, report


@pytest.mark.parametrize(
    "preemption,victims,scheduling,admission",
    list(itertools.product(
        ("swap", "sacrifice"), ("conservative", "aggressive"),
        ("continuous", "static"), ("slo", "fcfs"),
    )),
)
def test_fused_runs_match_the_traced_reference(
    preemption, victims, scheduling, admission
):
    reference, fused, _report = _traced_and_untraced(
        max_kv_tokens=2000, preemption=preemption, victims=victims,
        scheduling=scheduling, admission=admission,
    )
    assert fused.loop.processed < reference.loop.processed


def test_shared_gpu_runs_match_and_do_not_fuse():
    reference, fused, _report = _traced_and_untraced(
        servers=1, replicas=2, gpu_percent=50, admission="fcfs",
    )
    first, second = fused.platform.workers
    assert first.device is second.device
    assert fused.loop.processed == reference.loop.processed


def test_fused_runs_match_under_the_chaos_plan():
    reference, fused, report = _traced_and_untraced(
        servers=4, faults=FaultPlan.coerce(str(CHAOS_PLAN)),
    )
    assert report["drop_reasons"].get("server_failure", 0) > 0
    assert fused.loop.processed < reference.loop.processed


def test_fused_runs_match_under_faults_between_ticks():
    # The chaos plan's faults land on control ticks, which end decode
    # runs anyway; these do not.
    faults = FaultPlan.coerce({"events": [
        {"kind": "instance_kill", "at_s": 2.37, "function": "fn-llm-125m"},
        {"kind": "server_crash", "at_s": 3.61, "server_id": 0},
        {"kind": "server_recovery", "at_s": 6.43, "server_id": 0},
    ]})
    reference, fused, report = _traced_and_untraced(
        servers=4, replicas=2, faults=faults,
    )
    assert report["drop_reasons"]["server_failure"] > 0
    assert fused.loop.processed < reference.loop.processed


def test_control_ticks_see_the_unfused_state():
    reference, fused, _report = _traced_and_untraced(
        runtime=_TickProbe, max_kv_tokens=2000,
    )
    assert fused.ticks == reference.ticks
    assert fused.loop.processed < reference.loop.processed


def test_fused_runs_match_where_device_memory_ends_them():
    # No max_kv_tokens: each worker's budget is its GPU's free memory.
    # 570 MB of KV room is exactly 3,000 llm-1b tokens of 0.19 MB in
    # real arithmetic, so float residue in the device's MB ledger can
    # leave the device a token short of the worker's own budget, and
    # the device bound, not the budget, ends some decode runs.
    reference, fused, _report = _traced_and_untraced(
        runtime=_TickProbe, servers=1, model="llm-1b",
        gpu_memory_gb=3170 / 1024,
    )
    assert fused.ticks == reference.ticks
    assert fused.loop.processed < reference.loop.processed
    (worker,) = fused.platform.workers
    assert worker.kv_capacity_tokens == 3000
    assert any(
        free < worker.kv_capacity_tokens - resident
        for tick in fused.ticks
        for (_id, _busy, _steps, _tokens, resident, _mb, free) in tick
    )


def _events_and_iterations(simulation):
    simulation.run()
    counters = simulation.platform.llm_counters()
    iterations = counters["prefill_steps"] + counters["decode_steps"]
    return simulation.loop.processed, iterations


def test_decode_runs_take_under_a_quarter_event_per_iteration():
    counts = [
        _events_and_iterations(llm_decode_experiment(quick=True).build())
        for _run in range(2)
    ]
    events, iterations = counts[0]
    assert events < iterations / 4
    assert counts[1] == counts[0]


def test_shared_gpu_takes_an_event_per_iteration():
    counts = [
        _events_and_iterations(_simulation(
            traced=False, servers=1, replicas=2, gpu_percent=50,
            admission="fcfs",
        ))
        for _run in range(2)
    ]
    events, iterations = counts[0]
    assert events >= iterations
    assert counts[1] == counts[0]
