"""Continuous batching, KV preemption and the LLM report surface.

Every simulation here runs under the strict invariant audit (the
autouse conftest fixture), so a KV-ledger leak or a stranded sequence
raises instead of silently skewing an assertion.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Experiment
from repro.baselines import LLMFCFSBaseline
from repro.cluster import build_testbed_cluster
from repro.cluster.cluster import Cluster
from repro.cluster.fleet import FleetSpec, GpuProfile, ServerGroup
from repro.cluster.server import AllocationError, GpuDevice, Server
from repro.core import FunctionSpec
from repro.llm import (
    ContinuousBatchingLLM,
    LLMSimulation,
    LLMWorker,
    Sequence,
    StaticBatchLLM,
)
from repro.faults import (
    FaultPlan,
    IngressSpike,
    InstanceKill,
    ServerCrash,
    ServerRecovery,
)
from repro.models import LLM_ZOO
from repro.telemetry import InMemoryTracer, TimelineRecorder
from repro.telemetry import spans as ev
from repro.workloads import constant_trace


def _llm_function(slo_s: float = 0.5) -> FunctionSpec:
    return FunctionSpec.for_model("llm-125m", slo_s=slo_s)


def _run(
    platform_cls=ContinuousBatchingLLM,
    rps: float = 12.0,
    duration_s: float = 10.0,
    seed: int = 3,
    tracer=None,
    faults=None,
    **options,
):
    function = _llm_function()
    platform = platform_cls(build_testbed_cluster(num_servers=2), **options)
    platform.deploy(function)
    simulation = LLMSimulation(
        platform=platform,
        workload={function.name: constant_trace(rps, duration_s)},
        tracer=tracer,
        faults=faults,
        seed=seed,
    )
    return simulation, simulation.run()


# ----------------------------------------------------------------------
# engine basics
# ----------------------------------------------------------------------
def test_continuous_batching_serves_and_reports():
    simulation, report = _run()
    assert report.arrived > 0
    assert report.completed + report.dropped == report.arrived
    assert simulation.sequences_in_system() == (0, 0, 0)
    llm = report.llm
    assert llm["requests"] == report.completed
    assert llm["ttft_p50_s"] > 0
    assert llm["tpot_p50_s"] > 0
    assert 0.0 <= llm["ttft_attainment"] <= 1.0
    assert llm["tokens_generated"] >= report.completed
    assert llm["kv_peak_tokens"] <= llm["kv_capacity_tokens"]


def test_timeline_rows_count_each_function_s_workers():
    """The LLM runtime samples its timeline once per function per control
    tick (ticks at 0..duration); each row counts that function's workers,
    and none is ever launching (workers serve from deployment)."""
    functions = [_llm_function(), FunctionSpec.for_model("llm-1b", slo_s=1.0)]
    platform = ContinuousBatchingLLM(build_testbed_cluster(num_servers=2))
    for function in functions:
        platform.deploy(function)
    timeline = TimelineRecorder()
    LLMSimulation(
        platform=platform,
        workload={f.name: constant_trace(6.0, 10.0) for f in functions},
        timeline=timeline,
        seed=3,
    ).run()
    ticks = [float(t) for t in range(11)]
    assert len(timeline) == len(ticks) * len(functions)
    for function in functions:
        workers = len(platform.instances(function.name))
        assert workers >= 1
        assert timeline.series(function.name, "t") == ticks
        assert timeline.series(function.name, "live_instances") == [workers] * len(ticks)
        assert set(timeline.series(function.name, "launching_instances")) == {0}


def test_llm_platform_rejects_single_shot_models():
    platform = ContinuousBatchingLLM(build_testbed_cluster(num_servers=2))
    with pytest.raises(TypeError, match="single-shot"):
        platform.deploy(FunctionSpec.for_model("resnet-50", slo_s=0.2))


def test_llm_simulation_rejects_single_shot_platforms():
    from repro.core import INFlessEngine

    platform = INFlessEngine(build_testbed_cluster(num_servers=2))
    with pytest.raises(TypeError, match="autoregressive"):
        LLMSimulation(platform=platform, workload={})


def test_llm_simulation_rejects_resilience_policies():
    platform = ContinuousBatchingLLM(build_testbed_cluster(num_servers=2))
    platform.deploy(_llm_function())
    with pytest.raises(ValueError, match="resilience"):
        LLMSimulation(platform=platform, workload={}, resilience=True)


def test_deploy_fails_loudly_when_nothing_fits():
    function = FunctionSpec.for_model("llm-3b", slo_s=1.0)
    cluster = FleetSpec((ServerGroup(1, gpus=1),)).build_cluster()
    platform = ContinuousBatchingLLM(cluster, replicas=1, gpu_percent=100)
    platform.deploy(function)  # the first replica takes the whole GPU
    second = FunctionSpec.for_model("llm-3b", slo_s=1.0, name="second")
    with pytest.raises(AllocationError, match="llm-3b"):
        platform.deploy(second)


# ----------------------------------------------------------------------
# preemption: all four mode x victim-policy combinations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("preemption", ["swap", "sacrifice"])
@pytest.mark.parametrize("victims", ["conservative", "aggressive"])
def test_preemption_combos_conserve_requests(preemption, victims):
    tracer = InMemoryTracer()
    simulation, report = _run(
        rps=15.0,
        duration_s=12.0,
        seed=11,
        tracer=tracer,
        admission="fcfs",
        max_kv_tokens=2000,
        preemption=preemption,
        victims=victims,
    )
    assert report.completed + report.dropped == report.arrived
    assert simulation.sequences_in_system() == (0, 0, 0)
    llm = report.llm
    # The tight KV cap must actually trigger the machinery under test.
    assert llm["preemptions"][preemption] > 0
    other = "sacrifice" if preemption == "swap" else "swap"
    assert llm["preemptions"][other] == 0
    if preemption == "swap":
        assert llm["swap_ins"] > 0
    assert llm["kv_peak_tokens"] <= 2000


def test_kv_infeasible_requests_drop_at_the_door():
    _simulation, report = _run(
        rps=8.0, duration_s=6.0, admission="fcfs", max_kv_tokens=100
    )
    # Almost no request's worst case fits in 100 KV tokens; whatever
    # is shed must be shed for exactly that reason, at the door.
    assert report.drop_reasons.get("kv_infeasible", 0) == report.dropped
    assert report.dropped > 0
    assert report.completed + report.dropped == report.arrived


def test_fcfs_queue_cap_sheds_overflow():
    # A tight KV cap stalls admission at the head of the queue, so the
    # gateway backlog grows past the cap and overflow arrivals shed.
    _simulation, report = _run(
        rps=60.0,
        duration_s=8.0,
        admission="fcfs",
        max_queue=4,
        max_kv_tokens=700,
    )
    assert report.drop_reasons.get("queue_full", 0) > 0
    assert report.completed + report.dropped == report.arrived


# ----------------------------------------------------------------------
# admission routing by KV reach
# ----------------------------------------------------------------------
def _two_replica_platform(servers, victims: str, gpu_percent: int):
    platform = ContinuousBatchingLLM(
        Cluster(servers, beta=1.0), replicas=2, gpu_percent=gpu_percent,
        admission="fcfs", victims=victims,
    )
    function = FunctionSpec.for_model("llm-1b", slo_s=5.0)
    platform.deploy(function)
    return platform, function


def _chat(request_id: int, function: str, prompt: int, output: int):
    return Sequence(request_id, function, 0.0, 5.0, 0.1, prompt, output)


def _drain(platform, worker, max_steps: int = 5_000) -> None:
    """Step ``worker`` until it runs dry; fails on a stalled plan."""
    now = 0.0
    for _ in range(max_steps):
        if not worker.has_work:
            return
        plan = platform.begin_step(worker, now)
        assert plan is not None, "worker has work but plans no step"
        now += plan.duration_s
        platform.finish_step(worker, plan, now)
    pytest.fail(f"worker still busy after {max_steps} steps")


@pytest.mark.parametrize("victims", ["conservative", "aggressive"])
def test_admission_guard_uses_what_the_shared_gpu_can_hold(victims):
    # Two llm-1b replicas share one 5.5 GB GPU.  Replica 0 sized its
    # budget (15957 tokens) before replica 1's weights loaded, leaving
    # 2273 tokens of KV memory for both; a 2600-token worst case can
    # never run, whichever replica it is routed to.
    small = GpuProfile(name="small", memory_gb=5.5)
    platform, function = _two_replica_platform(
        [Server(server_id=0, num_gpus=1, gpu_profile=small)], victims, 50
    )
    assert [w.kv_capacity_tokens for w in platform.workers] == [15957, 2273]
    first, reason = platform.admit(_chat(0, function.name, 100, 10), 0.0)
    assert (first.worker_id, reason) == (0, None)
    worker, reason = platform.admit(_chat(1, function.name, 2000, 600), 0.0)
    assert (worker, reason) == (None, ev.DROP_KV_INFEASIBLE)
    fits, reason = platform.admit(_chat(2, function.name, 2000, 200), 0.0)
    assert (fits.worker_id, reason) == (1, None)
    assert [w.kv_reach_tokens for w in platform.workers] == [2273, 2273]
    for worker in platform.workers:
        _drain(platform, worker)


@pytest.mark.parametrize("victims", ["conservative", "aggressive"])
def test_admission_routes_past_a_replica_too_small_for_the_request(victims):
    # Replica 1 sits on a 3 GB GPU (2484 KV tokens) and is the least
    # loaded; a 2600-token worst case must go to replica 0 instead.
    servers = [
        Server(server_id=0, num_gpus=1),
        Server(server_id=1, num_gpus=1,
               gpu_profile=GpuProfile(name="small", memory_gb=3.0)),
    ]
    platform, function = _two_replica_platform(servers, victims, 100)
    assert [w.kv_capacity_tokens for w in platform.workers] == [45600, 2484]
    platform.admit(_chat(0, function.name, 100, 10), 0.0)
    worker, reason = platform.admit(_chat(1, function.name, 2000, 600), 0.0)
    assert (worker.worker_id, reason) == (0, None)
    _drain(platform, worker)
    assert worker.tokens_generated == 610


# ----------------------------------------------------------------------
# KV ledger: one device charge per decode iteration, one call per run
# ----------------------------------------------------------------------
def _ledger(device):
    return device.kv_reserved_tokens, device.kv_reserved_mb


def _charge_each(device, mb_per_token: float, sequences: int):
    """The reference: ``sequences`` separate one-token charges."""
    for _ in range(sequences):
        device.kv_acquire(1, mb_per_token)


_NEAR_FULL = dict(
    spec=st.sampled_from(sorted(LLM_ZOO.values(), key=lambda s: s.name)),
    memory_gb=st.sampled_from([11.0, 16.0, 24.0]),
    prompts=st.lists(st.integers(1, 2048), max_size=3),
    slack=st.integers(0, 160),
)


def _near_full_devices(spec, memory_gb, prompts, slack):
    """Two identical devices holding ``spec``'s weights, filled by real
    prompt charges to within ``slack`` tokens of their KV capacity, so
    decode batches straddle the capacity edge."""
    devices = []
    for _ in range(2):
        device = GpuDevice(device_id=0, memory_mb=memory_gb * 1024.0)
        device.reserve_weights(spec.weights_mb)
        free = spec.kv_capacity_tokens(device.memory_free_mb)
        for tokens in prompts + [free - sum(prompts) - slack - 1]:
            if 0 < tokens <= spec.kv_capacity_tokens(device.memory_free_mb):
                device.kv_acquire(tokens, spec.kv_mb_per_token)
        devices.append(device)
    return devices


@settings(max_examples=300, deadline=None)
@given(batches=st.lists(st.integers(1, 64), min_size=1, max_size=5),
       **_NEAR_FULL)
def test_batch_kv_charge_equals_per_sequence_charges(
    spec, memory_gb, prompts, slack, batches
):
    batched, single = _near_full_devices(spec, memory_gb, prompts, slack)
    mb = spec.kv_mb_per_token
    for sequences in batches:
        before = _ledger(batched)
        try:
            _charge_each(single, mb, sequences)
        except AllocationError:
            with pytest.raises(AllocationError):
                batched.kv_acquire(1, mb, sequences)
            assert _ledger(batched) == before  # refused whole
            return
        batched.kv_acquire(1, mb, sequences)
        # Exact float equality: the MB ledger must be bit-identical.
        assert _ledger(batched) == _ledger(single)


def _worker_on(device, spec, kv_capacity_tokens: int) -> LLMWorker:
    return LLMWorker(
        worker_id=0,
        function=FunctionSpec.for_model(spec.name, slo_s=1.0),
        placement=SimpleNamespace(server_id=0),
        device=device,
        config=(1, 2, 100),
        kv_capacity_tokens=kv_capacity_tokens,
    )


def _book_each(worker, batch: int, iterations: int) -> int:
    """The reference: one batch charge per iteration while it fits."""
    n = iterations
    while n and batch <= worker.kv_free_tokens:
        worker.kv_acquire(1, batch)
        n -= 1
    return iterations - n


def _kv_state(worker):
    device = worker.device
    return (
        device.kv_reserved_tokens,
        device.kv_reserved_mb.hex(),  # bit for bit
        worker.kv_resident_tokens,
        worker.kv_acquired_total,
        worker.kv_peak_tokens,
    )


def _book_run_both_ways(
    spec, memory_gb, prompts, slack, budget_offset, prime, overcommit_mb,
    batch, iterations,
) -> str:
    """Book one decode run with ``kv_acquire_run`` and with the
    reference on twin workers, assert they agree exactly, and say what
    ended the run."""
    devices = _near_full_devices(spec, memory_gb, prompts, slack)
    budget = spec.kv_capacity_tokens(devices[0].memory_free_mb) + budget_offset
    run, each = (_worker_on(device, spec, budget) for device in devices)
    for worker in (run, each):
        if 0 < prime <= worker.kv_free_tokens:
            # Leaves a peak above what is resident.
            worker.kv_acquire(prime)
            worker.kv_release(prime)
        if overcommit_mb is not None:
            # Free memory at or below zero: weights claim the rest and more.
            device = worker.device
            device.weights_reserved_mb = (
                device.memory_mb - device.kv_reserved_mb + overcommit_mb
            )
    own = run.kv_capacity_tokens - run.kv_resident_tokens
    booked = run.kv_acquire_run(batch, iterations)
    assert booked == _book_each(each, batch, iterations)
    assert _kv_state(run) == _kv_state(each)
    if booked == iterations:
        return "all booked" if iterations else "none asked"
    if own < 0:
        return "own below zero"
    if run.device.memory_free_mb <= 0:
        return "no free memory"
    if run.kv_capacity_tokens - run.kv_resident_tokens < batch:
        return "own budget"
    return "device"


@settings(max_examples=300, deadline=None)
@given(
    batch=st.integers(1, 64),
    iterations=st.integers(0, 40),
    budget_offset=st.integers(-400, 400),
    prime=st.integers(0, 200),
    overcommit_mb=st.one_of(st.none(), st.floats(0.0, 500.0)),
    **_NEAR_FULL,
)
def test_run_booking_equals_per_iteration_charges(
    spec, memory_gb, prompts, slack, budget_offset, prime, overcommit_mb,
    batch, iterations,
):
    _book_run_both_ways(
        spec, memory_gb, prompts, slack, budget_offset, prime,
        overcommit_mb, batch, iterations,
    )


@pytest.mark.parametrize("stop,budget_offset,overcommit_mb,iterations", [
    ("none asked", 1000, None, 0),
    ("all booked", 1000, None, 3),
    ("device", 1000, None, 40),
    ("own budget", -60, None, 40),
    ("own below zero", -200, None, 40),
    ("no free memory", 1000, 0.0, 40),
])
def test_run_booking_stops_where_the_reference_does(
    stop, budget_offset, overcommit_mb, iterations
):
    # About 101 free tokens on the device; batches of 8.
    assert _book_run_both_ways(
        LLM_ZOO["llm-125m"], 11.0, [300], 100, budget_offset, 50,
        overcommit_mb, 8, iterations,
    ) == stop


def test_run_booking_fills_a_device_to_the_last_token():
    # 8,664 MB of KV room over 0.19 MB a token is exactly 45,600.0, so
    # one iteration of 45,600 sequences fits with nothing to spare.
    spec = LLM_ZOO["llm-1b"]
    run, each = (
        _worker_on(GpuDevice(device_id=0, memory_mb=11 * 1024.0), spec,
                   45_600)
        for _ in range(2)
    )
    for worker in (run, each):
        worker.device.reserve_weights(spec.weights_mb)
    assert run.kv_acquire_run(45_600, 2) == _book_each(each, 45_600, 2) == 1
    assert _kv_state(run) == _kv_state(each)


@settings(max_examples=300, deadline=None)
@given(
    sequences=st.integers(1, 64),
    budget_offset=st.integers(-200, 200),
    overcommit_mb=st.one_of(st.none(), st.floats(0.0, 500.0)),
    **_NEAR_FULL,
)
def test_kv_free_tokens_matches_the_device_capacity(
    spec, memory_gb, prompts, slack, sequences, budget_offset,
    overcommit_mb,
):
    batched, single = _near_full_devices(spec, memory_gb, prompts, slack)
    worker = _worker_on(batched, spec, max(
        0, spec.kv_capacity_tokens(batched.memory_free_mb) + budget_offset
    ))
    before = _ledger(single)
    try:
        _charge_each(single, spec.kv_mb_per_token, sequences)
    except AllocationError:
        with pytest.raises(AllocationError):
            worker.kv_acquire(1, sequences)
        # The batched charge is refused whole; so is the reference.
        single.kv_reserved_tokens, single.kv_reserved_mb = before
    else:
        worker.kv_acquire(1, sequences)
    if overcommit_mb is not None:
        # Free memory at or below zero: weights claim the rest and more.
        for device in (batched, single):
            device.weights_reserved_mb = (
                device.memory_mb - single.kv_reserved_mb + overcommit_mb
            )
    own = worker.kv_capacity_tokens - worker.kv_resident_tokens
    assert worker.kv_free_tokens == min(
        own, spec.kv_capacity_tokens(single.memory_free_mb)
    )


# ----------------------------------------------------------------------
# continuous vs static batching (the tentpole claim)
# ----------------------------------------------------------------------
def test_continuous_beats_static_on_token_goodput():
    """Iteration-level scheduling wins goodput under a TPOT SLO."""
    common = dict(rps=40.0, duration_s=15.0, seed=11, tpot_slo_s=0.05)
    _sim_cb, continuous = _run(ContinuousBatchingLLM, **common)
    _sim_st, static = _run(StaticBatchLLM, **common)
    assert (
        continuous.llm["token_goodput_tps"]
        > static.llm["token_goodput_tps"]
    )
    assert continuous.llm["scheduling"] == "continuous"
    assert static.llm["scheduling"] == "static"


# ----------------------------------------------------------------------
# the FCFS baseline through the Experiment facade
# ----------------------------------------------------------------------
def test_fcfs_baseline_runs_via_experiment():
    function = _llm_function()
    experiment = Experiment(
        platform="llm-fcfs",
        servers=2,
        functions=[function],
        workload={function.name: constant_trace(10.0, 8.0)},
        platform_options={"tpot_slo_s": 0.08},
        seed=4,
    )
    report = experiment.run()
    assert isinstance(experiment.simulation.platform, LLMFCFSBaseline)
    assert experiment.simulation.platform.admission == "fcfs"
    assert report.llm["admission"] == "fcfs"
    assert report.llm["tpot_slo_s"] == pytest.approx(0.08)
    assert report.completed > 0


def test_llm_platforms_are_campaign_axis_values():
    from repro.campaign import CampaignSpec

    spec = CampaignSpec.from_dict(
        {
            "name": "llm-mini",
            "axes": {
                "platform": ["llm", "llm-static", "llm-fcfs"],
                "model": ["llm-125m"],
                "rps": [5.0],
                "slo_ms": [500.0],
                "servers": [2],
            },
            "replicates": [0],
            "duration_s": 4.0,
        }
    )
    runs = spec.expand()
    assert [run.cell["platform"] for run in runs] == [
        "llm", "llm-static", "llm-fcfs",
    ]
    assert all(run.experiment["platform"] == run.cell["platform"]
               for run in runs)


def test_single_shot_reports_omit_the_llm_block():
    function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    experiment = Experiment(
        platform="infless",
        servers=2,
        functions=[function],
        workload={function.name: constant_trace(20.0, 5.0)},
        seed=2,
    )
    report = experiment.run()
    assert report.llm is None
    assert "llm" not in report.to_dict()


# ----------------------------------------------------------------------
# faults at token granularity
# ----------------------------------------------------------------------
def test_server_crash_drops_in_flight_and_recovery_reheals():
    plan = FaultPlan(
        events=(
            ServerCrash(at_s=4.0, server_id=0),
            ServerRecovery(at_s=8.0, server_id=0),
        )
    )
    simulation, report = _run(
        rps=10.0, duration_s=14.0, replicas=2, faults=plan
    )
    assert report.completed + report.dropped == report.arrived
    assert report.drop_reasons.get("server_failure", 0) > 0
    # The control loop re-placed the lost replica after recovery.
    assert simulation.platform.launches > 2


def test_instance_kill_drops_in_flight_and_readmits_the_queue():
    # A tight KV cap keeps prompts waiting behind the running batch, so
    # the killed worker holds both kinds of sequence.
    function = _llm_function()
    experiment = Experiment(
        platform="llm",
        functions=[function],
        workload={function.name: constant_trace(15.0, 12.0)},
        servers=2,
        platform_options={
            "tpot_slo_s": 0.05, "max_kv_tokens": 2000, "preemption": "swap",
        },
        faults=FaultPlan(events=(
            InstanceKill(at_s=5.0, function=function.name),
        )),
        telemetry=True,
        invariants="strict",
        seed=11,
    )
    platform = experiment.build().platform
    kills = []

    def kill_instance(name, now):
        kills.append(ContinuousBatchingLLM.kill_instance(platform, name, now))
        return kills[-1]

    platform.kill_instance = kill_instance
    report = experiment.run()
    (worker, stranded, requeue), = kills
    assert stranded and requeue
    events = experiment.tracer.events
    drops = {}
    for event in events:
        if event.kind == ev.REQUEST_DROP:
            drops.setdefault(event.args["reason"], set()).add(
                event.args["request"]
            )
    # Running and swapped sequences lost their KV cache with the worker.
    assert drops[ev.DROP_SERVER_FAILURE] == {s.request_id for s in stranded}
    # Waiting ones went back through admission; the function's only
    # replica is gone until the next control tick heals it.
    assert drops[ev.DROP_NO_CAPACITY] == {s.request_id for s in requeue}
    assert worker not in platform.workers
    assert (report.arrived, report.completed) == (174, 166)
    assert report.drop_reasons == {"server_failure": 4, "no_capacity": 4}
    assert report.invariant_violations == []
    injected = [e for e in events if e.kind == ev.FAULT_INJECTED]
    assert [e.args for e in injected] == [{
        "fault": "instance_kill", "detail": f"function={function.name}",
    }]


def test_unsupported_fault_kinds_raise_at_run():
    plan = FaultPlan(
        events=(
            IngressSpike(at_s=2.0, duration_s=2.0, extra_delay_s=0.5),
        )
    )
    function = _llm_function()
    platform = ContinuousBatchingLLM(build_testbed_cluster(num_servers=2))
    platform.deploy(function)
    with pytest.raises(ValueError, match="token granularity"):
        LLMSimulation(
            platform=platform,
            workload={function.name: constant_trace(5.0, 4.0)},
            faults=plan,
        ).run()
