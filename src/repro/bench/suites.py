"""The benchmark suite: micro hot paths and macro paper artifacts.

Micro-benchmarks isolate one simulator hot path each; the two macro
benchmarks replay scaled-down versions of the paper's Fig. 12 trace
experiment and Fig. 18 large-scale provisioning sweep.  Every
benchmark has a ``quick`` mode small enough for a CI smoke run.

The COP predictors (the paper's *offline* profiling step, one per GPU
generation) are warmed before any timing starts: the production system
profiles operators ahead of deployment, so cache population is not
part of the serving-path cost being tracked here.  ``cop_profile``
times that offline step on its own.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.harness import BenchResult, measure

#: mean RPS of the Fig. 12 macro trace replay.
FIG12_MEAN_RPS = 300.0

#: mean RPS of the fluid Fig. 12 replay: the fluid engine's step cost
#: is O(ticks x functions), independent of request volume, so the
#: macro benchmark runs the same shape at 100x the discrete operating
#: point -- the million-user-scale regime a per-request event loop
#: cannot reach.
FIG12_FLUID_RPS = 30_000.0

#: fleet sizes swept by the Fig. 18 macro benchmark.
FIG18_COUNTS_QUICK: Sequence[int] = (10, 20)
FIG18_COUNTS_FULL: Sequence[int] = (10, 20, 30, 40)


# ----------------------------------------------------------------------
# micro-benchmarks
# ----------------------------------------------------------------------
def bench_event_queue(quick: bool = False) -> int:
    """Event-queue churn: schedule/pop pressure on the event loop.

    Half the events are pre-scheduled with interleaved (non-monotonic)
    timestamps; each processed arrival schedules one follow-up until
    the budget drains, mixing near-future pushes into an aged heap the
    way batch timeouts and completions do in a real replay.
    """
    from repro.simulation.engine import EventLoop
    from repro.simulation.events import EventKind

    total = 100_000 if quick else 400_000
    loop = EventLoop()
    budget = total // 2

    def on_arrival(event) -> None:
        """Consume one arrival; reschedule a near-future follow-up."""
        nonlocal budget
        if budget > 0:
            budget -= 1
            loop.schedule(loop.now + 0.0015, EventKind.BATCH_TIMEOUT, None)

    loop.on(EventKind.ARRIVAL, on_arrival)
    loop.on(EventKind.BATCH_TIMEOUT, lambda event: None)
    for index in range(total // 2):
        # Deterministic, deliberately non-monotonic schedule order.
        time = (index % 977) * 0.01 + index * 1e-6
        loop.schedule(time, EventKind.ARRIVAL, index)
    loop.run()
    return loop.processed


def bench_scheduler_search(quick: bool = False) -> int:
    """Algorithm 1's configuration search over a synthetic fleet.

    Fresh cluster and scheduler per round (cold config caches, cold
    free-capacity index), shared warm predictor; returns the number of
    instances placed across rounds.
    """
    from repro.cluster import build_testbed_cluster
    from repro.core.scheduler import GreedyScheduler
    from repro.profiling import build_default_predictor
    from repro.simulation.largescale import make_function_fleet

    predictor = build_default_predictor()
    rounds = 2 if quick else 6
    fleet = make_function_fleet(12)
    placed = 0
    for _round in range(rounds):
        cluster = build_testbed_cluster(num_servers=32)
        scheduler = GreedyScheduler(cluster, predictor)
        for function in fleet:
            outcome = scheduler.schedule(function, 400.0)
            placed += len(outcome.instances)
    return placed


class _Routable:
    """The one instance field the router weighs: its assigned rate."""

    __slots__ = ("assigned_rate",)

    def __init__(self, assigned_rate: float) -> None:
        self.assigned_rate = assigned_rate


class _FixedPool:
    """An autoscaler as the router sees it: a version and a fixed pool."""

    def __init__(self, candidates: List[_Routable]) -> None:
        self.version = 0
        self.candidates = candidates

    def route_pool(self, function_name: str, now: float):
        return self.candidates, float("inf")


def bench_router(quick: bool = False) -> int:
    """Weighted request routing (section 3.2): ``INFlessEngine.route``.

    Routes N requests over a fixed pool of eight instances with
    unequal assigned rates.  Every 1,000 requests the pool's version
    is bumped, as a control step does, so the router rebuilds its
    CDF.  Returns the picks made.
    """
    from repro.cluster import build_testbed_cluster
    from repro.core import INFlessEngine
    from repro.profiling import build_default_predictor

    n = 200_000 if quick else 1_000_000
    engine = INFlessEngine(
        build_testbed_cluster(num_servers=1), build_default_predictor()
    )
    pool = _FixedPool([_Routable(rate) for rate in (
        40.0, 120.0, 25.0, 300.0, 80.0, 10.0, 160.0, 55.0,
    )])
    engine.autoscaler = pool
    route = engine.route
    picks = 0
    for index in range(n):
        if index % 1000 == 0:
            pool.version += 1
        if route("f", index * 1e-3) is not None:
            picks += 1
    return picks


class _QueuedRequest:
    """Minimal batch-queue payload carrying only an arrival time."""

    __slots__ = ("arrival",)

    def __init__(self, arrival: float) -> None:
        self.arrival = arrival


def bench_batch_queue(quick: bool = False) -> int:
    """`BatchQueue` admission and drain churn (Fig. 6a mechanics)."""
    from repro.core.batching import BatchQueue

    n = 100_000 if quick else 400_000
    queue = BatchQueue(batch_size=8, timeout_s=0.05)
    ops = 0
    now = 0.0
    for _index in range(n):
        now += 1e-4
        queue.enqueue(_QueuedRequest(now), now)
        ops += 1
        if queue.should_flush(now):
            ops += len(queue.drain(now))
    while not queue.is_empty:
        ops += len(queue.drain(now))
    return ops


def llm_decode_experiment(quick: bool = False):
    """The steady one-worker autoregressive workload ``llm_decode`` runs."""
    from repro.api import Experiment
    from repro.core import FunctionSpec
    from repro.workloads import constant_trace

    duration_s = 30.0 if quick else 120.0
    function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
    return Experiment(
        platform="llm",
        servers=1,
        functions=[function],
        workload={function.name: constant_trace(20.0, duration_s)},
        platform_options={"tpot_slo_s": 0.1},
        invariants="off",
        seed=13,
    )


def bench_llm_decode(quick: bool = False) -> int:
    """Continuous-batching decode churn: the ``repro.llm`` hot path.

    Replays a steady autoregressive workload against one worker so the
    engine spends nearly all its time in the per-iteration decode loop
    (one KV-ledger charge per iteration for the whole batch, step
    planning, completion bookkeeping); returns the iterations run
    (prefill + decode).  One event can cover a run of decode
    iterations, so the event count would understate the work.
    """
    llm = llm_decode_experiment(quick).run().llm
    return llm["prefill_steps"] + llm["decode_steps"]


def bench_sketch_metrics(quick: bool = False) -> int:
    """Quantile-sketch ingest/merge/query: the scale-out metrics path.

    Streams a deterministic latency-shaped series into per-shard
    sketches, merges them and queries the percentiles -- the exact
    operations sharded trace replays and sketch-mode collectors spend
    their metrics budget on; returns values ingested.
    """
    from repro.simulation.sketches import QuantileSketch

    n = 200_000 if quick else 1_000_000
    shards = 8
    sketches = [QuantileSketch() for _shard in range(shards)]
    for index in range(n):
        # Deterministic multi-modal latencies spanning ~4 decades.
        value = 0.001 + (index % 977) * 1e-4 + (index % 31) * 0.01
        sketches[index % shards].add(value)
    merged = QuantileSketch.merged(sketches)
    for q in (50.0, 95.0, 99.0, 99.9):
        merged.quantile(q)
    return merged.count


def bench_fluid_step(quick: bool = False) -> int:
    """`FunctionFluid.step` churn: the fluid engine's only hot path.

    Integrates one function's fluid state vector over a long constant
    trace, so the measured cost is the per-tick control + flow + atom
    emission work (there is no per-request cost to hide behind);
    returns the Euler steps taken.
    """
    from repro.core import FunctionSpec
    from repro.fluid.engine import FluidSimulation
    from repro.profiling import build_default_predictor
    from repro.workloads import constant_trace

    ticks = 1_000 if quick else 5_000
    function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    sim = FluidSimulation(
        functions=[function],
        workload={function.name: constant_trace(200.0, float(ticks))},
        predictor=build_default_predictor(),
        invariants="off",
    )
    sim.run()
    return sim.steps


def bench_invariant_tick(quick: bool = False) -> int:
    """Cost of one conservation-audit control tick, repeated.

    Runs a small serving simulation to completion, then re-runs the
    per-tick audit (request/resource conservation plus scheduler
    soundness) against the final state; returns the tick count.
    """
    from repro.invariants import InvariantChecker

    sim = _small_simulation(duration_s=20.0)
    sim.run()
    checker = InvariantChecker(mode="collect")
    ticks = 300 if quick else 1500
    for _tick in range(ticks):
        checker.check_tick(sim, sim.loop.now)
    return ticks


def bench_workflow_sched(quick: bool = False) -> int:
    """Algorithm 1 under DAG workflow load (the repro.workflows path).

    Schedules the OSVT and Q&A pipelines' stage functions against
    fresh testbed clusters with a co-placement hint attached for the
    OSVT DAG, exercising the inlined Eq. 10 scoring plus the
    preferred-server pass.  Each round's fresh scheduler builds its
    ``AvailableConfig`` rows from the shared predictor's priced grids,
    which a warm-up round fills first (COP profiling and pricing are
    offline work).  Returns instances placed.
    """
    from repro.cluster import build_testbed_cluster
    from repro.core.function import FunctionSpec
    from repro.core.scheduler import GreedyScheduler
    from repro.profiling import build_default_predictor
    from repro.workflows import CoPlacementHint
    from repro.workloads import build_osvt, build_qa_robot

    predictor = build_default_predictor()
    osvt = build_osvt()
    # Each stage gets a uniform share of its application's SLO.
    stage_functions = [
        FunctionSpec(
            name=fn.name, model=fn.model, slo_s=app.slo_s / len(app.functions)
        )
        for app in (osvt, build_qa_robot())
        for fn in app.functions
    ]
    loads = (120.0, 90.0, 90.0, 300.0, 260.0, 260.0)
    workflow = osvt.as_workflow()
    rounds = 10 if quick else 40

    def one_round(scheduler) -> int:
        """Place every stage function once at its offered load."""
        placed = 0
        for function, rps in zip(stage_functions, loads):
            outcome = scheduler.schedule(function, rps)
            placed += len(outcome.instances)
        return placed

    one_round(GreedyScheduler(build_testbed_cluster(), predictor))
    placed = 0
    for _round in range(rounds):
        scheduler = GreedyScheduler(build_testbed_cluster(), predictor)
        scheduler.coplacement = CoPlacementHint(workflow)
        placed += one_round(scheduler)
    return placed


def bench_cop_profile(quick: bool = False) -> int:
    """COP's offline step: one uncached profile database build.

    Profiles the operator catalog (every fourth kind in quick mode)
    over the full ``<b, c, g>`` x input-size grid on a fresh profiler,
    bypassing the process-wide predictor cache; returns the number of
    profiled grid points.
    """
    from repro.ops.catalog import OPERATOR_CATALOG
    from repro.profiling import OperatorProfiler

    operators = sorted(OPERATOR_CATALOG)
    if quick:
        operators = operators[::4]
    return len(OperatorProfiler().build_database(operators=operators))


def bench_hybrid_scale(quick: bool = False) -> int:
    """Hybrid auto-scaling under a ramping load on a mixed fleet.

    Replays a staircase load ramp through the HAS-GPU-style hybrid
    auto-scaler (in-place GPU-quota growth before horizontal spawns)
    on a 2080Ti/A100 mixed fleet, exercising the vertical-resize and
    generation-aware prediction paths; returns events processed.
    """
    import numpy as np

    from repro.api import Experiment
    from repro.cluster.fleet import FleetSpec, ServerGroup
    from repro.core import FunctionSpec
    from repro.profiling import build_default_predictor
    from repro.workloads.trace import Trace

    duration_s = 40.0 if quick else 160.0
    steps = 8
    # 60 -> 480 rps staircase: every riser asks the scaler for more
    # rate than the live instances currently price.
    rps = np.repeat(
        np.linspace(60.0, 480.0, steps),
        int(duration_s / steps),
    )
    trace = Trace(name="ramp", step_s=1.0, rps=rps)
    fleet = FleetSpec(groups=(
        ServerGroup(count=3, gpu_profile="2080ti"),
        ServerGroup(count=1, gpu_profile="a100"),
    ))
    function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    experiment = Experiment(
        platform="infless",
        fleet=fleet,
        autoscaler="hybrid",
        predictor=build_default_predictor(),
        functions=[function],
        workload={function.name: trace},
        warmup_s=5.0,
        invariants="off",
        seed=11,
    )
    experiment.run()
    return experiment.simulation.loop.processed


# ----------------------------------------------------------------------
# macro-benchmarks
# ----------------------------------------------------------------------
def bench_fig12_trace(quick: bool = False) -> int:
    """The Fig. 12 trace replay: OSVT app on a bursty trace, INFless.

    A scaled-down version of ``benchmarks/bench_fig12a_traces.py``'s
    experiment; returns the discrete events processed.
    """
    from repro.api import Experiment
    from repro.profiling import build_default_predictor
    from repro.workloads import build_osvt
    from repro.workloads.generators import bursty_trace

    duration_s = 60.0 if quick else 240.0
    trace = bursty_trace(
        FIG12_MEAN_RPS,
        duration_s,
        period_s=duration_s,
        burst_rate_per_hour=30.0,
        burst_duration_s=30.0,
        seed=22,
    )
    app = build_osvt()
    experiment = Experiment(
        platform="infless",
        predictor=build_default_predictor(),
        functions=app.functions,
        workload={
            name: trace.with_mean(rps)
            for name, rps in app.rps_split(trace.mean_rps).items()
        },
        warmup_s=10.0,
        invariants="off",
        seed=5,
    )
    experiment.run()
    return experiment.simulation.loop.processed


def bench_fig12_fluid(quick: bool = False) -> int:
    """The Fig. 12 replay through the fluid engine, at 100x the load.

    Same application, trace shape, warmup and seed as
    :func:`bench_fig12_trace`, but with the mean rps raised to
    :data:`FIG12_FLUID_RPS` and the continuous-time engine doing the
    serving: the fluid step cost does not grow with request volume, so
    the effective events per second (arrivals + completions + drops a
    discrete replay would have heap-processed) demonstrate the >=100x
    throughput headroom the hybrid engine's tail path relies on.
    """
    from repro.api import Experiment
    from repro.profiling import build_default_predictor
    from repro.workloads import build_osvt
    from repro.workloads.generators import bursty_trace

    duration_s = 60.0 if quick else 240.0
    trace = bursty_trace(
        FIG12_FLUID_RPS,
        duration_s,
        period_s=duration_s,
        burst_rate_per_hour=30.0,
        burst_duration_s=30.0,
        seed=22,
    )
    app = build_osvt()
    experiment = Experiment(
        platform="infless",
        predictor=build_default_predictor(),
        functions=app.functions,
        workload={
            name: trace.with_mean(rps)
            for name, rps in app.rps_split(trace.mean_rps).items()
        },
        warmup_s=10.0,
        invariants="off",
        engine="fluid",
        seed=5,
    )
    experiment.run()
    return experiment.simulation.effective_events


def bench_fig18_largescale(quick: bool = False) -> int:
    """The Fig. 18 sweep: provision a fleet on a large cluster.

    Runs the platforms' real scheduling code (INFless and BATCH)
    against a programmatically scaled cluster, as the paper's
    large-scale methodology does; returns instances provisioned.
    """
    from repro.baselines import BatchOTP
    from repro.core import INFlessEngine
    from repro.profiling import build_default_predictor
    from repro.simulation.largescale import throughput_vs_functions

    predictor = build_default_predictor()
    num_servers = 250 if quick else 1000
    counts = FIG18_COUNTS_QUICK if quick else FIG18_COUNTS_FULL
    base_rps = 1500.0 if quick else 3000.0
    results = throughput_vs_functions(
        {
            "infless": lambda c: INFlessEngine(c, predictor=predictor),
            "batch": lambda c: BatchOTP(c, predictor),
        },
        function_counts=counts,
        num_servers=num_servers,
        base_rps=base_rps,
    )
    return sum(
        result.instances
        for series in results.values()
        for _count, result in series
    )


# ----------------------------------------------------------------------
# suite plumbing
# ----------------------------------------------------------------------
def _small_simulation(duration_s: float = 20.0):
    """A small seeded serving run shared by micro-benchmarks."""
    from repro.api import Experiment
    from repro.core import FunctionSpec
    from repro.profiling import build_default_predictor
    from repro.workloads import constant_trace

    function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    return Experiment(
        platform="infless",
        servers=4,
        predictor=build_default_predictor(),
        functions=[function],
        workload={function.name: constant_trace(100.0, duration_s)},
        invariants="off",
        seed=7,
    ).build()


MICRO_BENCHMARKS: Dict[str, Callable[[bool], int]] = {
    "event_queue": bench_event_queue,
    "scheduler_search": bench_scheduler_search,
    "batch_queue": bench_batch_queue,
    "router": bench_router,
    "sketch_metrics": bench_sketch_metrics,
    "llm_decode": bench_llm_decode,
    "fluid_step": bench_fluid_step,
    "invariant_tick": bench_invariant_tick,
    "workflow_sched": bench_workflow_sched,
    "hybrid_scale": bench_hybrid_scale,
    "cop_profile": bench_cop_profile,
}

MACRO_BENCHMARKS: Dict[str, Callable[[bool], int]] = {
    "fig12_trace": bench_fig12_trace,
    "fig12_fluid": bench_fig12_fluid,
    "fig18_largescale": bench_fig18_largescale,
}

BENCHMARKS: Dict[str, Callable[[bool], int]] = {
    **MICRO_BENCHMARKS,
    **MACRO_BENCHMARKS,
}


def _warm_shared_caches() -> None:
    """Populate offline caches before any benchmark is timed.

    The COP predictors' profile databases are the paper's ahead-of-time
    profiling step.  Every preset GPU generation is profiled here, the
    same way the first scheduling round on a mixed fleet would ask for
    it, so a benchmark on such a fleet (``hybrid_scale``) does not bill
    profiling to its first run in a process.
    """
    from repro.cluster.fleet import GPU_PROFILES
    from repro.profiling import build_default_predictor

    predictor = build_default_predictor()
    for name in sorted(GPU_PROFILES):
        predictor.predict("mnist", 1, 1, 100, gpu_profile=GPU_PROFILES[name])


def run_suite(
    quick: bool = False,
    names: Optional[Sequence[str]] = None,
) -> List[BenchResult]:
    """Run the selected benchmarks and return their results.

    Args:
        quick: use the CI smoke sizes (seconds, not minutes).
        names: subset of :data:`BENCHMARKS` keys; all when omitted.
    """
    selected = list(names) if names else list(BENCHMARKS)
    unknown = [name for name in selected if name not in BENCHMARKS]
    if unknown:
        known = ", ".join(sorted(BENCHMARKS))
        raise KeyError(f"unknown benchmark(s) {unknown}; known: {known}")
    _warm_shared_caches()
    results = []
    for name in selected:
        fn = BENCHMARKS[name]
        results.append(
            measure(name, lambda fn=fn: fn(quick), meta={"quick": quick})
        )
    return results
