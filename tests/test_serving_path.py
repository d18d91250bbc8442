"""Exactness pins for the serving runtime's per-request path.

Each pin compares the runtime with a test-local reference that does
the work one request or one batch at a time, so the pins hold however
the runtime buffers draws or stores request identity:

* every batch's ``exec_s`` is the next scalar ``execution_time`` draw
  from ``Generator(seed)`` after arrival sampling, and a noise-free
  executor consumes no draws at all;
* a retried request keeps its user-visible ``origin``, and a workflow
  token keeps the ``root`` and ``origin`` of the request it descends
  from.
"""

import copy
import dataclasses

import pytest

from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.faults import (
    FaultPlan,
    InstanceKill,
    ResilienceLedger,
    ResiliencePolicy,
    ServerCrash,
)
from repro.ops.costmodel import DEFAULT_HARDWARE
from repro.profiling import GroundTruthExecutor
from repro.simulation import EventKind, EventLoop, Request, ServingSimulation
from repro.telemetry import InMemoryTracer, NULL_TRACER
from repro.telemetry import spans as ev
from repro.workloads import build_osvt, constant_trace


class _RecordingExecutor(GroundTruthExecutor):
    """Records every ``execution_time`` call and what it returned."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.calls = []

    def execution_time(
        self, model, batch, cpu, gpu, rng=None, gpu_profile=None
    ):
        exec_s = super().execution_time(
            model, batch, cpu, gpu, rng=rng, gpu_profile=gpu_profile
        )
        self.calls.append((model, batch, cpu, gpu, gpu_profile, exec_s))
        return exec_s


class _Snapshot(ServingSimulation):
    """Keeps a copy of the main stream as arrival sampling left it."""

    def _schedule_arrivals(self) -> None:
        super()._schedule_arrivals()
        self.after_arrivals = copy.deepcopy(self._rng)


def _noise_run(predictor, executor, **kwargs):
    engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
    fn = FunctionSpec.for_model("mnist", slo_s=0.1)
    engine.deploy(fn)
    tracer = InMemoryTracer()
    sim = _Snapshot(
        engine, executor, {fn.name: constant_trace(300.0, 90.0)},
        tracer=tracer, seed=3, **kwargs,
    )
    sim.run()
    starts = [e.args["exec_s"] for e in tracer.events if e.kind == ev.BATCH_START]
    return sim, starts


class TestExecutionNoise:
    """``exec_s`` per batch equals the scalar draw sequence."""

    @pytest.mark.parametrize("arrival_mode", ["eager", "windowed"])
    def test_batch_exec_times_are_scalar_draws(self, predictor, arrival_mode):
        executor = _RecordingExecutor()
        sim, starts = _noise_run(
            predictor, executor, arrival_mode=arrival_mode,
            arrival_window_s=7.0,
        )
        # One executor call per batch, and enough batches that a
        # 1,024-draw block refills.
        assert len(executor.calls) == len(starts) > 1024
        reference = sim.after_arrivals
        fresh = GroundTruthExecutor()
        expected = [
            fresh.execution_time(
                model, batch, cpu, gpu, rng=reference, gpu_profile=profile
            )
            for model, batch, cpu, gpu, profile, _exec_s in executor.calls
        ]
        assert [call[-1] for call in executor.calls] == expected
        assert starts == expected

    def test_zero_sigma_consumes_no_draws(self, predictor):
        executor = _RecordingExecutor(
            hardware=dataclasses.replace(DEFAULT_HARDWARE, noise_sigma=0.0)
        )
        sim, starts = _noise_run(predictor, executor)
        assert len(starts) > 1024
        assert (
            sim._rng.bit_generator.state
            == sim.after_arrivals.bit_generator.state
        )
        assert starts == [
            executor.mean_execution_time(model, batch, cpu, gpu, profile)
            for model, batch, cpu, gpu, profile, _exec_s in executor.calls
        ]


class TestRequestIdentity:
    """Retries rewrite ``arrival`` only; tokens inherit their root."""

    def test_retry_keeps_origin(self):
        dispatched = []
        ledger = ResilienceLedger(
            ResiliencePolicy(), None, NULL_TRACER, dispatched.append,
            None, None,
        )
        request = Request("f", 1.25, 0.2)
        for attempt, due in enumerate((2.5, 4.0), start=1):
            ledger.retry_pending += 1
            loop = EventLoop()
            ledger.on_retry(loop.schedule(due, EventKind.RETRY, request))
            assert request.arrival == due
            assert request.origin == 1.25
            assert dispatched == [request] * attempt
        assert ledger.retry_pending == 0

    def test_retried_requests_complete_against_their_origin(
        self, predictor, executor
    ):
        engine = INFlessEngine(
            build_testbed_cluster(num_servers=4), predictor=predictor
        )
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        engine.deploy(fn)
        tracer = InMemoryTracer()
        ServingSimulation(
            engine, executor, {fn.name: constant_trace(300.0, 30.0)},
            tracer=tracer, resilience=True, seed=4,
            faults=FaultPlan(events=(
                ServerCrash(at_s=12.0, server_id=0),
                InstanceKill(at_s=20.0, function=fn.name),
            )),
        ).run()
        issued = {
            e.args["request"]: e.ts
            for e in tracer.events if e.kind == ev.REQUEST_ARRIVAL
        }
        retried = {
            e.args["request"] for e in tracer.events
            if e.kind == ev.REQUEST_RETRY
        }
        completed = [
            e for e in tracer.events
            if e.kind == ev.REQUEST_COMPLETE and e.args["request"] in retried
        ]
        assert completed
        for event in completed:
            assert event.args["arrival"] == issued[event.args["request"]]

    def test_workflow_tokens_keep_root_and_origin(self, predictor, executor):
        app = build_osvt(slo_s=0.4)
        engine = INFlessEngine(
            build_testbed_cluster(num_servers=4), predictor=predictor
        )
        for function in app.functions:
            engine.deploy(function)
        tracer = InMemoryTracer()
        ServingSimulation(
            engine, executor, {"osvt-ssd": constant_trace(100.0, 30.0)},
            workflow=app.as_workflow(), tracer=tracer, resilience=True,
            seed=5,
            faults=FaultPlan(events=(
                InstanceKill(at_s=15.0, function="osvt-ssd"),
            )),
        ).run()
        issued = {
            e.args["request"]: e.ts
            for e in tracer.events if e.kind == ev.REQUEST_ARRIVAL
        }
        stages = [e for e in tracer.events if e.kind == ev.WORKFLOW_STAGE]
        finished = [
            e for e in tracer.events if e.kind == ev.WORKFLOW_COMPLETE
        ]
        assert stages and finished
        for event in stages:
            assert event.args["workflow_id"] in issued
        for event in finished:
            root = event.args["workflow_id"]
            assert event.args["origin"] == issued[root]
