"""Tests for the event loop, metrics and the serving runtime."""

import hashlib
import json
import pickle
import random
import re
from collections import Counter

import numpy as np
import pytest

import repro.simulation.runtime as runtime
from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.faults import (
    ColdStartStraggler,
    FaultPlan,
    IngressSpike,
    InstanceKill,
    ResiliencePolicy,
)
from repro.simulation import (
    EventBudgetExceeded,
    EventKind,
    EventLoop,
    MetricsCollector,
    ServingSimulation,
)
from repro.simulation.metrics import RequestRecord
from repro.workloads import build_osvt, constant_trace
from repro.workloads.generators import bursty_trace


class TestEventLoop:
    def test_events_processed_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.on(EventKind.ARRIVAL, lambda e: seen.append(e.payload))
        loop.schedule(2.0, EventKind.ARRIVAL, "b")
        loop.schedule(1.0, EventKind.ARRIVAL, "a")
        loop.schedule(3.0, EventKind.ARRIVAL, "c")
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop()
        seen = []
        loop.on(EventKind.ARRIVAL, lambda e: seen.append(e.payload))
        loop.schedule(1.0, EventKind.ARRIVAL, "first")
        loop.schedule(1.0, EventKind.ARRIVAL, "second")
        loop.run()
        assert seen == ["first", "second"]

    def test_past_events_clamp_to_now(self):
        loop = EventLoop()
        times = []
        def handler(event):
            times.append(loop.now)
            if len(times) == 1:
                loop.schedule(loop.now - 5.0, EventKind.ARRIVAL)
        loop.on(EventKind.ARRIVAL, handler)
        loop.schedule(10.0, EventKind.ARRIVAL)
        loop.run()
        assert times == [10.0, 10.0]

    def test_run_until_horizon(self):
        loop = EventLoop()
        seen = []
        loop.on(EventKind.ARRIVAL, lambda e: seen.append(loop.now))
        for t in (1.0, 2.0, 3.0):
            loop.schedule(t, EventKind.ARRIVAL)
        loop.run(until=2.0)
        assert seen == [1.0, 2.0]

    def test_missing_handler_raises(self):
        loop = EventLoop()
        loop.schedule(0.0, EventKind.ARRIVAL)
        with pytest.raises(RuntimeError):
            loop.run()

    def test_event_budget_enforced(self):
        loop = EventLoop()
        loop.on(EventKind.ARRIVAL, lambda e: loop.schedule(loop.now + 1, EventKind.ARRIVAL))
        loop.schedule(0.0, EventKind.ARRIVAL)
        with pytest.raises(RuntimeError):
            loop.run(max_events=100)

    def test_event_budget_exception_carries_progress(self):
        loop = EventLoop()
        loop.on(EventKind.ARRIVAL, lambda e: loop.schedule(loop.now + 1, EventKind.ARRIVAL))
        loop.schedule(0.0, EventKind.ARRIVAL)
        with pytest.raises(EventBudgetExceeded) as excinfo:
            loop.run(max_events=100)
        # Callers can salvage partial metrics from the typed exception.
        assert excinfo.value.processed == 100
        assert excinfo.value.budget == 100
        assert excinfo.value.now == pytest.approx(99.0)
        assert loop.now == excinfo.value.now

    # -- the arrival lane (schedule_many) ------------------------------
    @staticmethod
    def _recording_loop():
        loop = EventLoop()
        seen = []
        for kind in (EventKind.ARRIVAL, EventKind.BATCH_TIMEOUT):
            loop.on(kind, lambda e: seen.append((e.time, e.seq, e.payload)))
        return loop, seen

    def test_lane_and_heap_ties_run_in_seq_order(self):
        loop, seen = self._recording_loop()
        loop.schedule(1.0, EventKind.BATCH_TIMEOUT, "heap")
        loop.schedule_many([1.0], EventKind.ARRIVAL, ["lane"])
        loop.run()
        assert [p for _t, _s, p in seen] == ["heap", "lane"]

        loop, seen = self._recording_loop()
        loop.schedule_many([1.0], EventKind.ARRIVAL, ["lane"])
        loop.schedule(1.0, EventKind.BATCH_TIMEOUT, "heap")
        loop.run()
        assert [p for _t, _s, p in seen] == ["lane", "heap"]

    def test_lane_reserves_one_seq_per_event(self):
        loop, seen = self._recording_loop()
        loop.schedule_many([3.0, 1.0, 2.0], EventKind.ARRIVAL, "abc")
        assert loop.schedule(0.5, EventKind.BATCH_TIMEOUT, "d").seq == 3
        loop.run()
        assert seen == [
            (0.5, 3, "d"), (1.0, 1, "b"), (2.0, 2, "c"), (3.0, 0, "a"),
        ]

    def test_lane_sorts_stably_and_clamps_to_now(self):
        loop, seen = self._recording_loop()
        loop.schedule(5.0, EventKind.BATCH_TIMEOUT, "tick")
        loop.run()
        loop.schedule_many(
            [7.0, 2.0, 6.0, 2.0, 6.0], EventKind.ARRIVAL, "abcde"
        )
        loop.run()
        assert [(t, p) for t, _s, p in seen] == [
            (5.0, "tick"), (5.0, "b"), (5.0, "d"), (6.0, "c"), (6.0, "e"),
            (7.0, "a"),
        ]

    def test_second_block_merges_into_undrained_tail(self):
        loop, seen = self._recording_loop()

        def refill(event):
            seen.append((event.time, event.seq, event.payload))
            loop.schedule_many(
                [3.0, 2.0, 5.0, 4.0], EventKind.ARRIVAL,
                ["new3", "new2", "new5", "new4"],
            )

        loop.on(EventKind.ARRIVAL_REFILL, refill)
        loop.schedule_many(
            [1.0, 3.0, 5.0, 6.0], EventKind.ARRIVAL,
            ["old1", "old3", "old5", "old6"],
        )
        loop.schedule(1.5, EventKind.ARRIVAL_REFILL, "refill")
        loop.run()
        assert [p for _t, _s, p in seen] == [
            "old1", "refill", "new2", "old3", "new3", "new4", "old5",
            "new5", "old6",
        ]

    def test_lane_matches_one_heap(self):
        """Any mix of lane blocks and heap events pops as one heap would."""

        def replay(use_lane, seed):
            rng = random.Random(seed)
            loop = EventLoop()
            seen = []

            def book_block():
                times = [
                    round(loop.now + rng.uniform(0, 4), 1)
                    for _ in range(rng.randrange(1, 8))
                ]
                payloads = [f"a{rng.random():.6f}" for _ in times]
                if use_lane:
                    loop.schedule_many(times, EventKind.ARRIVAL, payloads)
                else:
                    for time, payload in zip(times, payloads):
                        loop.schedule(time, EventKind.ARRIVAL, payload)

            def handler(event):
                seen.append((event.time, event.seq, event.kind, event.payload))
                roll = rng.random()
                if roll < 0.3:
                    loop.schedule(
                        round(loop.now + rng.uniform(0, 2), 1),
                        EventKind.BATCH_TIMEOUT, f"h{len(seen)}",
                    )
                elif roll < 0.4 and len(seen) < 200:
                    book_block()

            loop.on(EventKind.ARRIVAL, handler)
            loop.on(EventKind.BATCH_TIMEOUT, handler)
            book_block()
            loop.schedule(0.5, EventKind.BATCH_TIMEOUT, "h0")
            book_block()
            loop.run()
            return seen

        for seed in range(25):
            assert replay(True, seed) == replay(False, seed), seed

    def test_run_until_stops_inside_the_lane(self):
        loop, seen = self._recording_loop()
        loop.schedule_many([1.0, 2.0, 3.0], EventKind.ARRIVAL, "abc")
        loop.run(until=2.0)
        assert [p for _t, _s, p in seen] == ["a", "b"]
        loop.run()
        assert [p for _t, _s, p in seen] == ["a", "b", "c"]
        assert loop.now == 3.0

    def test_event_budget_counts_lane_events(self):
        loop, _seen = self._recording_loop()
        loop.schedule_many(
            [float(t) for t in range(10)], EventKind.ARRIVAL, list(range(10))
        )
        loop.schedule(2.5, EventKind.BATCH_TIMEOUT, "heap")
        with pytest.raises(EventBudgetExceeded) as excinfo:
            loop.run(max_events=5)
        assert excinfo.value.processed == 5
        assert excinfo.value.now == 3.0

    def test_lane_holds_one_kind(self):
        loop = EventLoop()
        loop.schedule_many([1.0], EventKind.ARRIVAL, ["a"])
        with pytest.raises(ValueError, match="lane"):
            loop.schedule_many([2.0], EventKind.RETRY, ["b"])


class TestEventKind:
    def test_every_kind_dispatches_through_on(self):
        loop = EventLoop()
        seen = []
        for kind in EventKind:
            loop.on(kind, lambda e, kind=kind: seen.append((kind, e.kind)))
        for index, kind in enumerate(EventKind):
            loop.schedule(float(index), kind)
        loop.run()
        assert seen == [(kind, kind) for kind in EventKind]

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_unregistered_kind_raises(self, kind):
        loop = EventLoop()
        for other in EventKind:
            if other is not kind:
                loop.on(other, lambda e: None)
        loop.schedule(0.0, kind)
        with pytest.raises(RuntimeError, match=re.escape(str(kind))):
            loop.run()

    @pytest.mark.parametrize("kind", list(EventKind))
    def test_pickled_member_is_the_same_key(self, kind):
        restored = pickle.loads(pickle.dumps(kind))
        assert restored is kind
        table = {member: member.value for member in EventKind}
        assert table[restored] == kind.value
        assert restored in {kind} and hash(restored) == hash(kind)


def record(arrival, completion, slo=0.2, fn="f", batch=4):
    return RequestRecord(
        function=fn,
        arrival=arrival,
        completion=completion,
        cold_wait_s=0.0,
        queue_wait_s=0.0,
        exec_s=completion - arrival,
        batch_size=batch,
        config=(batch, 2, 20),
        slo_s=slo,
    )


class TestMetricsCollector:
    def test_violation_counting(self):
        collector = MetricsCollector()
        collector.record_completion(record(0.0, 0.1))      # meets 200 ms
        collector.record_completion(record(0.0, 0.3))      # violates
        report = collector.finalize(duration_s=1.0)
        assert report.slo_violations == 1
        assert report.violation_rate == pytest.approx(0.5)

    def test_batch_histogram(self):
        collector = MetricsCollector()
        collector.record_completion(record(0.0, 0.1, batch=4))
        collector.record_completion(record(0.0, 0.1, batch=8))
        collector.record_completion(record(0.0, 0.1, batch=8))
        report = collector.finalize(duration_s=1.0)
        assert report.batch_histogram == {4: 1, 8: 2}

    def test_warmup_filters_early_records(self):
        collector = MetricsCollector()
        collector.record_arrival(1.0)
        collector.record_arrival(50.0)
        collector.record_completion(record(1.0, 1.1))
        collector.record_completion(record(50.0, 50.4))
        report = collector.finalize(duration_s=100.0, warmup_s=30.0)
        assert report.arrived == 1
        assert report.completed == 1
        assert report.slo_violations == 1

    def test_usage_integration_sample_and_hold(self):
        collector = MetricsCollector()
        collector.record_usage(0.0, weighted=10.0, cpu=2, gpu=10, fragment_ratio=0.5)
        collector.record_usage(10.0, weighted=20.0, cpu=4, gpu=20, fragment_ratio=0.5)
        collector.record_usage(20.0, weighted=0.0, cpu=0, gpu=0, fragment_ratio=0.0)
        report = collector.finalize(duration_s=20.0)
        assert report.resource_time_weighted == pytest.approx(10 * 10 + 20 * 10)

    def test_drop_rate(self):
        collector = MetricsCollector()
        for _ in range(8):
            collector.record_arrival(1.0)
        collector.record_drop(1.0)
        collector.record_drop(2.0)
        report = collector.finalize(duration_s=10.0)
        assert report.drop_rate == pytest.approx(0.25)

    def test_drop_reasons_aggregate(self):
        collector = MetricsCollector()
        collector.record_drop(1.0, "queue_full")
        collector.record_drop(2.0, "queue_full")
        collector.record_drop(3.0, "no_capacity")
        report = collector.finalize(duration_s=10.0)
        assert report.drop_reasons == {"queue_full": 2, "no_capacity": 1}
        assert sum(report.drop_reasons.values()) == report.dropped

    def test_drop_reasons_respect_warmup(self):
        collector = MetricsCollector()
        collector.record_drop(1.0, "queue_full")
        collector.record_drop(50.0, "no_capacity")
        report = collector.finalize(duration_s=100.0, warmup_s=30.0)
        assert report.drop_reasons == {"no_capacity": 1}
        assert report.dropped == 1

    def test_empty_report_is_safe(self):
        report = MetricsCollector().finalize(duration_s=10.0)
        assert report.completed == 0
        assert report.violation_rate == 0.0
        assert report.normalized_throughput == 0.0

    def test_fragment_samples_respect_warmup(self):
        """Regression: fragment samples were never filtered by warmup_s
        (unlike usage/cpu/gpu samples), skewing Fig. 12/14 metrics."""
        collector = MetricsCollector()
        collector.record_usage(0.0, weighted=1.0, cpu=1, gpu=0,
                               fragment_ratio=1.0)
        collector.record_usage(50.0, weighted=1.0, cpu=1, gpu=0,
                               fragment_ratio=0.0)
        collector.record_usage(80.0, weighted=1.0, cpu=1, gpu=0,
                               fragment_ratio=0.0)
        report = collector.finalize(duration_s=100.0, warmup_s=30.0)
        assert report.mean_fragment_ratio == pytest.approx(0.0)

    def test_scaling_counters_respect_warmup(self):
        """Regression: cold_starts/launches/warm_reuses included warmup
        activity even when every other statistic excluded it."""
        collector = MetricsCollector()
        collector.record_scaling_state(
            0.0, cold_starts=3, launches=4, warm_reuses=1
        )
        collector.record_scaling_state(
            40.0, cold_starts=5, launches=7, warm_reuses=2
        )
        report = collector.finalize(
            duration_s=100.0, warmup_s=30.0,
            cold_starts=5, launches=7, warm_reuses=2,
        )
        assert report.cold_starts == 2
        assert report.launches == 3
        assert report.warm_reuses == 1

    def test_scaling_counters_unfiltered_without_warmup(self):
        collector = MetricsCollector()
        collector.record_scaling_state(
            0.0, cold_starts=3, launches=4, warm_reuses=1
        )
        report = collector.finalize(
            duration_s=100.0, cold_starts=3, launches=4, warm_reuses=1
        )
        assert report.cold_starts == 3
        assert report.launches == 4
        assert report.warm_reuses == 1


def build_sim(rps=200.0, duration=60.0, predictor=None, executor=None, **kwargs):
    engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
    fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    engine.deploy(fn)
    workload = {fn.name: constant_trace(rps, duration)}
    return ServingSimulation(engine, executor, workload, seed=7, **kwargs), fn


class TestServingSimulation:
    def test_requests_conserved(self, predictor, executor):
        sim, _fn = build_sim(predictor=predictor, executor=executor)
        report = sim.run()
        assert report.completed + report.dropped == report.arrived

    def test_steady_state_meets_slo(self, predictor, executor):
        sim, _fn = build_sim(predictor=predictor, executor=executor,
                             warmup_s=20.0)
        report = sim.run()
        assert report.violation_rate < 0.05
        assert report.drop_rate < 0.02

    def test_latency_breakdown_consistent(self, predictor, executor):
        sim, _fn = build_sim(predictor=predictor, executor=executor)
        report = sim.run()
        breakdown = (
            report.mean_cold_wait_s + report.mean_queue_wait_s + report.mean_exec_s
        )
        assert breakdown == pytest.approx(report.latency_mean_s, rel=1e-6)

    def test_batching_actually_used(self, predictor, executor):
        sim, _fn = build_sim(predictor=predictor, executor=executor)
        report = sim.run()
        assert max(report.batch_histogram) > 1

    def test_cold_start_counters_exclude_warmup(self, predictor, executor):
        """End to end: the initial cold-start transient (every fresh
        platform launches its first instances during warmup) must not
        appear in the report's scaling counters."""
        sim, _fn = build_sim(
            predictor=predictor, executor=executor, warmup_s=30.0
        )
        report = sim.run()
        stats = sim.platform.autoscaler.stats
        assert stats.cold_starts > 0
        assert report.cold_starts < stats.cold_starts
        assert report.launches < stats.launches

    def test_deterministic_given_seed(self, predictor, executor):
        first, _ = build_sim(predictor=predictor, executor=executor)
        second, _ = build_sim(predictor=predictor, executor=executor)
        a = first.run()
        b = second.run()
        assert a.completed == b.completed
        assert a.latency_mean_s == pytest.approx(b.latency_mean_s)

    def test_oracle_rate_mode(self, predictor, executor):
        sim, _fn = build_sim(predictor=predictor, executor=executor,
                             rate_mode="oracle")
        report = sim.run()
        assert report.completed > 0

    def test_invalid_rate_mode_rejected(self, predictor, executor):
        with pytest.raises(ValueError):
            build_sim(predictor=predictor, executor=executor, rate_mode="psychic")

    def test_usage_sampled(self, predictor, executor):
        sim, _fn = build_sim(predictor=predictor, executor=executor)
        report = sim.run()
        assert report.mean_weighted_usage > 0
        assert report.resource_time_weighted > 0

    def test_each_batch_wake_is_booked_once(self, predictor, executor):
        """A stale wake must not re-book the deadline already queued."""
        sim, _fn = build_sim(
            duration=20.0, predictor=predictor, executor=executor
        )
        booked = Counter()
        schedule = sim.loop.schedule

        def recording_schedule(time, kind, payload=None):
            if kind is EventKind.BATCH_TIMEOUT:
                booked[payload.instance_id, time] += 1
            return schedule(time, kind, payload)

        sim.loop.schedule = recording_schedule
        assert sim.run().completed > 0
        assert booked
        assert max(booked.values()) == 1


class _WakeAudited(ServingSimulation):
    """Checks the batch-wake booking after every enqueue.

    A ready, idle instance holding a partial batch whose deadline has
    not passed must have exactly that deadline booked as its wake;
    otherwise the batch could wait past its deadline, or an arrival
    could book a second wake for it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.instances_seen = {}
        self.audits = 0

    def _enqueue(self, instance, request):
        super()._enqueue(instance, request)
        self.instances_seen[instance.instance_id] = instance
        now = self.loop.now
        for seen in self.instances_seen.values():
            queue = seen.queue
            if (
                now < seen.ready_at
                or seen.busy
                or queue.is_empty
                or queue.should_flush(now)
            ):
                continue
            assert self._wake_scheduled.get(seen.instance_id) == (
                queue.deadline()
            ), f"instance#{seen.instance_id} at t={now}"
            self.audits += 1


class TestWakeBooking:
    def test_osvt_replay(self, predictor, executor):
        app = build_osvt()
        trace = bursty_trace(
            300.0, 30.0, period_s=30.0, burst_rate_per_hour=30.0,
            burst_duration_s=30.0, seed=22,
        )
        engine = INFlessEngine(
            build_testbed_cluster(num_servers=8), predictor=predictor
        )
        for function in app.functions:
            engine.deploy(function)
        simulation = _WakeAudited(
            platform=engine,
            executor=executor,
            workload={
                name: trace.with_mean(rps)
                for name, rps in app.rps_split(trace.mean_rps).items()
            },
            warmup_s=5.0,
            seed=5,
        )
        assert simulation.run().completed > 0
        assert simulation.audits > 1000

    def test_straggler_and_instance_kill(self, predictor, executor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        engine.deploy(fn)
        plan = FaultPlan(events=(
            InstanceKill(at_s=30.0, function=fn.name),
            ColdStartStraggler(at_s=30.0, duration_s=20.0, factor=3.0),
        ))
        simulation = _WakeAudited(
            engine, executor, {fn.name: constant_trace(400.0, 60.0)},
            faults=plan, resilience=ResiliencePolicy(), seed=16,
        )
        report = simulation.run()
        assert report.resilience["fault_counts"]["instance_kill"] == 1
        assert simulation.audits > 1000


class TestReportSerialisation:
    def test_to_dict_json_roundtrip(self):
        import json

        collector = MetricsCollector()
        collector.record_arrival(0.0)
        collector.record_completion(record(0.0, 0.1, batch=4))
        report = collector.finalize(duration_s=1.0)
        payload = report.to_dict()
        text = json.dumps(payload)  # must be JSON-serialisable
        restored = json.loads(text)
        assert restored["completed"] == 1
        assert restored["batch_histogram"] == {"4": 1}
        assert "b4c2g20" in restored["config_histogram"]
        assert restored["violation_rate"] == 0.0


class TestArrivalOrder:
    """Orderings the arrival lane must keep from the all-heap loop."""

    @pytest.mark.parametrize("spiked, digest", [
        (False,
         "5affc704b9280debcbb77ac91696bdb82c4c0f31ae6b0583c9ad778abfe56e63"),
        # The spike delays arrivals past the next window's refill, so
        # each refill merges into an undrained tail.
        (True,
         "3ec5ee9ae4ad58943264c2752c9eb3042acad5dd62da07f4f492afd962013bd3"),
    ])
    def test_windowed_osvt_report_is_pinned(
        self, spiked, digest, predictor, executor
    ):
        app = build_osvt()
        trace = bursty_trace(
            300.0, 30.0, period_s=30.0, burst_rate_per_hour=30.0,
            burst_duration_s=30.0, seed=22,
        )
        engine = INFlessEngine(
            build_testbed_cluster(num_servers=8), predictor=predictor
        )
        for function in app.functions:
            engine.deploy(function)
        faults = FaultPlan(events=(
            IngressSpike(at_s=5.0, duration_s=4.0, extra_delay_s=2.5),
        )) if spiked else None
        simulation = ServingSimulation(
            platform=engine,
            executor=executor,
            workload={
                name: trace.with_mean(rps)
                for name, rps in app.rps_split(trace.mean_rps).items()
            },
            warmup_s=5.0,
            arrival_mode="windowed",
            arrival_window_s=7.0,
            faults=faults,
            seed=5,
        )
        report = simulation.run().to_dict()
        encoded = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == digest

    def test_spiked_arrivals_run_in_due_order_ties_in_schedule_order(
        self, monkeypatch, predictor, executor
    ):
        # Binary-exact times: the spike moves a's 0.5 onto its own 0.75
        # and b's 0.5 onto the same instant, and b's 0.25 ties a's.
        issued = iter([
            np.array([0.25, 0.5, 0.75, 1.25]), np.array([0.25, 0.5, 1.0]),
        ])
        monkeypatch.setattr(
            runtime, "sample_arrivals", lambda trace, rng: next(issued)
        )
        seen = []

        class Recording(ServingSimulation):
            def _on_arrival(self, event):
                request = event.payload
                seen.append((self.loop.now, request.function, request.arrival))
                super()._on_arrival(event)

        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        for name in ("a", "b"):
            engine.deploy(FunctionSpec.for_model("mnist", slo_s=0.2, name=name))
        Recording(
            engine, executor,
            {name: constant_trace(1.0, 2.0) for name in ("a", "b")},
            faults=FaultPlan(events=(
                IngressSpike(at_s=0.5, duration_s=0.25, extra_delay_s=0.25),
            )),
        ).run()
        assert seen == [
            (0.25, "a", 0.25), (0.25, "b", 0.25),
            (0.75, "a", 0.5), (0.75, "a", 0.75), (0.75, "b", 0.5),
            (1.0, "b", 1.0), (1.25, "a", 1.25),
        ]
