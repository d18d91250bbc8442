"""Tests for the telemetry subsystem: tracing, timelines, exporters."""

import gc
import json
import re

import numpy as np
import pytest

from repro import Experiment
from repro.baselines import OpenFaaSPlus
from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.simulation import ServingSimulation
from repro.telemetry import (
    DROP_REASONS,
    NULL_TRACER,
    InMemoryTracer,
    TimelineRecorder,
    TraceEvent,
    Tracer,
    attach_tracer,
    batch_spans,
    chrome_trace,
    jsonl_lines,
    read_jsonl,
    request_spans,
    summarize_events,
    summary_rows,
    write_chrome_trace,
    write_jsonl,
    write_timeline_csv,
)
from repro.telemetry import spans as ev
from repro.telemetry.timeline import TIMELINE_COLUMNS
from repro.workloads import Trace, constant_trace


def run_sim(predictor, executor, platform=None, tracer=None, timeline=None,
            rps=50.0, duration=30.0, seed=7, model="mnist", slo_s=0.1):
    platform = platform or INFlessEngine(
        build_testbed_cluster(), predictor=predictor
    )
    fn = FunctionSpec.for_model(model, slo_s=slo_s)
    platform.deploy(fn)
    sim = ServingSimulation(
        platform=platform,
        executor=executor,
        workload={fn.name: constant_trace(rps, duration)},
        tracer=tracer,
        timeline=timeline,
        seed=seed,
    )
    return sim.run(), sim


class TestNullTracer:
    def test_emit_returns_zero_and_records_nothing(self):
        tracer = Tracer()
        assert not tracer.enabled
        tracer.emit(ev.REQUEST_ARRIVAL, 0.0, request=1, function="f")
        assert tracer.emit(
            ev.BATCH_START, 0.0, instance=1, function="f", requests=[1],
            batch_size=1, exec_s=0.1, config=[4, 2, 20],
        ) == 0
        assert vars(tracer) == {}  # no state to record into

    def test_default_runtime_uses_null_tracer(self, predictor, executor):
        _report, sim = run_sim(predictor, executor)
        assert sim.tracer is NULL_TRACER

    def test_attach_tracer_reaches_components(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        tracer = InMemoryTracer()
        attach_tracer(engine, tracer)
        assert engine.tracer is tracer
        assert engine.autoscaler.tracer is tracer
        assert engine.policy.tracer is tracer
        attach_tracer(engine, None)
        assert engine.autoscaler.tracer is NULL_TRACER


class TestEventSchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'no_such_kind'"):
            InMemoryTracer().emit("no_such_kind", 0.0, request=1)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match=r"'request_drop'.*\['reason'\]"):
            InMemoryTracer().emit(
                ev.REQUEST_DROP, 0.0, request=1, function="f"
            )

    def test_extra_field_rejected(self):
        with pytest.raises(ValueError, match=r"'request_arrival'.*\['bogus'\]"):
            InMemoryTracer().emit(
                ev.REQUEST_ARRIVAL, 0.0, request=1, function="f", bogus=2
            )

    def test_rejected_event_is_not_recorded(self):
        tracer = InMemoryTracer()
        with pytest.raises(ValueError):
            tracer.emit(ev.SCALE_DOWN, 0.0, function="f")
        assert tracer.events == []

    def test_ids_interned_and_batch_minted(self):
        tracer = InMemoryTracer()
        tracer.emit(ev.REQUEST_ARRIVAL, 0.0, request=907, function="f")
        batch = tracer.emit(
            ev.BATCH_START, 1.0, instance=55, function="f",
            requests=[907, 908], batch_size=2, exec_s=0.1, config=[2, 1, 10],
        )
        assert batch == 1
        assert tracer.as_dicts()[1] == {
            "ts": 1.0, "kind": ev.BATCH_START, "batch": 1, "instance": 0,
            "function": "f", "requests": [0, 1], "batch_size": 2,
            "exec_s": 0.1, "config": [2, 1, 10],
        }


_ARRIVAL = (ev.REQUEST_ARRIVAL, 0.5, {"request": 907, "function": "f"})
_BATCH_START = (ev.BATCH_START, 1.0, {
    "instance": 55, "function": "f", "requests": [907, 908],
    "batch_size": 2, "exec_s": 0.1, "config": [2, 1, 10],
})


class _EventListTracer(Tracer):
    """A custom recording tracer: overrides ``emit`` and keeps ``events``."""

    enabled = True

    def __init__(self):
        self.events = []

    def emit(self, kind, ts, **fields):
        self.events.append(TraceEvent(ts, kind, fields))
        return 0


class TestRecorder:
    @pytest.mark.parametrize("make", [Tracer, InMemoryTracer, _EventListTracer])
    @pytest.mark.parametrize("kind, names", [
        ("no_such_kind", ("request", "function")),
        (ev.REQUEST_DROP, ("request", "function")),
        (ev.REQUEST_ARRIVAL, ("request", "function", "bogus")),
        (ev.REQUEST_ARRIVAL, ("function", "request")),
    ], ids=["unknown", "missing", "extra", "reordered"])
    def test_mismatched_names_rejected(self, make, kind, names):
        with pytest.raises(ValueError, match=re.escape(repr(kind))):
            make().recorder(kind, *names)

    def test_null_recorder_is_one_shared_no_op(self):
        record = NULL_TRACER.recorder(ev.REQUEST_ARRIVAL, "request", "function")
        assert record is Tracer().recorder(
            ev.REQUEST_DROP, "request", "function", "reason"
        )
        assert record(0.0, 1, "f") == 0
        assert vars(NULL_TRACER) == {}

    @pytest.mark.parametrize("make", [InMemoryTracer, _EventListTracer])
    def test_recorder_row_equals_emit_row(self, make):
        emitted, recorded = make(), make()
        for kind, ts, fields in (_ARRIVAL, _BATCH_START):
            record = recorded.recorder(kind, *fields)
            assert record(ts, *fields.values()) == emitted.emit(
                kind, ts, **fields
            )
        assert [e.to_dict() for e in recorded.events] == [
            e.to_dict() for e in emitted.events
        ]

    @pytest.mark.parametrize("make", [InMemoryTracer, _EventListTracer])
    @pytest.mark.parametrize("values", [(907,), (907, "f", 3)], ids=["few", "many"])
    def test_wrong_value_count_rejected(self, make, values):
        tracer = make()
        record = tracer.recorder(ev.REQUEST_ARRIVAL, "request", "function")
        with pytest.raises(ValueError, match=re.escape(repr(ev.REQUEST_ARRIVAL))):
            record(0.0, *values)
        assert tracer.events == []

    def test_count_and_column_after_a_read(self):
        tracer = InMemoryTracer()
        record = tracer.recorder(ev.REQUEST_ARRIVAL, "request", "function")
        record(0.0, 907, "f")
        assert len(tracer.events) == 1
        record(1.0, 908, "g")
        assert tracer.count(ev.REQUEST_ARRIVAL) == 2
        assert tracer.column(ev.REQUEST_ARRIVAL, "function") == ["f", "g"]
        assert tracer.column(ev.REQUEST_ARRIVAL, "request") == [0, 1]

    def test_reading_events_restores_the_collector(self):
        tracer = InMemoryTracer()
        tracer.emit(*_ARRIVAL[:2], **_ARRIVAL[2])
        assert len(tracer.events) == 1 and gc.isenabled()
        gc.disable()
        try:
            tracer.emit(*_ARRIVAL[:2], **_ARRIVAL[2])
            assert len(tracer.events) == 2 and not gc.isenabled()
        finally:
            gc.enable()

    def test_count_and_column_read_the_log(self):
        tracer = InMemoryTracer()
        for kind, ts, fields in (_ARRIVAL, _BATCH_START, _ARRIVAL):
            tracer.emit(kind, ts, **fields)
        assert tracer.count(ev.REQUEST_ARRIVAL) == 2
        assert tracer.count(ev.REQUEST_DROP) == 0
        assert tracer.column(ev.REQUEST_ARRIVAL, "function") == ["f", "f"]
        # Interned ids and minted batch ids read through the events.
        assert tracer.column(ev.REQUEST_ARRIVAL, "request") == [0, 0]
        assert tracer.column(ev.BATCH_START, "requests") == [[0, 1]]
        assert tracer.column(ev.BATCH_START, "batch") == [1]

    def test_base_readers_scan_events(self):
        tracer = _EventListTracer()
        record = tracer.recorder(ev.REQUEST_ARRIVAL, "request", "function")
        record(0.0, 5, "f")
        record(1.0, 6, "g")
        assert tracer.count(ev.REQUEST_ARRIVAL) == 2
        assert tracer.column(ev.REQUEST_ARRIVAL, "request") == [5, 6]
        assert NULL_TRACER.count(ev.REQUEST_ARRIVAL) == 0
        assert NULL_TRACER.column(ev.REQUEST_ARRIVAL, "request") == []

    def test_custom_tracer_passes_the_strict_checker(self, predictor, executor):
        tracer = _EventListTracer()
        report, sim = run_sim(predictor, executor, tracer=tracer)
        assert sim.invariants.mode == "strict"
        assert report.invariant_violations == []
        assert tracer.count(ev.REQUEST_COMPLETE) > 0


class TestTraceRecording:
    @pytest.fixture()
    def traced(self, predictor, executor):
        tracer = InMemoryTracer()
        timeline = TimelineRecorder()
        report, sim = run_sim(
            predictor, executor, tracer=tracer, timeline=timeline
        )
        return report, tracer, timeline

    def test_request_lifecycle_recorded(self, traced):
        report, tracer, _ = traced
        kinds = {event.kind for event in tracer.events}
        assert {"request_arrival", "request_enqueued", "batch_start",
                "request_complete", "control_tick", "dispatch_plan",
                "scale_up", "cold_start"} <= kinds
        completes = [
            e for e in tracer.events if e.kind == "request_complete"
        ]
        arrivals = [e for e in tracer.events if e.kind == "request_arrival"]
        # The trace is unfiltered; the report excludes warmup arrivals.
        assert len(completes) >= report.completed
        assert len(arrivals) >= report.arrived

    def test_span_invariant_decomposition(self, traced):
        """Every completion's spans sum to l = t_cold + t_batch + t_exec."""
        _report, tracer, _ = traced
        completes = [
            e.to_dict() for e in tracer.events if e.kind == "request_complete"
        ]
        assert completes
        for event in completes:
            total = (
                event["cold_wait_s"] + event["batch_wait_s"] + event["exec_s"]
            )
            assert total == pytest.approx(event["latency_s"], abs=1e-9)

    def test_request_spans_tile_contiguously(self, traced):
        _report, tracer, _ = traced
        spans = request_spans(tracer.as_dicts())
        by_request = {}
        for span in spans:
            by_request.setdefault(span.track, []).append(span)
        for parts in by_request.values():
            for left, right in zip(parts, parts[1:]):
                assert right.start == pytest.approx(left.end, abs=1e-9)

    def test_batch_spans_cover_batches(self, traced):
        _report, tracer, _ = traced
        starts = [e for e in tracer.events if e.kind == "batch_start"]
        assert len(batch_spans(tracer.as_dicts())) == len(starts)

    def test_interned_ids_are_dense(self, traced):
        _report, tracer, _ = traced
        requests = {
            e.args["request"]
            for e in tracer.events
            if e.kind == "request_arrival"
        }
        assert requests == set(range(len(requests)))

    def test_drop_reasons_match_report(self, predictor, executor):
        tracer = InMemoryTracer()
        # Overload a single function so the waiting-batch bound drops.
        report, sim = run_sim(
            predictor, executor, tracer=tracer, rps=400.0, duration=20.0
        )
        trace_drops = [
            e.args["reason"]
            for e in tracer.events
            if e.kind == "request_drop"
        ]
        assert len(trace_drops) == sim.metrics.dropped
        assert set(sim.metrics.drop_reasons) <= set(DROP_REASONS)
        for reason in trace_drops:
            assert reason in DROP_REASONS

    def test_baseline_platform_emits_comparable_trace(
        self, predictor, executor
    ):
        tracer = InMemoryTracer()
        platform = OpenFaaSPlus(build_testbed_cluster(), predictor)
        _report, _sim = run_sim(
            predictor, executor, platform=platform, tracer=tracer
        )
        kinds = {event.kind for event in tracer.events}
        assert {"request_complete", "scale_up", "cold_start"} <= kinds

    def test_baseline_scaling_events_carry_integer_counts(
        self, predictor, executor
    ):
        tracer = InMemoryTracer()
        platform = OpenFaaSPlus(build_testbed_cluster(), predictor)
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        platform.deploy(fn)
        # A load step down so the fleet both grows and shrinks.
        rps = np.concatenate([np.full(20, 300.0), np.full(20, 20.0)])
        ServingSimulation(
            platform=platform,
            executor=executor,
            workload={fn.name: Trace(name="step", step_s=1.0, rps=rps)},
            tracer=tracer,
            seed=7,
        ).run()
        scaling = [
            e for e in tracer.events if e.kind in (ev.SCALE_UP, ev.SCALE_DOWN)
        ]
        assert {e.kind for e in scaling} == {ev.SCALE_UP, ev.SCALE_DOWN}
        counts = [
            value for e in scaling for key, value in e.args.items()
            if key in ("launched", "reclaimed", "released")
        ]
        assert all(type(value) is int for value in counts)


class TestDeterminism:
    def test_identical_seeds_yield_identical_jsonl(self, predictor, executor):
        def trace():
            tracer = InMemoryTracer()
            run_sim(predictor, executor, tracer=tracer, seed=11)
            return jsonl_lines(tracer.events)

        assert trace() == trace()

    def test_reading_events_mid_run_keeps_interned_ids(
        self, predictor, executor
    ):
        class ReadsEachTick(InMemoryTracer):
            def __init__(self):
                super().__init__()
                self.read = []

            def emit(self, kind, ts, **fields):
                if kind == ev.CONTROL_TICK:
                    # Interns every row logged so far.
                    self.read.append(len(self.events))
                return super().emit(kind, ts, **fields)

        def trace(tracer):
            run_sim(predictor, executor, tracer=tracer, seed=11)
            return jsonl_lines(tracer.events)

        read_mid_run = ReadsEachTick()
        lines = trace(read_mid_run)
        assert 0 < read_mid_run.read[-1] < len(lines)
        assert lines == trace(InMemoryTracer())

    def test_jsonl_roundtrip(self, predictor, executor, tmp_path):
        tracer = InMemoryTracer()
        run_sim(predictor, executor, tracer=tracer)
        path = str(tmp_path / "run.jsonl")
        count = write_jsonl(tracer.events, path)
        events = read_jsonl(path)
        assert count == len(events) == len(tracer.events)
        assert events == tracer.as_dicts()


class TestTimeline:
    def test_rows_per_tick_and_function(self, predictor, executor):
        timeline = TimelineRecorder()
        _report, _sim = run_sim(
            predictor, executor, timeline=timeline, duration=30.0
        )
        assert len(timeline) == 31  # one per control tick, ticks at 0..30
        assert timeline.series("fn-mnist", "t") == [float(t) for t in range(31)]
        live = timeline.series("fn-mnist", "live_instances")
        assert max(live) >= 1

    def test_dispatch_case_column(self, predictor, executor):
        """INFless rows carry Algorithm 2's case; baselines leave it empty."""
        cases = {}
        for label, platform in (
            ("infless", None),
            ("openfaas+", OpenFaaSPlus(build_testbed_cluster(), predictor)),
        ):
            timeline = TimelineRecorder()
            run_sim(predictor, executor, platform=platform, timeline=timeline)
            cases[label] = {row["dispatch_case"] for row in timeline.rows}
        assert cases["infless"]
        assert cases["infless"] <= {"i", "ii", "ii-under", "iii"}
        assert cases["openfaas+"] == {""}

    def test_unknown_column_rejected(self):
        with pytest.raises(ValueError):
            TimelineRecorder().sample(t=0.0, bogus=1)

    def test_csv_export(self, predictor, executor, tmp_path):
        timeline = TimelineRecorder()
        run_sim(predictor, executor, timeline=timeline)
        path = str(tmp_path / "timeline.csv")
        rows = write_timeline_csv(timeline, path)
        lines = open(path).read().splitlines()
        assert lines[0] == ",".join(TIMELINE_COLUMNS)
        assert len(lines) == rows + 1


class TestChromeExport:
    def test_trace_event_schema(self, predictor, executor, tmp_path):
        """The export must be valid trace_event JSON (Perfetto-loadable)."""
        tracer = InMemoryTracer()
        timeline = TimelineRecorder()
        run_sim(predictor, executor, tracer=tracer, timeline=timeline)
        path = str(tmp_path / "chrome.json")
        write_chrome_trace(tracer.events, path, timeline=timeline)
        payload = json.load(open(path))
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"]
        phases = set()
        for event in payload["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            phases.add(event["ph"])
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0
            if event["ph"] != "M":
                assert "ts" in event or event["ph"] == "M"
        assert {"M", "X", "i"} <= phases

    def test_counter_events_from_timeline(self, predictor, executor):
        tracer = InMemoryTracer()
        timeline = TimelineRecorder()
        run_sim(predictor, executor, tracer=tracer, timeline=timeline)
        payload = chrome_trace(tracer.events, timeline=timeline)
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counters
        assert any("queue_depth" in e["name"] for e in counters)


class TestSummary:
    def test_summarize_matches_trace(self, predictor, executor):
        tracer = InMemoryTracer()
        run_sim(predictor, executor, tracer=tracer)
        summaries = summarize_events(tracer.as_dicts())
        assert "fn-mnist" in summaries
        summary = summaries["fn-mnist"]
        completes = [
            e for e in tracer.events if e.kind == "request_complete"
        ]
        assert summary.completed == len(completes)
        decomposition = summary.decomposition()
        assert decomposition["exec_s"] > 0
        assert summary.mean("latency_s") == pytest.approx(
            decomposition["cold_wait_s"]
            + decomposition["batch_wait_s"]
            + decomposition["exec_s"],
            rel=1e-9,
        )
        rows = summary_rows(summaries)
        assert rows[0][0] == "fn-mnist"

    def test_empty_events(self):
        assert summarize_events([]) == {}

    def test_llm_violations_match_report(self):
        """LLM completions are judged on TTFT and TPOT, as in the report.

        Whole-generation latency far exceeds the TTFT SLO here, so a
        trace judging it against that SLO would count violations the
        report does not.
        """
        function = FunctionSpec.for_model("llm-125m", slo_s=0.2)
        experiment = Experiment(
            platform="llm",
            functions=[function],
            workload={function.name: constant_trace(15.0, 10.0)},
            platform_options={"tpot_slo_s": 0.06},
            telemetry=True,
            warmup_s=0.0,
            seed=1,
        )
        report = experiment.run()
        assert report.completed > 0
        assert report.slo_violations == 0
        summaries = summarize_events(experiment.tracer.events)
        assert sum(s.completed for s in summaries.values()) == report.completed
        assert sum(s.violations for s in summaries.values()) == 0
