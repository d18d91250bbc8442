"""The columnar completion ledger against per-request records.

``MetricsCollector.record_batch`` stores a batch once, in flat columns;
``record_completion`` stores one :class:`RequestRecord`.  Both must give
the same report, the same ``records`` view and the same audit totals,
in exact and in sketch mode.  A sketch-mode ledger folds into running
totals whenever it fills; where it folds must not move the report.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import metrics
from repro.simulation.metrics import (
    LLMRequestRecord,
    MetricsCollector,
    RequestRecord,
)
from repro.simulation.runtime import Request

WARMUP_S = 10.0
FUNCTIONS = ("f0", "f1", "f2")
CONFIGS = ((1, 2, 10), (4, 2, 20), (8, 4, 40))
REASONS = ("queue_full", "no_capacity", "server_failure")

_time = st.floats(0.0, 2.0, allow_nan=False)

#: one batch member: (origin, stage offset, SLO); the origin range
#: straddles the warmup boundary.
_member = st.tuples(
    st.floats(0.0, 2 * WARMUP_S, allow_nan=False),
    _time,
    st.sampled_from((0.05, 0.2, 1.0)),
)

#: one executed batch: members that complete, members a workflow sink
#: skips (rows < batch_size), drops recorded before it (time, reason)
#: and its timing.
_batch = st.fixed_dictionaries({
    "function": st.sampled_from(FUNCTIONS),
    "config": st.sampled_from(CONFIGS),
    "members": st.lists(_member, max_size=6),
    "skipped": st.integers(0, 3),
    "drops": st.lists(
        st.tuples(
            st.floats(0.0, 2 * WARMUP_S, allow_nan=False),
            st.sampled_from(REASONS),
        ),
        max_size=3,
    ),
    "wait": _time,
    "ready_lead": st.floats(-1.0, 3.0, allow_nan=False),
    "exec_s": st.floats(0.001, 0.5, allow_nan=False),
})


def _requests(batch):
    return [
        Request(
            batch["function"], origin + offset, slo,
            origin=origin,
        )
        for origin, offset, slo in batch["members"]
    ]


def _timing(requests, batch):
    start = max((r.arrival for r in requests), default=0.0) + batch["wait"]
    return start, start + batch["exec_s"], start - batch["ready_lead"]


def _reference_records(requests, batch):
    """One record per completed member, as the runtime built them."""
    start, completion, ready_at = _timing(requests, batch)
    records = []
    for request in requests:
        total_wait = start - request.arrival
        cold_wait = min(max(0.0, ready_at - request.arrival), total_wait)
        records.append(RequestRecord(
            function=batch["function"],
            arrival=request.origin,
            completion=completion,
            cold_wait_s=cold_wait,
            queue_wait_s=max(0.0, total_wait - cold_wait),
            exec_s=batch["exec_s"],
            batch_size=len(requests) + batch["skipped"],
            config=batch["config"],
            slo_s=request.slo_s,
        ))
    return records


def _record(by_batch, by_record, batch):
    """Record one batch's arrivals, drops and completions on both
    collectors; return its reference records."""
    requests = _requests(batch)
    start, completion, ready_at = _timing(requests, batch)
    for collector in (by_batch, by_record):
        for request in requests:
            collector.record_arrival(request.origin)
        for now, reason in batch["drops"]:
            collector.record_arrival(now)
            collector.record_drop(now, reason)
    by_batch.record_batch(
        batch["function"], requests, start, completion, ready_at,
        batch["exec_s"], batch["config"],
        len(requests) + batch["skipped"],
    )
    records = _reference_records(requests, batch)
    for record in records:
        by_record.record_completion(record)
    return records


def _collectors(batches, mode):
    """(record_batch collector, record_completion collector, records)."""
    by_batch = MetricsCollector(metrics_mode=mode, warmup_s=WARMUP_S)
    by_record = MetricsCollector(metrics_mode=mode, warmup_s=WARMUP_S)
    records = []
    for batch in batches:
        records += _record(by_batch, by_record, batch)
    return by_batch, by_record, records


def _expected_statistics(records):
    """The exact report's latency fields, from a per-record scan."""
    kept = [r for r in records if r.arrival >= WARMUP_S]
    if not kept:
        return dict.fromkeys(_STATISTICS, 0.0)
    latencies = np.array([r.latency_s for r in kept])
    return {
        "latency_mean_s": float(latencies.mean()),
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_p99_s": float(np.percentile(latencies, 99)),
        "mean_cold_wait_s": float(np.mean([r.cold_wait_s for r in kept])),
        "mean_queue_wait_s": float(np.mean([r.queue_wait_s for r in kept])),
        "mean_exec_s": float(np.mean([r.exec_s for r in kept])),
        "slo_violations": sum(r.violated_slo for r in kept),
    }


_STATISTICS = (
    "latency_mean_s", "latency_p50_s", "latency_p99_s", "mean_cold_wait_s",
    "mean_queue_wait_s", "mean_exec_s", "slo_violations",
)


@pytest.mark.parametrize("mode", ["exact", "sketch"])
@given(batches=st.lists(_batch, max_size=25))
@settings(max_examples=80, deadline=None)
def test_record_batch_equals_per_request_records(mode, batches):
    by_batch, by_record, _records = _collectors(batches, mode)
    assert by_batch.completed_count == by_record.completed_count
    assert by_batch.latency_total_s == by_record.latency_total_s
    assert by_batch.records == by_record.records
    report = by_batch.finalize(duration_s=30.0, warmup_s=WARMUP_S)
    expected = by_record.finalize(duration_s=30.0, warmup_s=WARMUP_S)
    # Serialised, so histogram and tally key order counts too.
    assert json.dumps(report.to_dict()) == json.dumps(expected.to_dict())


@given(batches=st.lists(_batch, max_size=25))
@settings(max_examples=80, deadline=None)
def test_exact_reduction_matches_a_per_record_scan(batches):
    """Bit-equal statistics; tallies in the streaming fold's order."""
    exact, _by_record, records = _collectors(batches, "exact")
    sketch, _by_record, _records = _collectors(batches, "sketch")
    report = exact.finalize(duration_s=30.0, warmup_s=WARMUP_S)
    streamed = sketch.finalize(duration_s=30.0, warmup_s=WARMUP_S)
    assert exact.records == records
    assert exact.latency_total_s == sum(r.latency_s for r in records)
    expected = _expected_statistics(records)
    assert {k: getattr(report, k) for k in _STATISTICS} == expected
    for field in (
        "completed", "batch_histogram", "config_histogram",
        "per_function_violation",
    ):
        value, reference = getattr(report, field), getattr(streamed, field)
        assert value == reference, field
        if isinstance(value, dict):
            assert list(value) == list(reference), field


#: report fields a fold may move by float rounding: chunked sums.
_MEANS = (
    "latency_mean_s", "mean_cold_wait_s", "mean_queue_wait_s", "mean_exec_s",
)


def _ledger_counts(collector):
    return (
        collector.arrived, collector.dropped, collector.completed_count,
        list(collector.drop_reasons.items()),
    )


@given(batches=st.lists(_batch, max_size=25))
@settings(max_examples=60, deadline=None)
def test_fold_boundaries_do_not_move_sketch_reports(batches):
    """Folding every row, every 7 rows or never (at the default size)
    gives the same counts mid-run and the same report at the end."""
    half = len(batches) // 2
    runs = []
    for fold_rows in (metrics._FOLD_ROWS, 1, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_FOLD_ROWS", fold_rows)
            collectors = _collectors(batches[:half], "sketch")[:2]
            mid_run = [_ledger_counts(c) for c in collectors]
            for batch in batches[half:]:
                _record(*collectors, batch)
            end = [_ledger_counts(c) for c in collectors]
        reports = [
            c.finalize(duration_s=30.0, warmup_s=WARMUP_S).to_dict()
            for c in collectors
        ]
        runs.append((mid_run, end, reports))
    (mid_run, end, reports), others = runs[0], runs[1:]
    assert mid_run[0] == mid_run[1] and end[0] == end[1]
    for other_mid_run, other_end, other_reports in others:
        assert other_mid_run == mid_run
        assert other_end == end
        for report, other in zip(reports, other_reports):
            report, other = dict(report), dict(other)
            for field in _MEANS:
                assert other.pop(field) == pytest.approx(
                    report.pop(field), rel=1e-12
                ), field
            # Serialised, so histogram and tally key order counts too.
            assert json.dumps(other) == json.dumps(report)


def test_empty_ledger_reports_zeros():
    report = MetricsCollector().finalize(duration_s=10.0)
    assert report.completed == 0
    assert report.latency_p99_s == 0.0
    assert report.batch_histogram == {}
    assert report.per_function_violation == {}


def test_records_view_keeps_record_values():
    record = RequestRecord(
        function="f0", arrival=1.0, completion=1.3, cold_wait_s=0.1,
        queue_wait_s=0.05, exec_s=0.15, batch_size=4, config=(4, 2, 20),
        slo_s=0.2,
    )
    collector = MetricsCollector()
    collector.record_completion(record)
    assert collector.records == [record]


def test_record_verdicts_survive_the_ledger(monkeypatch):
    """LLM records are judged on TTFT and TPOT, not end-to-end latency.

    A sketch-mode ledger folding every row judges each chunk by its own
    overrides: a stale one would flag the last, on-time record.
    """

    def llm_record(ttft_s, tpot_s, completion):
        return LLMRequestRecord(
            function="llm", arrival=0.0, completion=completion,
            cold_wait_s=0.0, queue_wait_s=0.0, exec_s=completion,
            batch_size=1, config=(1, 4, 100), slo_s=0.5, ttft_s=ttft_s,
            tpot_s=tpot_s, tpot_slo_s=0.05, output_tokens=10,
        )

    monkeypatch.setattr(metrics, "_FOLD_ROWS", 1)
    for mode in ("exact", "sketch"):
        collector = MetricsCollector(metrics_mode=mode)
        # Long stream, every token on time: latency > slo, no violation.
        collector.record_completion(llm_record(0.1, 0.04, 5.0))
        # Short stream with slow tokens: latency < slo, a violation.
        collector.record_completion(llm_record(0.1, 0.06, 0.4))
        # Short stream, every token on time: no override, no violation.
        collector.record_completion(llm_record(0.1, 0.04, 0.4))
        report = collector.finalize(duration_s=10.0)
        assert report.slo_violations == 1, mode
        assert report.per_function_violation == {"llm": 1 / 3}, mode
