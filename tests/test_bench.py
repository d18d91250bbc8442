"""The ``repro.bench`` harness: measurement, store semantics, perf floor."""

from __future__ import annotations

import json
import statistics
import time
from heapq import heappop, heappush

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    append_entry,
    load_store,
    make_entry,
    measure,
    peak_rss_mb,
    run_suite,
    save_store,
)
from repro.bench.suites import BENCHMARKS, MACRO_BENCHMARKS, MICRO_BENCHMARKS

#: events per calibration loop the event-queue micro-benchmark must
#: reach: its rate times the wall time of :func:`calibration_s` in the
#: same process, which divides out how fast (or how loaded) the host
#: is.  The indexed-heap event loop does ~6,000 (Python 3.11, x86-64);
#: the floor leaves 3x of headroom and still catches a regression to
#: rich-comparison heap entries, which ran about 4x slower.
EVENT_QUEUE_FLOOR_EV_PER_CAL = 2_000.0

#: calibration loop length (~12 ms on an idle 2.0 GHz x86-64 core).
CALIBRATION_ITERATIONS = 20_000

#: iterations (prefill + decode) per calibration loop the continuous-
#: batching decode micro-benchmark must reach, gated like the event
#: queue's.  With one event per iteration it did ~2,000 (Python 3.11,
#: x86-64; ~1,750 with one KV charge per sequence); the floor is a
#: third of that, so it catches a collapse of the per-iteration hot
#: path.  It counts iterations, not events, because one event covers
#: a run of decode iterations.
LLM_DECODE_FLOOR_ITER_PER_CAL = 650.0


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def test_measure_wraps_callable():
    result = measure("toy", lambda: 1234, meta={"quick": True})
    assert result.name == "toy"
    assert result.events == 1234
    assert result.wall_s > 0
    assert result.events_per_s == pytest.approx(1234 / result.wall_s)
    assert result.meta == {"quick": True}
    round_tripped = json.loads(json.dumps(result.to_dict()))
    assert round_tripped["events"] == 1234
    assert "toy" in result.format_row()


def test_measure_zero_events_has_zero_rate():
    result = measure("empty", lambda: 0)
    assert result.events_per_s == 0.0


def test_peak_rss_is_positive_on_posix():
    assert peak_rss_mb() > 0


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def test_load_store_missing_file_is_empty_schema(tmp_path):
    store = load_store(tmp_path / "nope.json")
    assert store == {"schema": SCHEMA_VERSION, "entries": []}


def test_load_store_rejects_unknown_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 999, "entries": []}))
    with pytest.raises(ValueError, match="schema"):
        load_store(path)


def test_store_roundtrip(tmp_path):
    path = tmp_path / "BENCH.json"
    store = load_store(path)
    entry = make_entry(
        [measure("toy", lambda: 10)], label="first", commit="abc", quick=True
    )
    append_entry(store, entry)
    save_store(store, path)
    reloaded = load_store(path)
    assert len(reloaded["entries"]) == 1
    saved = reloaded["entries"][0]
    assert saved["commit"] == "abc"
    assert saved["quick"] is True
    assert saved["results"]["toy"]["events"] == 10


def test_append_entry_replaces_same_commit_same_mode():
    store = {"schema": SCHEMA_VERSION, "entries": []}
    first = make_entry([measure("toy", lambda: 1)], commit="abc", quick=True)
    second = make_entry([measure("toy", lambda: 2)], commit="abc", quick=True)
    append_entry(store, first)
    append_entry(store, second)
    assert len(store["entries"]) == 1
    assert store["entries"][0]["results"]["toy"]["events"] == 2


def test_append_entry_keeps_other_modes_and_commits():
    store = {"schema": SCHEMA_VERSION, "entries": []}
    append_entry(store, make_entry([], commit="abc", quick=True))
    append_entry(store, make_entry([], commit="abc", quick=False))
    append_entry(store, make_entry([], commit="def", quick=True))
    assert len(store["entries"]) == 3


def test_append_entry_never_replaces_baselines():
    store = {"schema": SCHEMA_VERSION, "entries": []}
    baseline = make_entry(
        [], label="pre-optimization baseline", commit="abc", quick=True
    )
    append_entry(store, baseline)
    append_entry(store, make_entry([], label="rerun", commit="abc", quick=True))
    labels = [entry["label"] for entry in store["entries"]]
    assert labels == ["pre-optimization baseline", "rerun"]


def test_checked_in_store_is_valid_and_has_optimization_entries():
    """The repo-root BENCH_sim_core.json parses and shows the 2x win."""
    store = load_store()
    entries = store["entries"]
    assert entries, "BENCH_sim_core.json must hold at least one entry"
    baselines = [e for e in entries if "baseline" in e["label"]]
    optimized = [e for e in entries if "baseline" not in e["label"]]
    assert baselines and optimized
    before = next(
        e for e in baselines if not e["quick"]
    )["results"]["fig18_largescale"]["wall_s"]
    after = next(
        e for e in optimized if not e["quick"]
    )["results"]["fig18_largescale"]["wall_s"]
    assert after * 2.0 <= before, (
        f"fig18_largescale speedup below 2x: {before:.3f}s -> {after:.3f}s"
    )


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------
def test_suite_catalog_is_partitioned():
    assert set(BENCHMARKS) == set(MICRO_BENCHMARKS) | set(MACRO_BENCHMARKS)
    assert not set(MICRO_BENCHMARKS) & set(MACRO_BENCHMARKS)


def test_run_suite_rejects_unknown_names():
    with pytest.raises(KeyError, match="nosuchbench"):
        run_suite(quick=True, names=["nosuchbench"])


def test_run_suite_quick_batch_queue():
    (result,) = run_suite(quick=True, names=["batch_queue"])
    assert result.name == "batch_queue"
    assert result.events > 0
    assert result.meta == {"quick": True}


# ----------------------------------------------------------------------
# perf-regression guard (tier 1)
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Wall time of a fixed heap-and-dict loop: the machine's pace now.

    The loop does the event loop's kind of work (heap pushes and pops,
    dict updates), so on a shared or slow host its time moves with the
    benchmark's and the ratio of the two stays put.
    """
    started = time.perf_counter()
    heap, counts = [], {}
    for i in range(CALIBRATION_ITERATIONS):
        heappush(heap, ((i * 7919) % 1000 * 1e-3, i))
        if len(heap) > 64:
            key = heappop(heap)[1] & 255
            counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - started


def test_event_queue_throughput_floor():
    """The indexed-heap event loop must stay above a calibrated floor.

    This is the tier-1 regression guard for the hot-path optimization
    work: it fails if event-queue throughput collapses (e.g. the heap
    entries regress to rich-comparison objects).  The rate is gated in
    events per calibration loop, timed around the benchmark in this
    process, so the gate holds on slow and loaded machines alike.
    """
    paces = [calibration_s() for _ in range(3)]
    (result,) = run_suite(quick=True, names=["event_queue"])
    paces += [calibration_s() for _ in range(3)]
    per_cal = result.events_per_s * statistics.median(paces)
    assert per_cal >= EVENT_QUEUE_FLOOR_EV_PER_CAL, (
        f"event_queue throughput {per_cal:,.0f} events per calibration"
        f" loop fell below the {EVENT_QUEUE_FLOOR_EV_PER_CAL:,.0f}"
        " regression floor"
    )


def test_llm_decode_throughput_floor():
    """The continuous-batching decode loop must stay above its floor.

    Guards the ``repro.llm`` iteration-level scheduler: the benchmark
    replays a steady decode-dominated workload, so a collapse here
    means per-token bookkeeping (KV ledger updates, step planning)
    regressed to something pathological.  Gated in iterations per
    calibration loop (the benchmark's count), timed like
    :func:`test_event_queue_throughput_floor`.
    """
    paces = [calibration_s() for _ in range(3)]
    (result,) = run_suite(quick=True, names=["llm_decode"])
    paces += [calibration_s() for _ in range(3)]
    assert result.events > 0
    per_cal = result.events_per_s * statistics.median(paces)
    assert per_cal >= LLM_DECODE_FLOOR_ITER_PER_CAL, (
        f"llm_decode throughput {per_cal:,.0f} iterations per calibration"
        f" loop fell below the {LLM_DECODE_FLOOR_ITER_PER_CAL:,.0f}"
        " regression floor"
    )
