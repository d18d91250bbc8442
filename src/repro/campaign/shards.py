"""Sharded simulation of multi-function production traces.

The Azure trace holds thousands of independent functions; simulating
them in one event loop means one process, one giant heap and one
O(requests) metrics list.  This module shards the *functions* across
the campaign's process pool instead: every function runs as its own
seeded micro-simulation (sketch-mode metrics, windowed arrivals), and
the per-function results merge into one cluster-level report.

Determinism is the point of the design:

* each function's seed derives from the campaign root seed and the
  function *name* (``SeedSequence(root, spawn_key=(crc32(name),))`` --
  the same scheme :func:`repro.campaign.spec.derive_run_seed_sequence`
  uses for cells), never from its shard or worker index;
* shards are only a process-grouping of the sorted function list --
  membership does not influence any run;
* the merge folds per-function results in globally sorted function
  name order, summing integers exactly and floats via ``math.fsum``,
  and latency sketches merge by integer bin addition.

Together that makes the merged report **byte-identical for any worker
or shard count**, which is what lets a resumed or re-planned campaign
trust previously stored shard results.
"""

from __future__ import annotations

import math
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.simulation.sketches import QuantileSketch
from repro.workloads.trace import Trace

#: shard payload / merged report schema version.
SHARD_SCHEMA = 1

#: report fields summed exactly (integers) across functions.
_INT_SUM_FIELDS = (
    "arrived",
    "completed",
    "dropped",
    "slo_violations",
    "cold_starts",
    "launches",
    "warm_reuses",
)

#: report fields accumulated with ``math.fsum`` across functions.
_FLOAT_SUM_FIELDS = (
    "resource_time_weighted",
    "cpu_core_seconds",
    "gpu_seconds",
    "reserved_idle_resource_s",
)


@dataclass(frozen=True)
class TraceShardConfig:
    """How each per-function micro-simulation is built.

    Every field is plain data so the config crosses process boundaries
    untouched.  ``model``/``slo_s`` assign a zoo model to every trace
    function (production traces carry invocation counts, not model
    identities).
    """

    platform: str = "infless"
    servers: int = 2
    model: str = "resnet-50"
    slo_s: float = 0.2
    warmup_s: float = 0.0
    root_seed: int = 42
    arrival_mode: str = "windowed"
    arrival_window_s: float = 60.0
    invariants: str = "off"
    control_interval_s: float = 1.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of this shard configuration."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "TraceShardConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        return cls(**payload)


def function_seed(root_seed: int, name: str) -> int:
    """The deterministic per-function seed (shard/worker independent)."""
    sequence = np.random.SeedSequence(
        root_seed, spawn_key=(zlib.crc32(name.encode("utf-8")),)
    )
    return int(sequence.generate_state(1, np.uint64)[0] % (2**63))


def plan_shards(names: Iterable[str], num_shards: int) -> List[List[str]]:
    """Contiguous chunks of the sorted function list, one per shard.

    Purely a process-grouping: shard membership never feeds a seed or
    a merge order, so any ``num_shards`` yields the same merged report.
    """
    ordered = sorted(names)
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    num_shards = min(num_shards, max(1, len(ordered)))
    size = math.ceil(len(ordered) / num_shards) if ordered else 0
    return [
        ordered[start : start + size]
        for start in range(0, len(ordered), size)
    ] if ordered else []


def _run_function(
    name: str, trace: Trace, config: TraceShardConfig
) -> Dict[str, object]:
    """One function's micro-simulation -> its storable payload."""
    from repro.api import Experiment
    from repro.core.function import FunctionSpec

    seed = function_seed(config.root_seed, name)
    function = FunctionSpec.for_model(
        config.model, slo_s=config.slo_s, name=name
    )
    report = Experiment(
        platform=config.platform,
        servers=config.servers,
        functions=[function],
        workload={name: trace},
        warmup_s=config.warmup_s,
        invariants=config.invariants,
        metrics_mode="sketch",
        arrival_mode=config.arrival_mode,
        arrival_window_s=config.arrival_window_s,
        control_interval_s=config.control_interval_s,
        seed=seed,
    ).run()
    return {
        "schema": SHARD_SCHEMA,
        "function": name,
        "seed": seed,
        "report": report.to_dict(),
    }


def execute_trace_shard(shard: Dict[str, object]) -> List[Dict[str, object]]:
    """Worker entry point: run one shard's functions, in order.

    ``shard`` is plain data: ``{"functions": [[name, trace_dict], ...],
    "config": TraceShardConfig dict}``.
    """
    config = TraceShardConfig.from_dict(shard["config"])
    return [
        _run_function(name, Trace.from_dict(trace_dict), config)
        for name, trace_dict in shard["functions"]
    ]


def merge_function_results(
    results: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Fold per-function payloads into one cluster-level report dict.

    Counts, histograms and resource integrals sum; latency statistics
    come from the merged sketch plus completion-weighted means; peaks
    take the max and level-means average across micro-simulations.
    The fold runs in sorted function-name order regardless of input
    order, so any sharding of the same function set merges to the same
    bytes.
    """
    ordered = sorted(results, key=lambda payload: payload["function"])
    if not ordered:
        raise ValueError("no shard results to merge")
    names = [payload["function"] for payload in ordered]
    if len(set(names)) != len(names):
        raise ValueError("duplicate function in shard results")
    reports = [payload["report"] for payload in ordered]
    merged: Dict[str, object] = {"schema": SHARD_SCHEMA}
    totals = {
        fname: sum(int(report[fname]) for report in reports)
        for fname in _INT_SUM_FIELDS
    }
    merged.update(totals)
    for fname in _FLOAT_SUM_FIELDS:
        merged[fname] = math.fsum(float(report[fname]) for report in reports)
    completed = totals["completed"]
    # Completion-weighted means (the per-function means are exact
    # streaming means, so this is the global mean, reconstructed).
    for fname in ("latency_mean_s", "mean_cold_wait_s",
                  "mean_queue_wait_s", "mean_exec_s"):
        weighted = math.fsum(
            float(report[fname]) * int(report["completed"])
            for report in reports
        )
        merged[fname] = weighted / completed if completed else 0.0
    sketch = QuantileSketch.merged(
        QuantileSketch.from_dict(report["latency_sketch"])
        for report in reports
    )
    merged["latency_p50_s"] = sketch.quantile(50.0)
    merged["latency_p95_s"] = sketch.quantile(95.0)
    merged["latency_p99_s"] = sketch.quantile(99.0)
    merged["latency_min_s"] = sketch.min
    merged["latency_max_s"] = sketch.max
    merged["latency_sketch"] = sketch.to_dict()
    merged["metrics_mode"] = "sketch"
    for hist_name in ("batch_histogram", "config_histogram",
                      "drop_reasons"):
        counts: Dict[str, int] = {}
        for report in reports:
            for key, value in report.get(hist_name, {}).items():
                counts[key] = counts.get(key, 0) + int(value)
        merged[hist_name] = {key: counts[key] for key in sorted(counts)}
    per_fn: Dict[str, float] = {}
    for report in reports:
        per_fn.update(report.get("per_function_violation", {}))
    merged["per_function_violation"] = {
        key: per_fn[key] for key in sorted(per_fn)
    }
    merged["duration_s"] = max(float(r["duration_s"]) for r in reports)
    # Micro-simulations run on disjoint micro-clusters: level means
    # average across them, peaks take the max.
    n = len(reports)
    merged["mean_weighted_usage"] = (
        math.fsum(float(r["mean_weighted_usage"]) for r in reports) / n
    )
    merged["peak_weighted_usage"] = max(
        float(r["peak_weighted_usage"]) for r in reports
    )
    merged["mean_fragment_ratio"] = (
        math.fsum(float(r["mean_fragment_ratio"]) for r in reports) / n
    )
    resource_time = merged["resource_time_weighted"]
    merged["normalized_throughput"] = (
        completed / resource_time if resource_time > 0 else 0.0
    )
    duration = merged["duration_s"]
    merged["achieved_rps"] = completed / duration if duration > 0 else 0.0
    merged["violation_rate"] = (
        totals["slo_violations"] / completed if completed else 0.0
    )
    merged["drop_rate"] = (
        totals["dropped"] / totals["arrived"] if totals["arrived"] else 0.0
    )
    merged["goodput_rps"] = (
        (completed - totals["slo_violations"]) / duration
        if duration > 0
        else 0.0
    )
    merged["functions"] = len(reports)
    return merged


def run_trace_shards(
    traces: Dict[str, Trace],
    config: Optional[TraceShardConfig] = None,
    num_shards: Optional[int] = None,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Simulate a multi-function trace sharded across the process pool.

    Args:
        traces: function name -> arrival trace (e.g. from
            :func:`repro.workloads.iter_azure_csv`).
        config: micro-simulation settings; defaults apply.
        num_shards: shard count; defaults to ``workers``.
        workers: 1 runs in-process (no pool), >1 fans shards out over
            a ``ProcessPoolExecutor``.
        progress: optional sink for one line per completed shard.

    Returns:
        ``{"report": merged report dict, "functions": ...,
        "num_shards": ..., "per_function": [...]}``; byte-identical
        for any ``workers``/``num_shards`` combination.
    """
    if not traces:
        raise ValueError("no traces to simulate")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    config = config or TraceShardConfig()
    shards = plan_shards(traces, num_shards or workers)
    payloads: List[Dict[str, object]] = [
        {
            "config": config.to_dict(),
            "functions": [
                [name, traces[name].to_dict()] for name in shard
            ],
        }
        for shard in shards
    ]
    results: List[Dict[str, object]] = []
    if workers == 1:
        for index, payload in enumerate(payloads):
            results.extend(execute_trace_shard(payload))
            if progress is not None:
                progress(f"shard {index + 1}/{len(payloads)} done\n")
    else:
        # Warm the predictor cache in the parent; forked workers
        # inherit it (same trick the campaign runner uses).
        from repro.profiling import build_default_predictor

        build_default_predictor()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, shard_results in enumerate(
                pool.map(execute_trace_shard, payloads)
            ):
                results.extend(shard_results)
                if progress is not None:
                    progress(f"shard {index + 1}/{len(payloads)} done\n")
    return {
        "schema": SHARD_SCHEMA,
        "functions": len(results),
        "num_shards": len(shards),
        "report": merge_function_results(results),
        "per_function": sorted(
            results, key=lambda payload: payload["function"]
        ),
    }
