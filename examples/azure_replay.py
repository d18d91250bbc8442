#!/usr/bin/env python
"""Replay an Azure-Functions-format trace file on a mixed cluster.

Demonstrates the workload-ingestion path: write a synthetic fleet in
the public Azure dataset layout (per-minute invocation counts), load
it back, aggregate it, and serve the three busiest functions on a
heterogeneous cluster (GPU boxes + CPU-only nodes) with INFless.

Run:
    python examples/azure_replay.py
"""

import tempfile
from pathlib import Path

from repro import FunctionSpec, GroundTruthExecutor, INFlessEngine, ServingSimulation
from repro.cluster import FleetSpec, ServerGroup
from repro.profiling import build_default_predictor
from repro.workloads import (
    aggregate,
    bursty_trace,
    load_azure_csv,
    periodic_trace,
    write_azure_csv,
)

MODELS = ("mobilenet", "textcnn-69", "resnet-20")


def main() -> None:
    # 1. Produce a dataset-shaped file from the synthetic generators.
    fleet = {
        "app1/mobilenet": periodic_trace(8.0, 1800.0, step_s=60.0, period_s=1800.0, seed=61),
        "app1/textcnn-69": bursty_trace(12.0, 1800.0, step_s=60.0, period_s=1800.0, seed=62),
        "app2/resnet-20": periodic_trace(5.0, 1800.0, step_s=60.0, period_s=1800.0, seed=63),
        "app2/rarely-used": periodic_trace(0.05, 1800.0, step_s=60.0, seed=64),
    }
    path = Path(tempfile.mkdtemp()) / "azure_week.csv"
    write_azure_csv(path, fleet)
    print(f"wrote {path} ({path.stat().st_size} bytes)")

    # 2. Load it back the way an operator would load the real dataset.
    traces = load_azure_csv(path)
    total = aggregate(traces)
    print(f"loaded {len(traces)} functions,"
          f" aggregate mean load {total.mean_rps:.1f} RPS\n")

    # 3. Serve the busiest functions on a heterogeneous cluster.
    mixed = FleetSpec((
        ServerGroup(2),  # 16 cores + 2 GPUs each
        ServerGroup(4, cpu=32, gpus=0),  # CPU-only nodes
    ))
    cluster = mixed.build_cluster()
    print("cluster:", *mixed.groups, f"beta={cluster.beta:.2f}", sep="\n  ")
    engine = INFlessEngine(cluster, predictor=build_default_predictor())
    workload = {}
    for name, model in zip(
        ("app1/mobilenet", "app1/textcnn-69", "app2/resnet-20"), MODELS
    ):
        function = FunctionSpec.for_model(model, slo_s=0.2, name=name)
        engine.deploy(function)
        workload[name] = traces[name].scaled(20.0)  # scale up for the demo

    report = ServingSimulation(
        platform=engine,
        executor=GroundTruthExecutor(),
        workload=workload,
        warmup_s=120.0,
        seed=15,
    ).run()

    print(f"\ncompleted {report.completed} requests"
          f" | violations {report.violation_rate:.2%}"
          f" | drops {report.drop_rate:.2%}")
    print(f"throughput per resource unit: {report.normalized_throughput:.2f}")
    gpu_used = sum(
        s.used.gpu for s in cluster.servers if s.num_gpus > 0
    )
    cpu_only_used = sum(
        s.used.cpu for s in cluster.servers if s.num_gpus == 0
    )
    print(f"GPU share in use: {gpu_used}%  |  CPU-only cores in use: {cpu_only_used}")


if __name__ == "__main__":
    main()
