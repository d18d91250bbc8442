#!/usr/bin/env python
"""Inference function chains: the paper's section 7 future work.

Runs the OSVT application as a *pipeline* -- every request flows
through object detection (SSD), then license recognition (MobileNet),
then vehicle classification (ResNet-50) -- with an end-to-end 400 ms
SLO.  The pipeline is a linear :class:`repro.workflows.WorkflowSpec`:
the platform splits the end-to-end budget across stages by predicted
execution time, each stage batches independently under INFless's rate
control, and the report shows how the latency budget splits across
stages.

Run:
    python examples/function_chain.py
"""

from collections import defaultdict

from repro import Experiment, build_osvt, constant_trace


def main() -> None:
    workflow = build_osvt(slo_s=0.400).as_workflow()  # three-stage budget
    print("OSVT as a chain:", " -> ".join(workflow.topological_order()))
    print(f"end-to-end SLO: {workflow.end_to_end_slo_s * 1e3:.0f} ms\n")

    experiment = Experiment(
        platform="infless",
        workflow=workflow,
        workload={workflow.entry: constant_trace(150.0, 180.0)},
        warmup_s=30.0,
        invariants="strict",
        seed=13,
    )
    report = experiment.run()

    print(f"requests completed : {report.completed}")
    print(f"end-to-end mean    : {report.latency_mean_s * 1e3:7.1f} ms")
    print(f"end-to-end p99     : {report.latency_p99_s * 1e3:7.1f} ms")
    print(f"SLO violations     : {report.violation_rate:7.2%}")
    print(f"drops              : {report.drop_rate:7.2%}")
    print(f"invariant findings : {len(report.invariant_violations)}\n")

    print("per-stage latency and provisioning:")
    for name, stats in report.workflows["per_stage"].items():
        configs = defaultdict(int)
        for instance in experiment.platform.instances(name):
            configs[str(instance.config)] += 1
        print(
            f"  {name:18s} mean {stats['mean_s'] * 1e3:6.1f} ms"
            f"  {dict(configs)}"
        )


if __name__ == "__main__":
    main()
