"""Fig. 13: batchsize and resource-configuration distributions.

Serving ResNet-50 across load levels, INFless flexibly mixes batch
sizes and many (b, c, g) configurations, while BATCH concentrates on a
few uniform choices (the paper observed 2 batchsizes and 3 configs).
"""

from collections import defaultdict

from _harness import emit, once

from repro.analysis.reporting import format_table
from repro.api import make_platform
from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec

#: load levels (RPS) the autoscaler sees over a day of varying traffic.
LOAD_LEVELS = (40.0, 150.0, 400.0, 1200.0, 4000.0, 12000.0)
SLO_S = 0.200


def _distributions(predictor):
    table = {}
    for label in ("infless", "batch"):
        batch_capacity = defaultdict(float)
        configs = defaultdict(int)
        for level in LOAD_LEVELS:
            platform = make_platform(label, build_testbed_cluster(), predictor)
            function = FunctionSpec.for_model("resnet-50", SLO_S)
            platform.deploy(function)
            platform.control(function.name, rps=level, now=0.0)
            for instance in platform.instances(function.name):
                batch_capacity[instance.config.batch] += min(
                    instance.r_up, instance.assigned_rate or instance.r_up
                )
                configs[
                    (instance.config.batch, instance.config.cpu,
                     instance.config.gpu)
                ] += 1
        table[label] = (dict(batch_capacity), dict(configs))
    return table


def test_fig13_flexible_configurations(benchmark, predictor):
    table = once(benchmark, lambda: _distributions(predictor))
    text = []
    for label, (batch_capacity, configs) in table.items():
        total = sum(batch_capacity.values())
        rows = [
            [batch, f"{capacity:,.0f}", f"{capacity / total:.1%}"]
            for batch, capacity in sorted(batch_capacity.items())
        ]
        text.append(f"--- {label}: throughput share by batchsize ---")
        text.append(format_table(["batch", "RPS", "share"], rows))
        config_rows = [
            [f"(b={b}, c={c}, g={g})", count]
            for (b, c, g), count in sorted(configs.items())
        ]
        text.append(f"--- {label}: instance configurations ---")
        text.append(format_table(["config", "instances"], config_rows))
        text.append("")
    emit("fig13_config_distribution", "\n".join(text))

    infless_batches = set(table["infless"][0])
    batch_batches = set(table["batch"][0])
    # INFless mixes more batch sizes and more configurations.
    assert len(infless_batches) >= 3          # paper: {1, 2, 4, 8}
    assert len(infless_batches) >= len(batch_batches)
    assert len(table["infless"][1]) > len(table["batch"][1])
