"""Scheduling on mixed CPU/GPU fleets: GPU boxes plus CPU-only nodes."""

import pytest

from repro.analysis import stress_capacity
from repro.cluster import FleetSpec, ServerGroup
from repro.core import FunctionSpec, INFlessEngine


def cpu_boxes(count):
    """``count`` CPU-only nodes: 32 cores, no GPU."""
    return ServerGroup(count, cpu=32, gpus=0)


def mixed_cluster(gpu_servers, cpu_servers):
    """``gpu_servers`` Table-2 boxes followed by ``cpu_servers`` CPU-only nodes."""
    groups = []
    if gpu_servers:
        groups.append(ServerGroup(gpu_servers))
    if cpu_servers:
        groups.append(cpu_boxes(cpu_servers))
    return FleetSpec(tuple(groups)).build_cluster()


class TestBuilder:
    def test_server_mix(self):
        cluster = mixed_cluster(gpu_servers=2, cpu_servers=3)
        gpu_boxes = [s for s in cluster.servers if s.num_gpus > 0]
        cpu_only = [s for s in cluster.servers if s.num_gpus == 0]
        assert len(gpu_boxes) == 2 and len(cpu_only) == 3

    def test_cpu_boxes_have_more_cores(self):
        cluster = mixed_cluster(gpu_servers=1, cpu_servers=1)
        gpu_box = next(s for s in cluster.servers if s.num_gpus > 0)
        cpu_box = next(s for s in cluster.servers if s.num_gpus == 0)
        assert cpu_box.cpu_capacity > gpu_box.cpu_capacity
        assert cpu_box.gpu_capacity == 0

    def test_beta_balances_actual_mix(self):
        cluster = mixed_cluster(gpu_servers=2, cpu_servers=2)
        total = cluster.total_capacity
        assert cluster.beta == pytest.approx(total.gpu / total.cpu)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            mixed_cluster(gpu_servers=0, cpu_servers=0)


class TestSchedulingOnMixedCluster:
    def test_gpu_hungry_model_lands_on_gpu_boxes(self, predictor):
        cluster = FleetSpec((ServerGroup(2), cpu_boxes(4))).build_cluster()
        engine = INFlessEngine(cluster, predictor=predictor)
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.15)
        engine.deploy(fn)
        engine.control(fn.name, rps=500.0, now=0.0)
        instances = engine.instances(fn.name)
        assert instances
        for instance in instances:
            if instance.config.gpu > 0:
                server = cluster.server(instance.placement.server_id)
                assert server.num_gpus > 0

    def test_small_models_use_cpu_boxes_when_gpus_exhaust(self, predictor):
        cluster = FleetSpec((ServerGroup(1), cpu_boxes(4))).build_cluster()
        engine = INFlessEngine(cluster, predictor=predictor)
        fn = FunctionSpec.for_model("lstm-2365", slo_s=0.05)
        engine.deploy(fn)
        result = stress_capacity(engine, [fn])
        cpu_box_used = any(
            server.used.cpu > 0
            for server in cluster.servers
            if server.num_gpus == 0
        )
        assert cpu_box_used
        assert result.max_app_rps > 0

    def test_capacity_exceeds_gpu_only_subset(self, predictor):
        fn = FunctionSpec.for_model("dssm-2389", slo_s=0.05)
        mixed = FleetSpec((ServerGroup(2), cpu_boxes(6))).build_cluster()
        gpu_only = FleetSpec((ServerGroup(2),)).build_cluster()
        cap_mixed = stress_capacity(
            INFlessEngine(mixed, predictor=predictor), [fn]
        ).max_app_rps
        cap_gpu = stress_capacity(
            INFlessEngine(gpu_only, predictor=predictor), [fn]
        ).max_app_rps
        assert cap_mixed > cap_gpu
