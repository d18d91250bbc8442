"""Fault-tolerance tests: server failures and recovery."""

import pytest

from repro.baselines import OpenFaaSPlus
from repro.cluster import ResourceVector, build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine, InstanceState
from repro.core.autoscaler import InstanceRegistry
from repro.faults import FaultPlan, ServerCrash
from repro.profiling import GroundTruthExecutor
from repro.simulation import ServingSimulation
from repro.workloads import constant_trace


class _NoRegistry:
    """Every platform protocol member except the ledger and fault hooks."""

    ingress_delay_s = 0.0
    waiting_batches = 2
    invariant_slo_check = "none"

    def __init__(self):
        self.cluster = build_testbed_cluster()

    def function(self, name):
        return FunctionSpec.for_model("mnist", 0.1, name=name)

    def deploy(self, fn):
        pass

    def control(self, name, rps, now):
        return None

    def record_invocation(self, name, now):
        pass

    def route(self, name, now):
        return None

    def instances(self, name):
        return []


class _NoFailover(_NoRegistry):
    """A platform with a ledger but no server-failure hook."""

    def __init__(self):
        super().__init__()
        self.registry = InstanceRegistry(self.cluster)


class TestClusterFailures:
    def test_fail_server_loses_placements(self, cluster):
        placement = cluster.allocate(0, ResourceVector(cpu=2, gpu=20))
        lost = cluster.fail_server(0)
        assert lost == [placement]
        assert placement not in cluster.placements

    def test_failed_server_rejects_allocations(self, cluster):
        cluster.fail_server(0)
        assert not cluster.server(0).can_fit(ResourceVector(cpu=1))

    def test_failed_server_leaves_aggregates(self, cluster):
        cluster.allocate(0, ResourceVector(cpu=4))
        before = cluster.total_capacity.cpu
        cluster.fail_server(0)
        assert cluster.total_capacity.cpu == before - 16
        assert cluster.total_used.is_zero()

    def test_double_failure_is_idempotent(self, cluster):
        cluster.allocate(0, ResourceVector(cpu=1))
        assert len(cluster.fail_server(0)) == 1
        assert cluster.fail_server(0) == []

    def test_recovery_restores_empty_server(self, cluster):
        cluster.allocate(0, ResourceVector(cpu=4, gpu=50))
        cluster.fail_server(0)
        cluster.recover_server(0)
        server = cluster.server(0)
        assert server.healthy
        assert server.free == server.capacity

    def test_recover_healthy_server_is_noop(self, cluster):
        cluster.allocate(0, ResourceVector(cpu=4))
        cluster.recover_server(0)
        assert cluster.server(0).used.cpu == 4

    def test_version_bumped_on_failure(self, cluster):
        before = cluster.version
        cluster.fail_server(0)
        assert cluster.version > before


class TestEngineFailureHandling:
    def test_lost_instances_terminated_and_reprovisioned(self, predictor):
        cluster = build_testbed_cluster()
        engine = INFlessEngine(cluster, predictor=predictor)
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        engine.deploy(fn)
        engine.control(fn.name, rps=3000.0, now=0.0)
        victims = [
            inst for inst in engine.instances(fn.name)
            if inst.placement.server_id == 0
        ]
        lost = engine.on_server_failure(0, now=1.0)
        assert {i.instance_id for i in lost} == {i.instance_id for i in victims}
        for instance in lost:
            assert instance.state == InstanceState.TERMINATED
            assert instance.placement is None
        # The next control step restores the lost capacity elsewhere.
        engine.control(fn.name, rps=3000.0, now=2.0)
        assert engine.capacity_rps(fn.name) >= 3000.0
        assert all(
            inst.placement.server_id != 0
            for inst in engine.instances(fn.name)
        )

    def test_failure_with_no_instances_is_safe(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        assert engine.on_server_failure(3, now=0.0) == []

    def test_baseline_platform_handles_failure(self, predictor):
        platform = OpenFaaSPlus(build_testbed_cluster(), predictor)
        fn = FunctionSpec.for_model("mobilenet", slo_s=0.2)
        platform.deploy(fn)
        platform.control(fn.name, rps=800.0, now=0.0)
        affected_servers = {
            inst.placement.server_id for inst in platform.instances(fn.name)
        }
        victim_server = next(iter(affected_servers))
        lost = platform.on_server_failure(victim_server, now=1.0)
        assert lost
        platform.control(fn.name, rps=800.0, now=2.0)
        assert all(
            inst.placement.server_id != victim_server
            for inst in platform.instances(fn.name)
        )


class TestRuntimeFaultInjection:
    def test_service_survives_a_machine_loss(self, predictor, executor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        engine.deploy(fn)
        sim = ServingSimulation(
            platform=engine,
            executor=executor,
            workload={fn.name: constant_trace(400.0, 120.0)},
            warmup_s=20.0,
            faults=FaultPlan(events=(ServerCrash(at_s=60.0, server_id=0),)),
            seed=16,
        )
        report = sim.run()
        # The failure costs at most the in-flight batches plus a brief
        # re-provisioning dip, not the service.
        assert report.completed > 0.9 * report.arrived
        assert engine.autoscaler.stats.failures >= 1
        assert not engine.cluster.server(0).healthy

    def test_unsupported_platform_raises(self, predictor, executor):
        sim = ServingSimulation(
            platform=_NoFailover(),
            executor=executor,
            workload={"f": constant_trace(1.0, 5.0)},
            seed=17,
        )
        sim.faults = FaultPlan(events=(ServerCrash(at_s=1.0, server_id=0),))
        # The runtime calls the protocol's failure hook directly, so a
        # platform without it fails loudly, naming the missing hook.
        with pytest.raises(AttributeError, match="on_server_failure"):
            sim.run()

    def test_platform_without_registry_rejected(self, executor):
        with pytest.raises(AttributeError, match="registry"):
            ServingSimulation(
                platform=_NoRegistry(),
                executor=executor,
                workload={"f": constant_trace(1.0, 5.0)},
            )
