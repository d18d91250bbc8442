"""Edge cases across modules that the main suites do not reach."""

import numpy as np
import pytest

from repro.baselines import LambdaLike
from repro.cluster import build_testbed_cluster
from repro.core import (
    FixedKeepAlive,
    FunctionSpec,
    GreedyScheduler,
    INFlessEngine,
)
from repro.core.autoscaler import AutoScaler
from repro.core.dispatcher import plan_dispatch
from repro.models import get_model
from repro.ops.graph import OperatorGraph
from repro.ops.operator import OperatorSpec
from repro.profiling.database import ProfileDatabase
from repro.workloads import Trace, constant_trace


class TestTraceEdges:
    def test_with_mean_on_zero_trace_rejected(self):
        trace = Trace("z", 1.0, np.zeros(5))
        with pytest.raises(ValueError):
            trace.with_mean(10.0)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            constant_trace(1.0, 5.0).scaled(-1.0)

    def test_scale_by_zero_allowed(self):
        assert constant_trace(5.0, 5.0).scaled(0.0).mean_rps == 0.0


class TestGraphComposition:
    def op(self, gflops=1.0):
        return OperatorSpec("MatMul", gflops_per_item=gflops)

    def test_append_chain_joins_all_sinks(self):
        graph = OperatorGraph.chain("g", [("a", self.op())])
        graph.add_parallel_branches([[("b", self.op())], [("c", self.op())]])
        graph.append_chain([("join", self.op())])
        assert set(graph.predecessors("join")) == {"b", "c"}
        assert graph.sinks() == ["join"]

    def test_branches_from_multiple_sinks_fan_in(self):
        graph = OperatorGraph(name="g")
        graph.add_node("a", self.op())
        graph.add_node("b", self.op())
        graph.add_parallel_branches([[("c", self.op())]])
        assert set(graph.predecessors("c")) == {"a", "b"}


class TestProfileDatabaseEdges:
    def test_operators_listing(self):
        db = ProfileDatabase()
        db.insert_block("MatMul", [(1, 1, 0)], [1.0], [[0.01]])
        db.insert_block("Conv2D", [(1, 1, 0)], [1.0], [[0.02]])
        assert db.operators == ["Conv2D", "MatMul"]
        assert db.lookup_all("MatMul", 1.0)[0] == ((1, 1, 0),)


class TestDispatcherLabels:
    def test_under_trigger_without_release_labels_ii_under(self, predictor):
        # One busy instance cannot be released even under trivial load.
        from repro.core.batching import rate_bounds
        from repro.core.instance import Instance
        from repro.profiling.configspace import InstanceConfig

        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        instances = [
            Instance(
                function=fn,
                config=InstanceConfig(4, 1, 10),
                t_exec_pred=0.05,
                bounds=rate_bounds(0.05, 0.2, 4),
            )
            for _ in range(2)
        ]
        for instance in instances:
            instance.busy = True
        plan = plan_dispatch(instances, rps=1.0)
        assert plan.case == "ii-under"
        assert not plan.to_release


class TestAutoScalerReclaimGating:
    def test_unsaturable_warm_instance_not_reclaimed(self, predictor):
        cluster = build_testbed_cluster()
        scheduler = GreedyScheduler(cluster, predictor)
        scaler = AutoScaler(scheduler, FixedKeepAlive(600.0))
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        scaler.observe(fn, rps=2000.0, now=0.0)
        scaler.observe(fn, rps=40.0, now=10.0)
        pool = scaler.warm_pool(fn.name)
        big = [e for e in pool if e.instance.r_low > 5.0]
        if not big:
            pytest.skip("no high-r_low instances retired")
        # A 5-RPS surge cannot saturate the big warm instances, so the
        # scheduler must launch (or reuse) something batch-appropriate.
        scaler.observe(fn, rps=45.0, now=20.0)
        for entry in scaler.warm_pool(fn.name):
            if entry.instance.r_low > 50.0:
                assert entry.instance.state.value == "warm_idle"


class TestLambdaReplayEdges:
    def test_keepalive_expiry_forces_new_instance(self, executor):
        lam = LambdaLike(executor)
        model = get_model("mnist")
        stats = lam.replay_one_to_one(
            [0.0, 1000.0], model, 512.0, keepalive_s=10.0
        )
        assert stats.instances_launched == 2

    def test_warm_reuse_within_keepalive(self, executor):
        lam = LambdaLike(executor)
        model = get_model("mnist")
        stats = lam.replay_one_to_one(
            [0.0, 5.0], model, 512.0, keepalive_s=300.0
        )
        assert stats.instances_launched == 1

    def test_concurrent_arrivals_need_instances(self, executor):
        lam = LambdaLike(executor)
        model = get_model("resnet-20")
        stats = lam.replay_one_to_one([0.0, 0.0, 0.0], model, 2048.0)
        assert stats.instances_launched == 3
        assert stats.peak_concurrency == 3


class TestEngineEdges:
    def test_control_zero_rps_keeps_one_instance(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        fn = FunctionSpec.for_model("mnist", slo_s=0.05)
        engine.deploy(fn)
        engine.control(fn.name, rps=100.0, now=0.0)
        for step in range(1, 5):
            engine.control(fn.name, rps=0.0, now=float(step))
        # The dispatcher never releases the last instance outright.
        assert len(engine.instances(fn.name)) == 1

    def test_capacity_zero_before_deploying_instances(self, predictor):
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        fn = FunctionSpec.for_model("mnist", slo_s=0.05)
        engine.deploy(fn)
        assert engine.capacity_rps(fn.name) == 0.0
