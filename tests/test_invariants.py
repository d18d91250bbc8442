"""The conservation-invariant audit layer.

Two halves:

* unit tests feeding the checker synthetically broken simulator states
  and asserting each invariant family catches its corruption (strict
  raises, collect folds into the report);
* a hypothesis-driven differential suite replaying randomized small
  workloads through INFless (full and the Fig. 11 no-RS ablation) and
  every baseline under the strict checker -- the platforms disagree on
  policy but must all satisfy the same conservation laws.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Experiment
from repro.analysis import build_engine_variant
from repro.baselines import BatchOTP, BatchRS, OpenFaaSPlus
from repro.cluster import build_testbed_cluster
from repro.cluster.resources import ResourceVector
from repro.core import FunctionSpec, INFlessEngine
from repro.core.batching import RateBounds
from repro.core.instance import Instance, InstanceState
from repro.invariants import (
    InvariantChecker,
    InvariantViolation,
    default_mode,
    resolve_checker,
    set_default_mode,
)
from repro.profiling.configspace import InstanceConfig
from repro.simulation import ServingSimulation
from repro.simulation.metrics import RequestRecord
from repro.telemetry import InMemoryTracer
from repro.telemetry import spans as ev
from repro.workflows import WorkflowSpec
from repro.workloads import constant_trace


def make_sim(predictor, executor, *, platform=None, invariants="strict",
             rps=40.0, duration=10.0, servers=2, slo_s=0.2, seed=11,
             faults=None, resilience=None):
    cluster = build_testbed_cluster(num_servers=servers)
    if platform is None:
        platform = INFlessEngine(cluster, predictor=predictor)
    fn = FunctionSpec.for_model("resnet-50", slo_s=slo_s)
    platform.deploy(fn)
    sim = ServingSimulation(
        platform,
        executor,
        {fn.name: constant_trace(rps, duration)},
        invariants=invariants,
        faults=faults,
        resilience=resilience,
        seed=seed,
    )
    return sim, fn


class TestModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            InvariantChecker(mode="paranoid")
        with pytest.raises(ValueError):
            set_default_mode("paranoid")

    def test_default_mode_is_strict_under_tests(self):
        # The conftest autouse fixture flips the process default.
        assert default_mode() == "strict"
        assert InvariantChecker().mode == "strict"

    def test_resolve_checker_passthrough(self):
        checker = InvariantChecker(mode="collect")
        assert resolve_checker(checker) is checker
        assert resolve_checker("off").mode == "off"
        assert resolve_checker(None).mode == default_mode()

    def test_off_mode_never_flags(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor, invariants="off")
        sim.metrics.record_arrival(0.0)  # imbalance the ledger
        sim.invariants.check_tick(sim, 0.0)
        assert sim.invariants.violations == []

    def test_violation_is_typed_assertion(self):
        assert issubclass(InvariantViolation, AssertionError)


#: the one test allowed to switch the audit off: it checks that off
#: mode never flags.
_OFF_ALLOWED = ("test_invariants.py", "test_off_mode_never_flags")


def _audit_off_sites(path: Path):
    """``(function, line)`` of each ``invariants="off"`` in a test file,
    as a keyword argument or a ``{"invariants": "off"}`` entry."""

    def is_off(node) -> bool:
        return isinstance(node, ast.Constant) and node.value == "off"

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.keyword):
            if node.arg == "invariants" and is_off(node.value):
                yield function, node.value.lineno
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "invariants"
                    and is_off(value)
                ):
                    yield function, value.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text()), None)


class TestAuditCoverage:
    def test_no_run_switches_the_audit_off(self):
        # Goldens and pins compare bytes an audit has checked: every
        # run in the suite keeps the strict default or asks for it.
        offenders = [
            f"{path.name}:{line} ({function})"
            for path in sorted(Path(__file__).parent.rglob("*.py"))
            for function, line in _audit_off_sites(path)
            if (path.name, function) != _OFF_ALLOWED
        ]
        assert offenders == []
        allowed = Path(__file__).parent / _OFF_ALLOWED[0]
        assert [f for f, _line in _audit_off_sites(allowed)] == [
            _OFF_ALLOWED[1]
        ]


class TestRequestConservation:
    def test_lost_request_detected(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor)
        sim.metrics.record_arrival(0.0)
        sim.metrics.record_arrival(0.5)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check_request_conservation(sim, 1.0)
        assert excinfo.value.violation.invariant == "request_conservation"
        assert excinfo.value.violation.details["arrived"] == 2

    def test_balanced_ledger_passes(self, predictor, executor):
        sim, fn = make_sim(predictor, executor)
        sim.metrics.record_arrival(0.0)
        sim.metrics.record_drop(0.0, "queue_full")
        sim.invariants.check_request_conservation(sim, 1.0)

    def test_missing_ledger_fails_loudly(self, predictor, executor):
        """A renamed runtime ledger breaks the audit, not silences it."""
        sim, _fn = make_sim(predictor, executor, resilience=True)
        del sim.resilience_ledger.retry_pending
        with pytest.raises(AttributeError, match="retry_pending"):
            sim.invariants.check_tick(sim, 0.0)

    def test_stuck_executing_counter_detected(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor)
        sim.executing = 3
        with pytest.raises(InvariantViolation):
            sim.invariants.check_final(sim, 1.0)


class TestResourceConservation:
    def test_negative_free_detected(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor)
        server = sim.platform.cluster.servers[0]
        server.cpu_free = -1
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check_resource_conservation(
                sim, 0.0, sim.platform.registry.all_warm_entries()
            )
        assert excinfo.value.violation.invariant == "resource_conservation"

    def test_stale_gpu_aggregate_detected(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor)
        server = sim.platform.cluster.servers[0]
        server.gpus[0].free -= 10  # bypass _refresh_gpu_totals
        with pytest.raises(InvariantViolation):
            sim.invariants.check_resource_conservation(
                sim, 0.0, sim.platform.registry.all_warm_entries()
            )

    def test_unmatched_allocation_detected(self, predictor, executor):
        """An allocate with no owning instance is a leak at finalize."""
        sim, _fn = make_sim(predictor, executor)
        sim.platform.cluster.allocate(
            0, ResourceVector(cpu=2, gpu=10, memory_mb=512)
        )
        sim.invariants.check_resource_conservation(  # books balance
            sim, 0.0, sim.platform.registry.all_warm_entries()
        )
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check_placement_ownership(sim, 0.0)
        assert "leak" in excinfo.value.violation.message

    def test_failed_server_excluded(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor)
        cluster = sim.platform.cluster
        cluster.fail_server(0)
        cluster.servers[0].cpu_free = -5  # dead machine: not audited
        sim.invariants.check_resource_conservation(
            sim, 0.0, sim.platform.registry.all_warm_entries()
        )


class TestSchedulerSoundness:
    def _plant_instance(self, sim, fn, bounds, t_exec=0.05, batch=4):
        cluster = sim.platform.cluster
        placement = cluster.allocate(
            0, ResourceVector(cpu=2, gpu=10, memory_mb=512)
        )
        instance = Instance(
            function=fn,
            config=InstanceConfig(batch=batch, cpu=2, gpu=10),
            t_exec_pred=t_exec,
            bounds=bounds,
            placement=placement,
            state=InstanceState.ACTIVE,
        )
        sim.platform.registry._active.setdefault(fn.name, []).append(
            instance
        )
        return instance

    def test_zero_capacity_instance_detected(self, predictor, executor):
        sim, fn = make_sim(predictor, executor)
        self._plant_instance(sim, fn, RateBounds(r_low=0.0, r_up=0.0))
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check_scheduler_soundness(sim, 0.0)
        assert excinfo.value.violation.invariant == "scheduler_soundness"

    def test_slo_infeasible_config_detected(self, predictor, executor):
        sim, fn = make_sim(predictor, executor, slo_s=0.2)
        # t_exec > t_slo/2 for a batched instance violates Eq. 1.
        self._plant_instance(
            sim, fn, RateBounds(r_low=1.0, r_up=10.0), t_exec=0.15
        )
        with pytest.raises(InvariantViolation):
            sim.invariants.check_scheduler_soundness(sim, 0.0)

    def test_wrong_bounds_detected_in_exact_mode(self, predictor, executor):
        sim, fn = make_sim(predictor, executor, slo_s=0.2)
        # Feasible config but bounds that do not match Eq. 1.
        self._plant_instance(
            sim, fn, RateBounds(r_low=1.0, r_up=9999.0), t_exec=0.05
        )
        assert sim.platform.invariant_slo_check == "exact"
        with pytest.raises(InvariantViolation):
            sim.invariants.check_scheduler_soundness(sim, 0.0)


class TestLatencyTiling:
    def _record(self, fn, cold=0.0, queue=0.05, exec_s=0.05,
                arrival=0.0, completion=0.1):
        return RequestRecord(
            function=fn.name,
            arrival=arrival,
            completion=completion,
            cold_wait_s=cold,
            queue_wait_s=queue,
            exec_s=exec_s,
            batch_size=1,
            config=(1, 2, 10),
            slo_s=fn.slo_s,
        )

    def test_untiled_decomposition_detected(self, predictor, executor):
        sim, fn = make_sim(predictor, executor)
        sim.metrics.record_arrival(0.0)
        sim.metrics.record_completion(
            self._record(fn, queue=0.5)  # parts sum to 0.55, latency 0.1
        )
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check_latency_tiling(sim, 1.0, chained=False)
        assert excinfo.value.violation.invariant == "latency_tiling"

    def test_negative_component_detected(self, predictor, executor):
        sim, fn = make_sim(predictor, executor)
        sim.metrics.record_completion(
            self._record(fn, cold=-0.1, queue=0.15)
        )
        with pytest.raises(InvariantViolation):
            sim.invariants.check_latency_tiling(sim, 1.0, chained=False)

    def test_consistent_record_passes(self, predictor, executor):
        sim, fn = make_sim(predictor, executor)
        sim.metrics.record_completion(self._record(fn))
        sim.invariants.check_latency_tiling(sim, 1.0, chained=False)


class TestReportConsistency:
    def test_drop_reason_mismatch_detected(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor)
        report = sim.run()
        report.drop_reasons["phantom"] = 7
        with pytest.raises(InvariantViolation) as excinfo:
            sim.invariants.check_report(sim, report)
        assert excinfo.value.violation.invariant == "report_consistency"

    def test_histogram_mismatch_detected(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor)
        report = sim.run()
        assert report.completed > 0
        report.batch_histogram[1] = report.batch_histogram.get(1, 0) + 1
        with pytest.raises(InvariantViolation):
            sim.invariants.check_report(sim, report)


class _SkipsOneCompletion(InMemoryTracer):
    """Loses the first ``request_complete`` row the runtime records."""

    def recorder(self, kind, *names):
        record = super().recorder(kind, *names)
        if kind != ev.REQUEST_COMPLETE:
            return record
        skipped = []

        def record_all_but_first(ts, *values):
            if not skipped:
                skipped.append(ts)
                return 0
            return record(ts, *values)

        return record_all_but_first


class TestTelemetryAgreement:
    def _run(self, predictor, tracer):
        return Experiment(
            platform="infless",
            workflow="qa",
            workload={"qa-textcnn-69": constant_trace(60.0, 10.0)},
            predictor=predictor,
            telemetry=tracer,
            invariants="strict",
            seed=4,
        ).run()

    def test_recorded_run_agrees(self, predictor):
        tracer = InMemoryTracer()
        report = self._run(predictor, tracer)
        assert report.completed > 0
        assert report.invariant_violations == []
        assert tracer.count(ev.REQUEST_COMPLETE) == report.completed

    def test_lost_completion_detected(self, predictor):
        with pytest.raises(InvariantViolation, match=r"\[telemetry_agreement\]"):
            self._run(predictor, _SkipsOneCompletion())


class TestCollectMode:
    def test_violations_fold_into_report(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor, invariants="collect")
        # Corrupt the books mid-run: collect mode must finish the run
        # and surface the finding instead of raising.
        sim.metrics.record_arrival(-1.0)
        report = sim.run()
        assert report.invariant_violations
        first = report.invariant_violations[0]
        assert first["invariant"] == "request_conservation"
        assert "arrived" in first["details"]

    def test_clean_run_has_empty_violation_list(self, predictor, executor):
        sim, _fn = make_sim(predictor, executor, invariants="collect")
        report = sim.run()
        assert report.invariant_violations == []

    def test_report_serialises_with_violations(self, predictor, executor):
        import json

        sim, _fn = make_sim(predictor, executor, invariants="collect")
        sim.metrics.record_arrival(-1.0)
        report = sim.run()
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["invariant_violations"]


def _platforms(predictor):
    """Factories for every audited serving platform."""

    def infless(cluster):
        return INFlessEngine(cluster, predictor=predictor)

    def infless_no_rs(cluster):
        return build_engine_variant(cluster, predictor, "no-rs")

    return {
        "infless": infless,
        "infless-no-rs": infless_no_rs,
        "openfaas+": lambda c: OpenFaaSPlus(c, predictor),
        "batch": lambda c: BatchOTP(c, predictor),
        "batch+rs": lambda c: BatchRS(c, predictor),
    }


class TestDifferentialSuite:
    """Randomized small workloads, every platform, strict audit."""

    @given(
        rps=st.floats(5.0, 40.0),
        duration=st.floats(8.0, 15.0),
        seed=st.integers(0, 2**16),
    )
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @pytest.mark.parametrize(
        "platform_name",
        ["infless", "infless-no-rs", "openfaas+", "batch", "batch+rs"],
    )
    def test_all_platforms_conserve(
        self, predictor, executor, platform_name, rps, duration, seed
    ):
        factory = _platforms(predictor)[platform_name]
        cluster = build_testbed_cluster(num_servers=2)
        platform = factory(cluster)
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        platform.deploy(fn)
        sim = ServingSimulation(
            platform,
            executor,
            {fn.name: constant_trace(rps, duration)},
            invariants="strict",
            seed=seed,
        )
        report = sim.run()  # strict: any violation raises here
        assert report.invariant_violations == []
        assert report.completed + report.dropped <= report.arrived
        assert sum(report.drop_reasons.values()) == report.dropped

    @given(seed=st.integers(0, 2**16))
    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_linear_workflow_conserves(self, predictor, executor, seed):
        cluster = build_testbed_cluster(num_servers=2)
        engine = INFlessEngine(cluster, predictor=predictor)
        entry = FunctionSpec.for_model("mobilenet", slo_s=0.2, name="stage-a")
        tail = FunctionSpec.for_model("mnist", slo_s=0.2, name="stage-b")
        engine.deploy(entry)
        engine.deploy(tail)
        sim = ServingSimulation(
            engine,
            executor,
            {entry.name: constant_trace(20.0, 8.0)},
            workflow=WorkflowSpec.linear(
                "pair",
                stages=[(entry.name, "mobilenet"), (tail.name, "mnist")],
                end_to_end_slo_s=0.4,
            ),
            invariants="strict",
            seed=seed,
        )
        report = sim.run()
        assert report.invariant_violations == []

    def test_failure_injection_conserves(self, predictor, executor):
        from repro.faults import FaultPlan, ServerCrash

        plan = FaultPlan(events=(ServerCrash(at_s=6.0, server_id=0),))
        sim, _fn = make_sim(
            predictor, executor, rps=120.0, duration=20.0, servers=3,
            faults=plan,
        )
        report = sim.run()
        assert report.invariant_violations == []
        assert sum(report.drop_reasons.values()) == report.dropped

    def test_chaos_with_resilience_conserves(self, predictor, executor):
        from repro.faults import (
            FaultPlan, ResiliencePolicy, ServerCrash, ServerRecovery,
        )

        plan = FaultPlan(events=(
            ServerCrash(at_s=6.0, server_id=0),
            ServerCrash(at_s=6.0, server_id=1),
            ServerRecovery(at_s=12.0, server_id=0),
        ))
        sim, _fn = make_sim(
            predictor, executor, rps=120.0, duration=25.0, servers=3,
            faults=plan, resilience=ResiliencePolicy(),
        )
        report = sim.run()
        assert report.invariant_violations == []
        assert sum(report.drop_reasons.values()) == report.dropped
