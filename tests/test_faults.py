"""The chaos layer: fault plans, resilience mechanics, determinism."""

import json
from pathlib import Path

import pytest

from repro.api import Experiment
from repro.baselines import OpenFaaSPlus
from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.faults import (
    ColdStartStraggler,
    FaultPlan,
    IngressSpike,
    InstanceKill,
    ResiliencePolicy,
    ServerCrash,
    ServerRecovery,
    StochasticCrashes,
    backlog_sheds,
)
from repro.simulation import ServingSimulation
from repro.workflows import WorkflowSpec
from repro.workloads import constant_trace

from tests.goldens import assert_golden

#: Two of the eight servers die mid-trace.
TWO_SERVER_CRASH = FaultPlan(events=(
    ServerCrash(at_s=45.0, server_id=0),
    ServerCrash(at_s=45.0, server_id=1),
))


def make_sim(predictor, executor, *, platform=None, servers=8, rps=400.0,
             duration=120.0, warmup=20.0, seed=16, **kwargs):
    if platform is None:
        platform = INFlessEngine(
            build_testbed_cluster(num_servers=servers), predictor=predictor
        )
    fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    platform.deploy(fn)
    return ServingSimulation(
        platform=platform,
        executor=executor,
        workload={fn.name: constant_trace(rps, duration)},
        warmup_s=warmup,
        seed=seed,
        **kwargs,
    )


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            events=(
                ServerCrash(at_s=45.0, server_id=0),
                ServerRecovery(at_s=80.0, server_id=0),
                InstanceKill(at_s=60.0, function="fn-resnet-50"),
                ColdStartStraggler(at_s=46.0, duration_s=20.0, factor=2.5),
                IngressSpike(at_s=30.0, duration_s=5.0, extra_delay_s=0.02),
            ),
            stochastic=StochasticCrashes(
                rate_per_hour=60.0, recover_after_s=30.0, servers=(2, 3)
            ),
            seed=7,
        )
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.from_json(str(path)) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_coerce_accepts_plan_dict_path_none(self, tmp_path):
        plan = TWO_SERVER_CRASH
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert FaultPlan.coerce(str(path)) == plan
        with pytest.raises(ValueError, match="cannot build a FaultPlan from float"):
            FaultPlan.coerce(3.14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_dict({"events": [{"kind": "meteor", "at_s": 1.0}]})

    def test_materialize_is_deterministic_and_sorted(self):
        plan = FaultPlan(
            events=(ServerCrash(at_s=50.0, server_id=0),),
            stochastic=StochasticCrashes(rate_per_hour=600.0),
            seed=3,
        )
        first = plan.materialize(120.0, num_servers=8)
        second = plan.materialize(120.0, num_servers=8)
        assert first == second
        assert [e.at_s for e in first] == sorted(e.at_s for e in first)

    def test_materialize_respects_horizon_and_budget(self):
        plan = FaultPlan(
            events=(ServerCrash(at_s=500.0, server_id=0),),
            stochastic=StochasticCrashes(rate_per_hour=36000.0, max_crashes=4),
            seed=1,
        )
        events = plan.materialize(120.0, num_servers=8)
        assert all(e.at_s < 120.0 for e in events)
        assert len(events) <= 4

    def test_example_chaos_plan_parses(self):
        plan = FaultPlan.from_json("examples/chaos_plan.json")
        assert plan
        kinds = {e.kind for e in plan.events}
        assert "server_crash" in kinds and "server_recovery" in kinds


class TestResiliencePolicy:
    def test_backoff_schedule_grows_exponentially(self):
        policy = ResiliencePolicy(
            backoff_base_s=0.01, backoff_multiplier=2.0, backoff_jitter=0.0
        )
        assert policy.backoff_s(1) == pytest.approx(0.01)
        assert policy.backoff_s(2) == pytest.approx(0.02)
        assert policy.backoff_s(3) == pytest.approx(0.04)
        with pytest.raises(ValueError):
            policy.backoff_s(0)

    def test_backoff_jitter_bounds(self):
        policy = ResiliencePolicy(backoff_base_s=0.01, backoff_jitter=0.5)
        low = policy.backoff_s(1, jitter_draw=0.0)
        high = policy.backoff_s(1, jitter_draw=1.0)
        assert low == pytest.approx(0.005)
        assert high == pytest.approx(0.015)

    def test_deadline_expiry(self):
        policy = ResiliencePolicy(deadline_factor=3.0)
        assert policy.deadline_s(10.0, 0.2) == pytest.approx(10.6)
        assert not policy.expired(10.6, 10.0, 0.2)
        assert policy.expired(10.61, 10.0, 0.2)

    def test_backlog_sheds_needs_capacity(self):
        assert not backlog_sheds([], 100, 0.0, 0.2, 2.0)


class TestChaosRuns:
    def test_redispatch_recovers_lost_batches(self, predictor, executor):
        # One saturated server: the instance is mid-batch at any
        # instant, so the crash is guaranteed to strand requests.
        def chaos_sim(resilience):
            return make_sim(
                predictor,
                executor,
                servers=1,
                rps=3000.0,
                duration=30.0,
                warmup=0.0,
                faults=FaultPlan(events=(
                    ServerCrash(at_s=15.0, server_id=0),
                    ServerRecovery(at_s=20.0, server_id=0),
                )),
                resilience=resilience,
            )

        baseline = chaos_sim(None).run()
        resilient = chaos_sim(ResiliencePolicy()).run()
        # Without retries the in-flight batches on the dead servers are
        # simply lost; with them, those requests are re-dispatched.
        assert baseline.drop_reasons.get("server_failure", 0) > 0
        assert resilient.resilience["retries"] > 0
        assert (
            resilient.drop_reasons.get("server_failure", 0)
            < baseline.drop_reasons.get("server_failure", 0)
        )

    def test_acceptance_two_server_outage_goodput(self, predictor, executor):
        # ISSUE acceptance: kill 2 of 8 servers mid-trace; with retries
        # INFless recovers >= 90% of the no-failure goodput.
        healthy = make_sim(predictor, executor).run()
        chaotic = make_sim(
            predictor,
            executor,
            faults=TWO_SERVER_CRASH,
            resilience=ResiliencePolicy(),
        ).run()
        assert chaotic.resilience is not None
        assert chaotic.goodput_rps >= 0.9 * healthy.goodput_rps
        assert 0.0 < chaotic.resilience["availability"] <= 1.0
        assert chaotic.resilience["mttr_s"]

    def test_recovery_restores_the_fleet(self, predictor, executor):
        plan = FaultPlan(events=TWO_SERVER_CRASH.events + (
            ServerRecovery(at_s=65.0, server_id=0),
            ServerRecovery(at_s=65.0, server_id=1),
        ))
        sim = make_sim(
            predictor, executor, faults=plan, resilience=ResiliencePolicy()
        )
        sim.run()
        cluster = sim.platform.cluster
        assert cluster.server(0).healthy
        assert cluster.server(1).healthy

    def test_instance_kill_and_straggler_run_clean(self, predictor, executor):
        plan = FaultPlan(events=(
            InstanceKill(at_s=40.0, function="fn-resnet-50"),
            ColdStartStraggler(at_s=40.0, duration_s=20.0, factor=3.0),
            IngressSpike(at_s=30.0, duration_s=5.0, extra_delay_s=0.05),
        ))
        report = make_sim(
            predictor,
            executor,
            duration=90.0,
            faults=plan,
            resilience=ResiliencePolicy(),
        ).run()
        assert report.invariant_violations == []
        assert report.resilience["faults_injected"] == 3
        assert report.resilience["fault_counts"]["instance_kill"] == 1

    def test_kill_after_crashes_keeps_the_executing_count(
        self, predictor, executor
    ):
        # Two crashes strand batches; the kill's re-dispatch may start a
        # new batch while the lost one is still being subtracted.
        sim = make_sim(
            predictor,
            executor,
            platform=OpenFaaSPlus(
                build_testbed_cluster(num_servers=8), predictor=predictor
            ),
            rps=300.0,
            duration=60.0,
            warmup=0.0,
            seed=1,
            invariants="strict",
            faults=FaultPlan(events=(
                ServerCrash(at_s=30.0, server_id=0),
                ServerCrash(at_s=30.0, server_id=1),
                InstanceKill(at_s=40.0, function="fn-resnet-50"),
                ServerRecovery(at_s=50.0, server_id=0),
            )),
            resilience=True,
        )
        report = sim.run()
        assert report.invariant_violations == []
        assert report.resilience["fault_counts"]["instance_kill"] == 1
        assert sim.executing == 0

    @pytest.mark.parametrize("platform_cls", [INFlessEngine, OpenFaaSPlus])
    def test_shed_follows_the_policy_factor(
        self, predictor, executor, platform_cls
    ):
        # The policy's factor drives shedding: a tighter backlog budget
        # sheds strictly more on either platform family.
        shed = []
        for factor in (0.5, 2.0, 50.0):
            report = make_sim(
                predictor,
                executor,
                platform=platform_cls(
                    build_testbed_cluster(num_servers=1), predictor=predictor
                ),
                rps=3000.0,
                duration=30.0,
                warmup=0.0,
                resilience=ResiliencePolicy(shed_slo_factor=factor),
            ).run()
            shed.append(report.drop_reasons.get("shed_overload", 0))
        assert shed[0] > shed[1] > shed[2]

    def test_deadline_expiry_drops_stale_requests(self, predictor, executor):
        # Saturate one server far past capacity with shedding disabled:
        # queued requests outlive their deadline and are dropped.
        policy = ResiliencePolicy(shed_enabled=False, deadline_factor=1.5)
        report = make_sim(
            predictor,
            executor,
            servers=1,
            rps=3000.0,
            duration=30.0,
            warmup=0.0,
            resilience=policy,
        ).run()
        assert report.drop_reasons.get("deadline_expired", 0) > 0


class TestChaosDeterminism:
    def test_same_seed_same_plan_bit_identical(self, predictor, executor):
        plan = FaultPlan(
            events=(
                ServerCrash(at_s=45.0, server_id=0),
                ServerRecovery(at_s=70.0, server_id=0),
                InstanceKill(at_s=60.0, function="fn-resnet-50"),
            ),
            stochastic=StochasticCrashes(
                rate_per_hour=120.0, recover_after_s=15.0
            ),
            seed=7,
        )

        def run():
            report = make_sim(
                predictor,
                executor,
                duration=90.0,
                faults=plan,
                resilience=ResiliencePolicy(),
            ).run()
            return json.loads(json.dumps(report.to_dict(), sort_keys=True))

        assert run() == run()

    def test_zero_fault_report_has_no_resilience_block(
        self, predictor, executor
    ):
        report = make_sim(predictor, executor, duration=30.0).run()
        assert report.resilience is None
        assert "resilience" not in report.to_dict()


CHAOS_PLAN = Path(__file__).resolve().parents[1] / "examples" / "chaos_plan.json"


def _chaos_report(case, predictor, executor):
    """One pinned chaos run, as ``simulate --faults`` builds it."""
    if case == "shed-overload":
        return make_sim(
            predictor, executor, servers=1, rps=3000.0, duration=30.0,
            warmup=0.0, resilience=ResiliencePolicy(),
        ).run()
    platform, policy = {
        "infless-policy": ("infless", True),
        "infless-no-policy": ("infless", None),
        "batch-no-policy": ("batch", None),
        "osvt-policy": ("infless", True),
    }[case]
    workflow = WorkflowSpec.coerce("osvt") if case == "osvt-policy" else None
    functions = None
    if workflow is None:
        functions = [FunctionSpec.for_model("resnet-50", slo_s=0.2)]
    entry = workflow.entry if workflow is not None else functions[0].name
    return Experiment(
        platform=platform, functions=functions, workflow=workflow,
        workload={entry: constant_trace(300.0, 120.0)}, warmup_s=20.0,
        faults=str(CHAOS_PLAN), resilience=policy, predictor=predictor,
        executor=executor, seed=1,
    ).run()


class TestChaosPins:
    """The ``report.to_dict()`` of five chaos runs: retry,
    drop-at-completion, redispatch, workflow and shed paths, byte for
    byte."""

    @pytest.mark.parametrize("case", [
        "batch-no-policy", "infless-no-policy", "infless-policy",
        "osvt-policy", "shed-overload",
    ])
    def test_report_digest(self, case, predictor, executor):
        report = _chaos_report(case, predictor, executor)
        assert report.invariant_violations == []
        assert_golden(f"chaos.{case}", report.to_dict())
