"""Tests for ``repro.workflows``: DAG specs, SLO decomposition,
co-placement and workflow execution.

A linear pipeline is a path-shaped workflow, so goldens
(``tests/goldens.py``) pin the forwarding path byte for byte:

- ``trace.osvt_workflow`` and ``trace.osvt_workflow_crash`` (checked by
  ``tests/test_trace_golden.py``): linear stage-to-stage forwarding on
  the OSVT pipeline, without and with faults and retries, down to every
  trace event.
- ``workflow.diamond``: the diamond fan-out/fan-in scenario.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment
from repro.cluster import FleetSpec, ServerGroup, build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.faults import (
    ColdStartStraggler,
    FaultPlan,
    IngressSpike,
    InstanceKill,
    ServerCrash,
    ServerRecovery,
)
from repro.profiling import GroundTruthExecutor
from repro.simulation import ServingSimulation
from repro.workflows import (
    WORKFLOW_POLICIES,
    CoPlacementHint,
    WorkflowSpec,
    WorkflowStage,
    build_preset_workflow,
    decompose_slo,
    predicted_stage_times,
)
from repro.workloads import (
    build_osvt,
    bursty_trace,
    constant_trace,
)

from tests.goldens import assert_golden


def diamond_workflow() -> WorkflowSpec:
    """A fan-out/fan-in diamond over Table 1 models."""
    return WorkflowSpec(
        name="diamond",
        stages=(
            WorkflowStage("d-ssd", model="ssd",
                          downstream=("d-mnet", "d-rnet")),
            WorkflowStage("d-mnet", model="mobilenet",
                          downstream=("d-sink",)),
            WorkflowStage("d-rnet", model="resnet-50",
                          downstream=("d-sink",)),
            WorkflowStage("d-sink", model="mobilenet"),
        ),
        end_to_end_slo_s=0.4,
    )


def diamond_report():
    """The seeded diamond scenario the workflow golden pins."""
    return Experiment(
        platform="infless",
        workflow=diamond_workflow(),
        workload={"d-ssd": constant_trace(120.0, 60.0)},
        warmup_s=10.0,
        invariants="strict",
        seed=12,
    ).run().to_dict()


class TestWorkflowSpec:
    def test_json_round_trip(self, tmp_path):
        workflow = diamond_workflow()
        payload = json.loads(json.dumps(workflow.to_dict()))
        assert WorkflowSpec.from_dict(payload) == workflow
        path = tmp_path / "diamond.json"
        path.write_text(json.dumps(workflow.to_dict()))
        assert WorkflowSpec.coerce(str(path)) == workflow

    def test_coerce_forms(self):
        workflow = build_preset_workflow("osvt")
        assert WorkflowSpec.coerce(None) is None
        assert WorkflowSpec.coerce(workflow) is workflow
        assert WorkflowSpec.coerce("osvt") == workflow
        assert WorkflowSpec.coerce(workflow.to_dict()) == workflow
        with pytest.raises(ValueError, match="unknown workflow"):
            WorkflowSpec.coerce("nosuch")

    def test_linear_matches_app_chain(self):
        app = build_osvt()
        workflow = app.as_workflow()
        assert workflow.entry == app.functions[0].name
        assert workflow.topological_order() == [
            fn.name for fn in app.functions
        ]
        assert workflow.end_to_end_slo_s == app.slo_s

    def test_diamond_topology_helpers(self):
        workflow = diamond_workflow()
        assert workflow.entry == "d-ssd"
        assert workflow.sink == "d-sink"
        assert workflow.fan_in()["d-sink"] == 2
        assert set(workflow.successors()["d-ssd"]) == {"d-mnet", "d-rnet"}
        assert set(workflow.adjacency()["d-mnet"]) == {"d-ssd", "d-sink"}

    def test_rejects_two_entries(self):
        with pytest.raises(ValueError, match="exactly one entry"):
            WorkflowSpec(
                name="w",
                stages=(
                    WorkflowStage("a", model="mnist", downstream=("c",)),
                    WorkflowStage("b", model="mnist", downstream=("c",)),
                    WorkflowStage("c", model="mnist"),
                ),
                end_to_end_slo_s=0.1,
            )

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="forwards to itself"):
            WorkflowSpec(
                name="w",
                stages=(WorkflowStage("a", model="mnist", downstream=("a",)),),
                end_to_end_slo_s=0.1,
            )


class TestSLODecomposition:
    def test_decomposed_budgets_follow_execution_time(self, predictor):
        workflow = build_preset_workflow("osvt")
        times = predicted_stage_times(workflow, predictor)
        budgets = decompose_slo(workflow, predictor, policy="decomposed")
        # Heavier stages earn larger budget shares; every budget is a
        # strict sub-budget of the end-to-end SLO.
        ranked_t = sorted(times, key=times.get)
        ranked_b = sorted(budgets, key=budgets.get)
        assert ranked_t == ranked_b
        assert all(0 < b < workflow.end_to_end_slo_s for b in budgets.values())

    def test_independent_policy_gives_full_budget(self, predictor):
        workflow = build_preset_workflow("qa")
        budgets = decompose_slo(workflow, predictor, policy="independent")
        assert set(budgets.values()) == {workflow.end_to_end_slo_s}

    def test_unknown_policy_rejected(self, predictor):
        with pytest.raises(ValueError, match="policy"):
            decompose_slo(
                build_preset_workflow("qa"), predictor, policy="nosuch"
            )

    @pytest.mark.parametrize("name", ["osvt", "qa", "diamond"])
    def test_decomposed_budgets_pinned(self, predictor, name):
        # The critical path's sums associate in a fixed order; an ulp
        # there moves the budgets, so both are pinned byte for byte.
        # The budgets stay pairs in stage order.
        workflow = (
            diamond_workflow() if name == "diamond"
            else build_preset_workflow(name)
        )
        critical = workflow.critical_path_time(
            predicted_stage_times(workflow, predictor)
        )
        budgets = decompose_slo(workflow, predictor, policy="decomposed")
        assert_golden(f"budgets.{name}", {
            "critical_path_s": critical, "budgets": list(budgets.items()),
        })


class TestDiamondGolden:
    def test_diamond_matches_golden_bit_identically(self):
        assert_golden("workflow.diamond", diamond_report())

    def test_diamond_repeatable_within_process(self):
        first = json.loads(json.dumps(diamond_report()))
        second = json.loads(json.dumps(diamond_report()))
        assert first == second


class TestWorkflowExecution:
    @pytest.fixture(scope="class")
    def osvt_experiment(self):
        experiment = Experiment(
            platform="infless",
            workflow="osvt",
            workload={"osvt-ssd": constant_trace(200.0, 40.0)},
            warmup_s=10.0,
            invariants="strict",
            seed=3,
        )
        experiment.run()
        return experiment

    @pytest.fixture(scope="class")
    def osvt_report(self, osvt_experiment):
        return osvt_experiment.report

    def test_only_sink_stage_completes(self, osvt_experiment):
        records = osvt_experiment.simulation.metrics.records
        assert {record.function for record in records} == {"osvt-resnet-50"}

    def test_end_to_end_conservation(self, osvt_report):
        assert (
            osvt_report.completed + osvt_report.dropped == osvt_report.arrived
        )

    def test_end_to_end_latency_spans_stages(self, osvt_report):
        # Three stages of execution: the mean end-to-end latency must
        # exceed any single stage's execution time.
        assert osvt_report.latency_mean_s > osvt_report.mean_exec_s

    def test_sink_meets_end_to_end_slo(self, osvt_report):
        assert osvt_report.violation_rate < 0.05

    def test_all_stages_scaled(self, osvt_experiment):
        sim = osvt_experiment.simulation
        for name in sim.workflow.stage_names():
            assert sim.platform.instances(name), name

    def test_downstream_rates_follow_entry(self, osvt_experiment):
        estimates = osvt_experiment.simulation._rate_estimate
        assert estimates["osvt-resnet-50"] == pytest.approx(
            estimates["osvt-ssd"], rel=0.5
        )

    def test_summary_block(self, osvt_report):
        wf = osvt_report.workflows
        assert wf["workflow"] == "osvt"
        assert wf["completed"] > 0
        assert wf["goodput_rps"] > 0
        assert set(wf["per_stage"]) == {
            "osvt-ssd", "osvt-mobilenet", "osvt-resnet-50"
        }
        assert all(
            stats["count"] > 0 for stats in wf["per_stage"].values()
        )

    def test_stage_latencies_tile_under_e2e(self, osvt_report):
        wf = osvt_report.workflows
        stage_means = sum(
            stats["mean_s"] for stats in wf["per_stage"].values()
        )
        # Linear pipeline: the e2e mean is the sum of stage means
        # (stage latency is measured arrival->completion per stage).
        assert wf["latency_mean_s"] == pytest.approx(stage_means, rel=0.05)

    def test_diamond_joins_fire_and_conserve(self):
        experiment = Experiment(
            platform="infless",
            workflow=diamond_workflow(),
            workload={"d-ssd": constant_trace(80.0, 30.0)},
            warmup_s=5.0,
            invariants="strict",
            seed=9,
        )
        report = experiment.run()
        sim = experiment.simulation
        assert sim.workflow_ledger.join_fired["d-sink"] > 0
        assert not sim.workflow_ledger.barriers, "orphaned join barriers at drain"
        wf = report.workflows
        # Every post-warmup sink completion is exactly one finished
        # workflow: the join barrier collapsed both branches first.
        assert wf["per_stage"]["d-sink"]["count"] == wf["completed"]

    def test_workflow_telemetry_spans(self):
        experiment = Experiment(
            platform="infless",
            workflow="qa",
            workload={"qa-textcnn-69": constant_trace(100.0, 20.0)},
            warmup_s=5.0,
            telemetry=True,
            invariants="strict",
            seed=4,
        )
        experiment.run()
        kinds = {event.kind for event in experiment.tracer.events}
        assert "workflow_stage" in kinds
        assert "workflow_complete" in kinds


def _chaos_plan(kind: str, interior: str, sink: str) -> FaultPlan:
    """One of three fault plans for a 30 s workflow run."""
    if kind == "crash-recovery":
        events = (
            ServerCrash(at_s=14.0, server_id=0),
            ServerRecovery(at_s=20.0, server_id=0),
        )
    elif kind == "instance-kills":
        events = (
            InstanceKill(at_s=12.0, function=interior),
            InstanceKill(at_s=16.0, function=sink),
        )
    else:
        events = (
            IngressSpike(at_s=11.0, duration_s=2.0, extra_delay_s=0.05),
            ServerCrash(at_s=14.0, server_id=0),
            ColdStartStraggler(at_s=14.0, duration_s=4.0, factor=3.0),
        )
    return FaultPlan(events=events)


class TestWorkflowsUnderChaos:
    """Workflows compose with fault plans and resilience policies."""

    WORKFLOWS = {
        "osvt": ("osvt-mobilenet", "osvt-resnet-50"),
        "diamond": ("d-mnet", "d-sink"),
    }

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("resilience", [False, True],
                             ids=["no-resilience", "resilience"])
    @pytest.mark.parametrize("plan", [
        "crash-recovery", "instance-kills", "crash-straggler-spike",
    ])
    @pytest.mark.parametrize("name", ["osvt", "diamond"])
    def test_each_root_drops_once_and_no_barrier_survives(
        self, name, plan, resilience, seed
    ):
        workflow = (
            build_preset_workflow("osvt") if name == "osvt"
            else diamond_workflow()
        )
        faults = _chaos_plan(plan, *self.WORKFLOWS[name])
        experiment = Experiment(
            platform="infless",
            servers=4,
            workflow=workflow,
            workload={workflow.entry: constant_trace(80.0, 30.0)},
            faults=faults,
            resilience=resilience,
            warmup_s=0.0,
            invariants="strict",
            seed=seed,
        )
        report = experiment.run()
        assert report.invariant_violations == []
        assert report.resilience["faults_injected"] == len(faults.events)
        # With no warmup every root is counted: each one that fails
        # records exactly one drop, however many tokens it had.
        assert report.dropped == report.workflows["failed"]
        assert report.completed + report.dropped == report.arrived
        assert not experiment.simulation.workflow_ledger.barriers


class TestOracleRateRegression:
    """Satellite 1: interior stages in oracle mode get the true
    forwarded rate, not an EWMA cold-start blend."""

    @staticmethod
    def _oracle_simulation(predictor):
        app = build_osvt(slo_s=0.4)
        engine = INFlessEngine(build_testbed_cluster(), predictor=predictor)
        for function in app.functions:
            engine.deploy(function)
        return ServingSimulation(
            platform=engine,
            executor=GroundTruthExecutor(),
            workload={"osvt-ssd": constant_trace(100.0, 10.0)},
            workflow=app.as_workflow(),
            rate_mode="oracle",
            invariants="strict",
            seed=1,
        )

    def test_interior_stage_oracle_rate_is_raw_forwarded_rate(
        self, predictor
    ):
        sim = self._oracle_simulation(predictor)
        sim._arrivals_since_tick["osvt-mobilenet"] = 100
        # Pre-fix this EWMA-blended from a cold start: 0.6*100 = 60.0.
        assert sim._estimate_rate("osvt-mobilenet") == 100.0

    def test_entry_stage_still_reads_the_trace(self, predictor):
        sim = self._oracle_simulation(predictor)
        assert sim._estimate_rate("osvt-ssd") == 100.0


class TestCycleDetection:
    """Satellite 2: multi-stage cycles fail at construction, loudly."""

    def test_workflow_cycle_rejected(self):
        with pytest.raises(ValueError, match="contains a cycle"):
            WorkflowSpec(
                name="w",
                stages=(
                    WorkflowStage("a", model="mnist", downstream=("b",)),
                    WorkflowStage("b", model="mnist", downstream=("c",)),
                    WorkflowStage("c", model="mnist", downstream=("b",)),
                ),
                end_to_end_slo_s=0.1,
            )


class TestWorkflowRejections:
    """Satellite 6: engines and layers without workflow support say so."""

    def _kwargs(self, **extra):
        kwargs = dict(
            platform="infless",
            workflow="osvt",
            workload={"osvt-ssd": constant_trace(50.0, 10.0)},
        )
        kwargs.update(extra)
        return kwargs

    @pytest.mark.parametrize("engine", ["fluid", "hybrid"])
    def test_fluid_engines_reject_workflow(self, engine):
        with pytest.raises(ValueError, match="workflow"):
            Experiment(**self._kwargs(engine=engine)).build()

    def test_llm_platform_rejects_workflow(self):
        with pytest.raises(ValueError, match="autoregressive"):
            Experiment(**self._kwargs(platform="llm")).build()

    def test_workflow_and_functions_mutually_exclusive(self):
        function = FunctionSpec.for_model("mnist", 0.1)
        with pytest.raises(ValueError, match="not both"):
            Experiment(**self._kwargs(functions=[function]))


class TestCoPlacementHint:
    def test_tracks_and_prefers_adjacent_servers(self):
        hint = CoPlacementHint(diamond_workflow())
        assert hint.tracks("d-ssd") and not hint.tracks("other")
        hint.record("d-ssd", 3)
        assert hint.preferred_servers("d-mnet") == {3}
        assert hint.preferred_servers("d-ssd") == set()
        hint.forget("d-ssd", 3)
        assert hint.preferred_servers("d-mnet") == set()

    def test_hit_rate_stats(self):
        hint = CoPlacementHint(diamond_workflow())
        hint.observe(True)
        hint.observe(False)
        assert hint.stats()["hit_rate"] == 0.5


class TestDecomposedBeatsIndependent:
    def test_decomposed_coplacement_wins_on_workflow_goodput(self):
        """The acceptance criterion: at equal resources, SLO
        decomposition + co-placement beats the naive independent
        policy on workflow goodput (the naive policy lets interior
        stages batch lazily and blows the end-to-end deadline)."""
        reports = {}
        for policy in WORKFLOW_POLICIES:
            reports[policy] = Experiment(
                platform="infless",
                workflow="osvt",
                workflow_policy=policy,
                workload={"osvt-ssd": constant_trace(300.0, 40.0)},
                warmup_s=10.0,
                invariants="strict",
                seed=7,
            ).run().workflows
        assert (
            reports["decomposed"]["goodput_rps"]
            > reports["independent"]["goodput_rps"]
        )
        assert reports["decomposed"]["coplacement"] is not None
        assert reports["independent"]["coplacement"] is None


class TestCoPlacementOnMixedFleet:
    MIXED = FleetSpec(groups=(
        ServerGroup(count=4, gpu_profile="2080ti"),
        ServerGroup(count=2, gpu_profile="t4"),
        ServerGroup(count=2, gpu_profile="a100"),
    ))

    def test_hint_is_consulted_on_a_mixed_fleet(self):
        """Generation-aware placement still runs the co-placement
        preference: the hint sees decisions, as on a homogeneous
        fleet."""
        workflows = Experiment(
            platform="infless",
            fleet=self.MIXED,
            workflow="osvt",
            workflow_policy="decomposed",
            workload={"osvt-ssd": bursty_trace(
                300.0, 30.0, period_s=30.0, burst_rate_per_hour=30.0,
                burst_duration_s=30.0, seed=3,
            )},
            warmup_s=5.0,
            invariants="strict",
            seed=7,
        ).run().workflows
        assert workflows["coplacement"]["decisions"] > 0
        assert workflows["coplacement"]["hits"] > 0


class TestCampaignWorkflowAxis:
    def _spec(self):
        from repro.campaign import CampaignSpec

        return CampaignSpec(
            name="wf-axis",
            axes={
                "rps": [120.0],
                "workflow": ["osvt"],
                "workflow_policy": ["decomposed", "independent"],
            },
            replicates=(0,),
            root_seed=5,
            duration_s=10.0,
            warmup_s=2.0,
        )

    def test_workflow_cells_expand_and_validate(self):
        runs = self._spec().expand()
        assert len(runs) == 2
        for run in runs:
            assert run.experiment["functions"] is None
            assert run.experiment["workflow"]["name"] == "osvt"
            assert list(run.experiment["workload"]) == ["osvt-ssd"]

    def test_legacy_cells_keep_their_keys(self):
        from repro.campaign import CampaignSpec

        legacy = CampaignSpec(
            name="legacy", axes={"rps": [100.0]}, duration_s=5.0
        )
        for cell in legacy.cells():
            assert "workflow" not in cell
            assert "workflow_policy" not in cell

    def test_parallel_matches_serial_byte_identically(self, tmp_path):
        from repro.campaign import run_campaign

        spec = self._spec()
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        run_campaign(spec, str(serial_dir), workers=1)
        run_campaign(spec, str(parallel_dir), workers=2)
        assert (serial_dir / "report.json").read_bytes() == (
            parallel_dir / "report.json"
        ).read_bytes()


def _random_dag(draw) -> WorkflowSpec:
    """A random connected single-entry/single-sink DAG, 3-5 stages."""
    n = draw(st.integers(min_value=3, max_value=5))
    names = [f"s{i}" for i in range(n)]
    downstream = {name: set() for name in names}
    for i in range(n - 1):
        # Every non-sink stage forwards to at least one later stage.
        successors = draw(st.sets(
            st.integers(min_value=i + 1, max_value=n - 1),
            min_size=1, max_size=2,
        ))
        downstream[names[i]] |= {names[j] for j in successors}
    covered = {names[0]} | {
        dst for dsts in downstream.values() for dst in dsts
    }
    for i in range(1, n):
        # Single entry: every interior stage needs a predecessor.
        if names[i] not in covered:
            downstream[names[i - 1]].add(names[i])
    for i in range(n - 1):
        # Single sink: anything that drained into nothing re-routes
        # to the last stage.
        if not downstream[names[i]]:
            downstream[names[i]].add(names[n - 1])
    stages = tuple(
        WorkflowStage(
            name, model="mnist", downstream=tuple(sorted(downstream[name]))
        )
        for name in names
    )
    return WorkflowSpec(name="random", stages=stages, end_to_end_slo_s=0.5)


class TestWorkflowConservationProperty:
    @settings(max_examples=8, deadline=None)
    @given(st.data())
    def test_random_dag_conserves_stage_requests(self, data):
        """Token conservation across random DAGs: the strict invariant
        audit (stage-request conservation across edges, join-barrier
        soundness, arrived+spawned ledger) runs every control tick and
        raises on any leak."""
        workflow = _random_dag(data.draw)
        experiment = Experiment(
            platform="infless",
            servers=4,
            workflow=workflow,
            workload={workflow.entry: constant_trace(40.0, 8.0)},
            warmup_s=2.0,
            invariants="strict",
            seed=11,
        )
        report = experiment.run()
        assert not experiment.simulation.workflow_ledger.barriers
        counts = report.workflows
        assert counts["started"] >= counts["completed"]
