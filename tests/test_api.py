"""The Experiment facade: parity with manual setup, registry."""

import json

import pytest

from repro.api import PLATFORMS, Experiment, make_platform
from repro.baselines import BatchOTP, OpenFaaSPlus
from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine
from repro.faults import FaultPlan, ResiliencePolicy, ServerCrash
from repro.simulation import ServingSimulation
from repro.workloads import constant_trace


def _report_dict(report):
    return json.loads(json.dumps(report.to_dict(), sort_keys=True))


class TestMakePlatform:
    def test_registry_names(self):
        assert set(PLATFORMS) == {
            "infless", "openfaas+", "batch", "batch+rs",
            "llm", "llm-static", "llm-fcfs",
        }

    def test_builds_each_platform(self, predictor):
        for name, cls in PLATFORMS.items():
            platform = make_platform(
                name, build_testbed_cluster(num_servers=2), predictor
            )
            assert isinstance(platform, cls)
            assert platform.name == name

    def test_unknown_name_lists_choices(self, predictor):
        with pytest.raises(KeyError, match="registered: batch"):
            make_platform("knative", build_testbed_cluster(), predictor)

    def test_options_forwarded(self, predictor):
        platform = make_platform(
            "openfaas+",
            build_testbed_cluster(num_servers=2),
            predictor,
            keepalive_s=42.0,
            seed=9,
        )
        assert platform.keepalive_s == 42.0

    def test_constructors_are_keyword_only(self, predictor):
        cluster = build_testbed_cluster(num_servers=2)
        with pytest.raises(TypeError):
            INFlessEngine(cluster, predictor, "a-name")
        with pytest.raises(TypeError):
            OpenFaaSPlus(cluster, predictor, "a-name")
        with pytest.raises(TypeError):
            BatchOTP(cluster, predictor, "a-name")


class TestExperiment:
    def test_matches_manual_setup_bit_for_bit(self, predictor, executor):
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        workload = {fn.name: constant_trace(200.0, 30.0)}

        engine = INFlessEngine(
            build_testbed_cluster(num_servers=4), predictor=predictor
        )
        engine.deploy(fn)
        manual = ServingSimulation(
            platform=engine,
            executor=executor,
            workload=workload,
            warmup_s=5.0,
            seed=3,
        ).run()

        built = Experiment(
            platform="infless",
            servers=4,
            predictor=predictor,
            functions=[fn],
            workload=workload,
            executor=executor,
            warmup_s=5.0,
            seed=3,
        ).run()

        assert _report_dict(built) == _report_dict(manual)

    def test_fault_plan_matches_manual_setup(self, predictor, executor):
        fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        workload = {fn.name: constant_trace(100.0, 20.0)}
        plan = FaultPlan(events=(ServerCrash(at_s=8.0, server_id=0),))

        engine = INFlessEngine(
            build_testbed_cluster(num_servers=2), predictor=predictor
        )
        engine.deploy(fn)
        manual = ServingSimulation(
            platform=engine,
            executor=executor,
            workload=workload,
            faults=plan,
            seed=6,
        ).run()

        built = Experiment(
            platform="infless",
            servers=2,
            predictor=predictor,
            functions=[fn],
            workload=workload,
            executor=executor,
            faults=plan,
            seed=6,
        ).run()

        assert not engine.cluster.server(0).healthy
        assert _report_dict(built) == _report_dict(manual)

    def test_accepts_prebuilt_platform_and_factory(self, predictor, executor):
        fn = FunctionSpec.for_model("mobilenet", slo_s=0.2)
        workload = {fn.name: constant_trace(50.0, 10.0)}
        prebuilt = OpenFaaSPlus(build_testbed_cluster(num_servers=2), predictor)
        from_object = Experiment(
            platform=prebuilt,
            functions=[fn],
            workload=workload,
            executor=executor,
            seed=4,
        ).run()
        from_factory = Experiment(
            platform=lambda c: OpenFaaSPlus(c, predictor),
            servers=2,
            functions=[fn],
            workload=workload,
            executor=executor,
            seed=4,
        ).run()
        assert _report_dict(from_object) == _report_dict(from_factory)

    def test_platform_options_rejected_for_prebuilt(self, predictor):
        prebuilt = OpenFaaSPlus(build_testbed_cluster(num_servers=2), predictor)
        experiment = Experiment(
            platform=prebuilt,
            workload={},
            platform_options={"keepalive_s": 1.0},
        )
        with pytest.raises(ValueError, match="platform_options"):
            experiment.build()

    def test_coerces_faults_resilience_and_telemetry(
        self, predictor, executor
    ):
        fn = FunctionSpec.for_model("mnist", slo_s=0.1)
        experiment = Experiment(
            platform="infless",
            servers=2,
            predictor=predictor,
            functions=[fn],
            workload={fn.name: constant_trace(20.0, 5.0)},
            executor=executor,
            faults={"events": [
                {"kind": "server_crash", "at_s": 2.0, "server_id": 1}
            ]},
            resilience=True,
            telemetry=True,
            timeline=True,
            seed=5,
        )
        report = experiment.run()
        assert isinstance(experiment.faults, FaultPlan)
        assert isinstance(experiment.resilience, ResiliencePolicy)
        assert experiment.tracer is not None
        assert experiment.tracer.events
        assert experiment.timeline is not None
        assert report.resilience is not None

    def test_build_is_idempotent(self, predictor, executor):
        fn = FunctionSpec.for_model("mnist", slo_s=0.1)
        experiment = Experiment(
            platform="infless",
            servers=2,
            predictor=predictor,
            functions=[fn],
            workload={fn.name: constant_trace(10.0, 2.0)},
            executor=executor,
        )
        assert experiment.build() is experiment.build()


class TestExperimentSpec:
    """to_spec/from_spec: the pure-data round-trip campaigns rely on."""

    @staticmethod
    def _experiment(**overrides):
        payload = dict(
            platform="infless",
            servers=2,
            functions=[FunctionSpec.for_model("mobilenet", slo_s=0.15)],
            workload={"fn-mobilenet": constant_trace(30.0, 8.0)},
            warmup_s=2.0,
            seed=11,
        )
        payload.update(overrides)
        return Experiment(**payload)

    def test_spec_round_trips_through_json(self):
        spec = self._experiment().to_spec()
        wire = json.loads(json.dumps(spec, sort_keys=True))
        assert Experiment.from_spec(wire).to_spec() == spec

    def test_spec_run_is_bit_identical(self):
        direct = self._experiment().run()
        respawned = Experiment.from_spec(self._experiment().to_spec()).run()
        assert _report_dict(direct) == _report_dict(respawned)

    def test_spec_carries_faults_and_resilience(self):
        experiment = self._experiment(
            faults=FaultPlan(events=(ServerCrash(at_s=4.0, server_id=0),)),
            resilience=True,
        )
        spec = experiment.to_spec()
        assert spec["faults"]["events"][0]["kind"] == "server_crash"
        assert spec["resilience"]["max_retries"] == 2
        rebuilt = Experiment.from_spec(spec)
        assert rebuilt.faults.events[0].at_s == 4.0
        assert rebuilt.to_spec() == spec

    def test_spec_rejects_live_objects(self, predictor, executor):
        prebuilt = OpenFaaSPlus(build_testbed_cluster(num_servers=2), predictor)
        with pytest.raises(ValueError, match="registry-name"):
            Experiment(platform=prebuilt, workload={}).to_spec()
        with pytest.raises(ValueError, match="predictor"):
            self._experiment(predictor=predictor).to_spec()
        with pytest.raises(ValueError, match="executor"):
            self._experiment(executor=executor).to_spec()

    def test_spec_rejects_unknown_schema(self):
        spec = self._experiment().to_spec()
        spec["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            Experiment.from_spec(spec)

    def test_spec_accepts_null_retired_keys(self):
        spec = self._experiment().to_spec()
        old = {**spec, "chains": None, "end_to_end_slo_s": None}
        assert Experiment.from_spec(old).to_spec() == spec

    @pytest.mark.parametrize("key, value", [
        ("chains", {"fn-mobilenet": "fn-mnist"}),
        ("end_to_end_slo_s", 0.4),
    ])
    def test_spec_rejects_retired_keys(self, key, value):
        spec = {**self._experiment().to_spec(), key: value}
        with pytest.raises(ValueError, match=rf"'{key}'.*workflow="):
            Experiment.from_spec(spec)
