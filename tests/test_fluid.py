"""Tests for the continuous-time fluid engine and the hybrid split."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment
from repro.core import FunctionSpec
from repro.fluid import FluidSimulation, HybridSimulation
from repro.fluid.hybrid import partition_functions
from repro.fluid.validate import (
    ENVELOPE_SCHEMA,
    FIG12_VALIDATION_RPS,
    GOODPUT_BOUND,
    P99_BOUND,
    fig12_experiment,
    load_envelope,
)
from repro.invariants import InvariantChecker
from repro.workloads import Trace, build_osvt, constant_trace
from repro.workloads.generators import bursty_trace

from tests.goldens import assert_golden


def _osvt_experiment(engine="fluid", hot_k=1, mean_rps=120.0,
                     duration_s=40.0, platform="infless", **kwargs):
    app = build_osvt()
    trace = bursty_trace(
        mean_rps, duration_s, period_s=duration_s,
        burst_rate_per_hour=30.0, burst_duration_s=10.0, seed=22,
    )
    return Experiment(
        platform=platform,
        functions=app.functions,
        workload={
            name: trace.with_mean(rps)
            for name, rps in app.rps_split(trace.mean_rps).items()
        },
        warmup_s=5.0,
        engine=engine,
        hot_k=hot_k,
        seed=5,
        **kwargs,
    )


def _report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class _ActiveCounts(InvariantChecker):
    """The strict audit, also keeping each step's active-instance count."""

    def __init__(self):
        super().__init__("strict")
        self.active = []

    def check_fluid_tick(self, name, ledger, now):
        self.active.append(ledger["active"])
        super().check_fluid_tick(name, ledger, now)


class TestFluidEngine:
    def test_falling_load_scales_in_and_conserves(self):
        """When the load falls, the dispatcher's case (iii) retires
        instances into the warm pool, and the flow ledger still
        balances: at every step (the strict audit) and at the end."""
        function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
        rps = np.concatenate([np.full(20, 600.0), np.full(40, 30.0)])
        audit = _ActiveCounts()
        simulation = FluidSimulation(
            functions=[function],
            workload={function.name: Trace("falling", 1.0, rps)},
            invariants=audit,
            rate_mode="oracle",
        )
        simulation.run()
        fluid = simulation.fluids[function.name]
        peak = max(audit.active)
        assert audit.active[-1] < peak
        assert len(fluid.active) + len(fluid.warm_pool) >= peak
        ledger = fluid.ledger()
        assert ledger["arrived"] == pytest.approx(
            ledger["served"] + ledger["dropped"] + ledger["queued"]
        )
        assert audit.violations == []

    def test_deterministic_reports(self):
        first = _osvt_experiment().run()
        second = _osvt_experiment().run()
        assert _report_bytes(first) == _report_bytes(second)

    def test_serves_most_of_the_offered_load(self):
        report = _osvt_experiment().run()
        assert report.completed > 0
        assert report.achieved_rps == pytest.approx(120.0, rel=0.15)
        assert 0.0 <= report.violation_rate <= 1.0

    def test_strict_invariants_pass(self):
        # conftest's autouse fixture makes invariants=None resolve to
        # strict, so a clean run *is* the flow-conservation audit.
        report = _osvt_experiment().run()
        assert not report.invariant_violations

    def test_effective_events_counts_request_flow(self):
        experiment = _osvt_experiment()
        report = experiment.run()
        effective = experiment.simulation.effective_events
        # arrivals + completions + drops: at least twice the completed.
        assert effective >= 2 * report.completed

    def test_oracle_rate_mode_plumbed(self):
        experiment = _osvt_experiment(rate_mode="oracle")
        experiment.run()
        fluids = experiment.simulation.fluids
        assert fluids and all(
            fluid.rate_mode == "oracle" for fluid in fluids.values()
        )


class TestHybridEngine:
    def test_partition_is_deterministic_and_ranked(self):
        workload = {
            "a": constant_trace(10.0, 30.0),
            "b": constant_trace(50.0, 30.0),
            "c": constant_trace(30.0, 30.0),
        }
        hot, cold = partition_functions(workload, 2)
        assert hot == ["b", "c"]
        assert cold == ["a"]
        with pytest.raises(ValueError):
            partition_functions(workload, -1)

    def test_full_coverage_is_partition_invariant(self):
        # When K covers every function the merged report must be
        # byte-identical for any threshold: the merge fold does not
        # depend on where the partition fell.
        reports = [
            _osvt_experiment(engine="hybrid", hot_k=hot_k).run()
            for hot_k in (4, 99)
        ]
        assert _report_bytes(reports[0]) == _report_bytes(reports[1])

    def test_mixed_partition_merges_both_sides(self):
        experiment = _osvt_experiment(engine="hybrid", hot_k=1)
        report = experiment.run()
        hybrid = experiment.simulation
        assert len(hybrid.hot) == 1 and len(hybrid.cold) == 2
        assert hybrid.fluid is not None
        assert report.completed > 0


class TestExperimentIntegration:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            _osvt_experiment(engine="quantum")

    def test_negative_hot_k_rejected(self):
        with pytest.raises(ValueError, match="hot_k"):
            _osvt_experiment(engine="hybrid", hot_k=-1)

    def test_non_infless_platform_rejected(self):
        with pytest.raises(ValueError, match="INFless"):
            _osvt_experiment(platform="openfaas+").run()

    def test_discrete_only_features_rejected(self):
        from repro.faults import FaultPlan, ServerCrash

        with pytest.raises(ValueError, match="faults"):
            _osvt_experiment(
                faults=FaultPlan(events=(ServerCrash(at_s=5.0, server_id=0),)),
            ).run()

    def test_windowed_arrivals_rejected(self):
        with pytest.raises(ValueError, match="windowed"):
            _osvt_experiment(arrival_mode="windowed").run()

    def test_spec_round_trip_preserves_engine(self):
        spec = _osvt_experiment(engine="hybrid", hot_k=2).to_spec()
        assert spec["engine"] == "hybrid" and spec["hot_k"] == 2
        rebuilt = Experiment.from_spec(spec)
        assert rebuilt.engine == "hybrid" and rebuilt.hot_k == 2
        assert rebuilt.to_spec() == spec

    def test_default_spec_omits_engine_keys(self):
        # Campaign resume is content-addressed on the spec: a DES
        # experiment must hash exactly as it did before the fluid
        # engine existed.
        spec = _osvt_experiment(engine="des").to_spec()
        assert "engine" not in spec and "hot_k" not in spec


class TestValidationEnvelope:
    def test_published_artifact_within_bounds(self):
        payload = load_envelope()
        assert payload["schema"] == ENVELOPE_SCHEMA
        envelope = payload["envelope"]
        assert envelope["within_bounds"] is True
        assert envelope["goodput_rel_err_max"] <= GOODPUT_BOUND
        assert envelope["p99_rel_err_max"] <= P99_BOUND
        rps_points = [point["rps"] for point in payload["points"]]
        assert rps_points == list(FIG12_VALIDATION_RPS)
        for point in payload["points"]:
            assert point["goodput_rel_err"] <= GOODPUT_BOUND
            assert point["p99_rel_err"] <= P99_BOUND

    def test_artifact_records_oracle_mode(self):
        payload = load_envelope()
        assert payload["config"]["rate_mode"] == "oracle"

    @settings(max_examples=6, deadline=None)
    @given(
        mean_rps=st.floats(min_value=60.0, max_value=240.0),
        duration_s=st.floats(min_value=30.0, max_value=50.0),
    )
    def test_fluid_goodput_tracks_des(self, mean_rps, duration_s):
        # The property the published envelope licenses: on randomized
        # small Fig. 12-shaped configs the fluid goodput stays within
        # the artifact's tolerance of the discrete ground truth.
        rtol = load_envelope()["envelope"]["property_goodput_rtol"]
        des = fig12_experiment(
            mean_rps, duration_s, engine="des",
            warmup_s=5.0, rate_mode="oracle",
        ).run()
        fluid = fig12_experiment(
            mean_rps, duration_s, engine="fluid",
            warmup_s=5.0, rate_mode="oracle",
        ).run()
        assert fluid.goodput_rps == pytest.approx(
            des.goodput_rps, rel=rtol
        )


class TestPinnedReports:
    """The fluid and hybrid (``hot_k=1``) reports on the Fig. 12 config
    in both rate modes: the capacity ladder's rows and the DES side's
    Algorithm 1 rows, byte for byte."""

    @pytest.mark.parametrize("engine, rate_mode", [
        ("fluid", "measured"), ("fluid", "oracle"),
        ("hybrid", "measured"), ("hybrid", "oracle"),
    ])
    def test_report_digest(self, engine, rate_mode):
        report = fig12_experiment(
            300.0, 60.0, engine=engine, hot_k=1, warmup_s=5.0,
            rate_mode=rate_mode,
        ).run()
        assert_golden(f"fluid.{engine}-{rate_mode}", report.to_dict())


class TestBenchIntegration:
    def test_store_records_fluid_speedup(self):
        from repro.bench import load_store

        store = load_store()
        entries = [
            entry for entry in store["entries"]
            if "fig12_fluid" in entry["results"]
            and "fig12_trace" in entry["results"]
            and not entry.get("quick", False)
        ]
        assert entries, "no store entry with the fluid macro benchmark"
        latest = entries[-1]
        fluid = latest["results"]["fig12_fluid"]["events_per_s"]
        des = latest["results"]["fig12_trace"]["events_per_s"]
        assert fluid >= 100.0 * des

    def test_fluid_benchmarks_registered(self):
        from repro.bench.suites import BENCHMARKS, MACRO_BENCHMARKS, \
            MICRO_BENCHMARKS

        assert "fluid_step" in MICRO_BENCHMARKS
        assert "fig12_fluid" in MACRO_BENCHMARKS
        assert "fluid_step" in BENCHMARKS and "fig12_fluid" in BENCHMARKS


class TestCli:
    def test_simulate_fluid_engine(self, capsys, predictor):
        from repro.cli import main

        assert main(
            ["simulate", "--model", "resnet-50", "--rps", "60",
             "--duration", "20", "--slo-ms", "200", "--engine", "fluid"]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO violations" in out

    def test_simulate_fluid_rejection_is_graceful(self, capsys, predictor):
        from repro.cli import main

        assert main(
            ["simulate", "--model", "resnet-50", "--rps", "60",
             "--duration", "20", "--slo-ms", "200", "--engine", "fluid",
             "--platform", "openfaas+"]
        ) == 1
        err = capsys.readouterr().err
        assert "cannot run" in err

    def test_fluid_validate_quick(self, capsys, predictor):
        from repro.cli import main

        assert main(["fluid-validate", "--quick", "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert "envelope:" in out and "goodput" in out

    def test_fluid_validate_json_to_file(self, capsys, predictor, tmp_path):
        from repro.cli import main

        target = tmp_path / "envelope.json"
        assert main(
            ["fluid-validate", "--quick", "--points", "300",
             "--out", str(target), "--output", "json"]
        ) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == ENVELOPE_SCHEMA
        assert [p["rps"] for p in payload["points"]] == [300.0]
