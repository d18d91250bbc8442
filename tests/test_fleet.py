"""Tests for the heterogeneous fleet layer.

Covers the declarative FleetSpec/GpuProfile API, generation-aware
latency prediction, the HAS-GPU-style hybrid auto-scaler, the
Torpor-style swap keep-alive policy, the cost/SLO fleet-mix frontier,
and determinism of mixed-generation runs.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment
from repro.campaign import CampaignSpec, run_campaign
from repro.cluster import Cluster, ResourceVector, build_testbed_cluster
from repro.cluster.fleet import (
    A100,
    DEFAULT_GPU_PROFILE,
    GPU_PROFILES,
    RTX_2080TI,
    T4,
    FleetSpec,
    GpuProfile,
    ServerGroup,
    profile_map,
    resolve_gpu_profile,
    server_gpu_profile,
)
from repro.cluster.resources import GPU_UNIT_GFLOPS
from repro.cluster.server import AllocationError, Server
from repro.core import FunctionSpec
from repro.core.scheduler import GreedyScheduler
from repro.models import get_model
from repro.profiling import GroundTruthExecutor, LatencyPredictor
from repro.workloads import constant_trace
from repro.workloads.trace import Trace

RESNET = "resnet-50"


def ramp_trace(low=60.0, high=480.0, steps=8, step_len=10):
    """A staircase load ramp that forces repeated scale-up decisions."""
    rps = np.repeat(np.linspace(low, high, steps), step_len)
    return Trace(name="ramp", step_s=1.0, rps=rps)


def dip_trace(high=300.0, low=0.5, high_len=30, low_len=60):
    """High load, a deep idle valley, then the load returns."""
    rps = np.concatenate([
        np.full(high_len, high), np.full(low_len, low), np.full(high_len, high),
    ])
    return Trace(name="dip", step_s=1.0, rps=rps)


def run_experiment(fn, trace, **kwargs):
    kwargs.setdefault("platform", "infless")
    kwargs.setdefault("warmup_s", 5.0)
    kwargs.setdefault("invariants", "strict")
    kwargs.setdefault("seed", 11)
    experiment = Experiment(
        functions=[fn], workload={fn.name: trace}, **kwargs
    )
    return experiment, experiment.run()


class TestGpuProfile:
    def test_presets_registered(self):
        assert set(GPU_PROFILES) == {"2080ti", "t4", "a100"}
        assert DEFAULT_GPU_PROFILE is RTX_2080TI

    def test_rate_ordering(self):
        assert T4.gflops_per_unit < RTX_2080TI.gflops_per_unit
        assert RTX_2080TI.gflops_per_unit < A100.gflops_per_unit

    def test_dict_round_trip(self):
        for profile in GPU_PROFILES.values():
            payload = json.loads(json.dumps(profile.to_dict()))
            assert GpuProfile.from_dict(payload) == profile

    def test_swap_in_delay_is_pcie_transfer_time(self):
        # 12 GB of weights over a 12 GB/s link = one second.
        assert RTX_2080TI.swap_in_delay_s(12 * 1024) == pytest.approx(1.0)
        # The A100's PCIe 4.0 link halves it.
        assert A100.swap_in_delay_s(12 * 1024) == pytest.approx(0.5)

    def test_resolve_by_name_object_and_dict(self):
        assert resolve_gpu_profile("a100") is A100
        assert resolve_gpu_profile(A100) is A100
        assert resolve_gpu_profile(A100.to_dict()) == A100

    def test_resolve_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown GPU profile"):
            resolve_gpu_profile("h100")

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            GpuProfile(name="bad", sm_units=0)
        with pytest.raises(ValueError):
            GpuProfile(name="bad", pcie_gbps=-1.0)


class TestFleetSpec:
    MIXED = FleetSpec(groups=(
        ServerGroup(count=1, gpu_profile="a100"),
        ServerGroup(count=2, gpu_profile="2080ti"),
        ServerGroup(count=1, gpus=0, cpu=32),
    ))

    def test_json_round_trip(self):
        payload = json.loads(json.dumps(self.MIXED.to_dict()))
        assert FleetSpec.from_dict(payload) == self.MIXED

    def test_coerce_accepts_path(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(self.MIXED.to_dict()))
        assert FleetSpec.coerce(str(path)) == self.MIXED

    def test_mixed_example_names_every_preset(self):
        spec = FleetSpec.coerce("examples/fleet_mixed.json")
        assert sorted(g.gpu_profile for g in spec.groups) == sorted(GPU_PROFILES)

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError):
            FleetSpec.coerce(42)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(groups=())

    def test_homogeneous_matches_testbed_cluster(self):
        """``Experiment(servers=N)`` and the FleetSpec shim agree."""
        from_fleet = FleetSpec.homogeneous(8).build_cluster()
        testbed = build_testbed_cluster(num_servers=8)
        assert from_fleet.beta == testbed.beta
        assert len(from_fleet.servers) == len(testbed.servers)
        for a, b in zip(from_fleet.servers, testbed.servers):
            assert a.cpu_capacity == b.cpu_capacity
            assert a.memory_capacity_mb == b.memory_capacity_mb
            assert a.num_gpus == b.num_gpus
            assert a.gpu_profile is None and b.gpu_profile is None

    def test_mixed_fleet_builds_expected_servers(self):
        cluster = self.MIXED.build_cluster()
        profiles = [server_gpu_profile(s).name for s in cluster.servers]
        assert profiles == ["a100", "2080ti", "2080ti", "2080ti"]
        assert cluster.servers[3].num_gpus == 0
        assert cluster.servers[3].cpu_capacity == 32

    def test_profile_map_empty_on_homogeneous(self):
        assert profile_map(FleetSpec.homogeneous(4).build_cluster()) == {}

    def test_profile_map_lists_non_default_generations(self):
        mapping = profile_map(self.MIXED.build_cluster())
        assert mapping == {0: A100}

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            ServerGroup(count=0)
        with pytest.raises(ValueError):
            ServerGroup(count=1, gpu_profile="nope")


class TestGenerationAwareLatency:
    CONFIG = dict(batch=8, cpu=2, gpu=20)

    def test_executor_orders_generations(self, executor):
        model = get_model(RESNET)
        t_a100 = executor.mean_execution_time(
            model, gpu_profile=A100, **self.CONFIG
        )
        t_base = executor.mean_execution_time(model, **self.CONFIG)
        t_t4 = executor.mean_execution_time(
            model, gpu_profile=T4, **self.CONFIG
        )
        assert t_a100 < t_base < t_t4

    def test_executor_default_profile_is_baseline_path(self, executor):
        model = get_model(RESNET)
        assert executor.mean_execution_time(
            model, gpu_profile=RTX_2080TI, **self.CONFIG
        ) == executor.mean_execution_time(model, **self.CONFIG)

    def test_predictor_orders_generations(self, predictor):
        t_a100 = predictor.predict(RESNET, gpu_profile=A100, **self.CONFIG)
        t_base = predictor.predict(RESNET, **self.CONFIG)
        t_t4 = predictor.predict(RESNET, gpu_profile=T4, **self.CONFIG)
        assert t_a100 < t_base < t_t4

    def test_predictor_default_profile_is_baseline_path(self, predictor):
        assert predictor.predict(
            RESNET, gpu_profile=RTX_2080TI, **self.CONFIG
        ) == predictor.predict(RESNET, **self.CONFIG)


class TestSameNamedGenerations:
    """Two generations that share a name but not a rate are two generations.

    Campaign workers share one process-wide predictor, so a fleet axis
    that sweeps a custom generation's rate under one name must not reuse
    the first cell's profiles or execution costs.
    """

    FAST = GpuProfile(name="custom", gflops_per_unit=2.0 * GPU_UNIT_GFLOPS)
    SLOW = GpuProfile(name="custom", gflops_per_unit=0.5 * GPU_UNIT_GFLOPS)
    CONFIG = dict(batch=8, cpu=2, gpu=50)

    def test_predictor_profiles_each_rate(self, predictor):
        shared = LatencyPredictor(predictor.database)
        fast = shared.predict(RESNET, gpu_profile=self.FAST, **self.CONFIG)
        slow = shared.predict(RESNET, gpu_profile=self.SLOW, **self.CONFIG)
        fresh = LatencyPredictor(predictor.database).predict(
            RESNET, gpu_profile=self.SLOW, **self.CONFIG
        )
        assert slow == fresh
        assert fast < slow

    def test_executor_prices_each_rate(self):
        model = get_model(RESNET)
        shared = GroundTruthExecutor()
        fast = shared.mean_execution_time(
            model, gpu_profile=self.FAST, **self.CONFIG
        )
        slow = shared.mean_execution_time(
            model, gpu_profile=self.SLOW, **self.CONFIG
        )
        assert slow == GroundTruthExecutor().mean_execution_time(
            model, gpu_profile=self.SLOW, **self.CONFIG
        )
        assert fast < slow

    def test_scheduler_rows_priced_per_rate(self, predictor):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.5)

        def rows(scheduler, profile):
            return [
                (config, t_exec)
                for config, t_exec, _bounds in scheduler.available_configs(
                    fn, 4, 1e6, gpu_profile=profile
                )
            ]

        shared = GreedyScheduler(build_testbed_cluster(), predictor)
        fast = rows(shared, self.FAST)
        slow = rows(shared, self.SLOW)
        assert slow == rows(
            GreedyScheduler(build_testbed_cluster(), predictor), self.SLOW
        )
        assert fast != slow

    def test_one_cluster_cannot_mix_them(self, predictor):
        servers = [
            Server(server_id=0, gpu_profile=self.FAST),
            Server(server_id=1, gpu_profile=self.SLOW),
        ]
        with pytest.raises(ValueError, match="named 'custom'"):
            GreedyScheduler(Cluster(servers=servers), predictor)


class TestMixedFleetServing:
    MIXED = {"groups": [
        {"count": 1, "gpu_profile": "a100"},
        {"count": 2, "gpu_profile": "2080ti"},
    ]}

    def test_serves_under_strict_invariants(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        _exp, report = run_experiment(
            fn, constant_trace(300.0, 40.0), fleet=self.MIXED
        )
        assert report.completed > 0
        assert report.violation_rate < 0.05

    def test_repeat_runs_bit_identical(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        reports = []
        for _ in range(2):
            _exp, report = run_experiment(
                fn, constant_trace(300.0, 30.0), fleet=self.MIXED,
                coldstart="swap", autoscaler="hybrid",
            )
            reports.append(json.dumps(report.to_dict(), sort_keys=True))
        assert reports[0] == reports[1]

    def test_fleet_spec_round_trips_through_experiment(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        experiment = Experiment(
            platform="infless", fleet=self.MIXED,
            coldstart="swap", autoscaler="hybrid",
            functions=[fn],
            workload={fn.name: constant_trace(50.0, 10.0)},
        )
        spec = experiment.to_spec()
        assert spec["fleet"] == FleetSpec.from_dict(self.MIXED).to_dict()
        assert spec["coldstart"] == "swap"
        assert spec["autoscaler"] == "hybrid"
        rebuilt = Experiment.from_spec(spec)
        assert rebuilt.fleet == FleetSpec.from_dict(self.MIXED)
        assert rebuilt.coldstart == "swap"
        assert rebuilt.autoscaler == "hybrid"

    def test_fleet_and_cluster_mutually_exclusive(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        with pytest.raises(ValueError, match="not both"):
            Experiment(
                platform="infless", fleet=self.MIXED,
                cluster=build_testbed_cluster(2),
                functions=[fn],
                workload={fn.name: constant_trace(50.0, 10.0)},
            )


class TestDefaultPathStability:
    """``Experiment(servers=N)`` keeps its pre-fleet spec bytes."""

    def test_default_spec_has_no_fleet_keys(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        spec = Experiment(
            platform="infless", servers=8, functions=[fn],
            workload={fn.name: constant_trace(50.0, 10.0)},
        ).to_spec()
        assert "fleet" not in spec
        assert "coldstart" not in spec
        assert "autoscaler" not in spec

    def test_default_spec_round_trips(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        spec = Experiment(
            platform="infless", servers=8, functions=[fn],
            workload={fn.name: constant_trace(50.0, 10.0)},
        ).to_spec()
        assert Experiment.from_spec(spec).to_spec() == spec


class TestHybridAutoscaler:
    def test_fewer_cold_starts_than_horizontal_on_ramp(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        stats = {}
        for scaler in ("horizontal", "hybrid"):
            exp, report = run_experiment(
                fn, ramp_trace(), servers=4, autoscaler=scaler
            )
            stats[scaler] = dataclasses.replace(exp.platform.autoscaler.stats)
            assert report.violation_rate < 0.05
        assert stats["hybrid"].vertical_resizes > 0
        assert stats["horizontal"].vertical_resizes == 0
        assert stats["hybrid"].cold_starts < stats["horizontal"].cold_starts

    def test_vertical_resize_emits_telemetry(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        exp, _report = run_experiment(
            fn, ramp_trace(), servers=4, autoscaler="hybrid", telemetry=True
        )
        resizes = [
            event for event in exp.tracer.events
            if event.kind == "vertical_resize"
        ]
        assert resizes
        for event in resizes:
            assert event.args["new_gpu"] > event.args["old_gpu"]
            assert event.args["r_up"] > 0


    #: the CI mixed fleet (resizes land on 2080ti servers) and an
    #: A100 + T4 fleet (every resize is priced for a non-default
    #: generation).
    PINS = {
        "examples/fleet_mixed.json": (
            "b8bce39ace453e9de731eafe99e5ee98578f914843ac7c7e2335e3446bf4b3f4"
        ),
        "a100+t4": (
            "43a6ff5d9f686594a79b457f956516d455922924e3d103b080570b410e268620"
        ),
    }

    @pytest.mark.parametrize("fleet", sorted(PINS))
    def test_ramp_report_digest(self, fleet):
        """The hybrid scaler's vertical resizes, byte for byte."""
        import hashlib

        spec = fleet if fleet.endswith(".json") else {"groups": [
            {"count": 1, "gpu_profile": "a100"},
            {"count": 1, "gpu_profile": "t4"},
        ]}
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        exp, report = run_experiment(
            fn, ramp_trace(), fleet=spec, autoscaler="hybrid"
        )
        assert exp.platform.autoscaler.stats.vertical_resizes > 0
        encoded = json.dumps(report.to_dict(), sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest() == self.PINS[fleet]


class TestSwapKeepAlive:
    def test_swap_reuse_beats_default_on_dip(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        stats = {}
        for coldstart in (None, "swap"):
            exp, _report = run_experiment(
                fn, dip_trace(), servers=4, coldstart=coldstart
            )
            stats[coldstart] = dataclasses.replace(exp.platform.autoscaler.stats)
        assert stats["swap"].swap_reuses >= 1
        assert stats["swap"].releases >= 1
        assert stats["swap"].cold_starts <= stats[None].cold_starts
        # Parked weights hold host RAM, not GPU quota.
        assert stats["swap"].reserved_idle_resource_s == 0.0

    def test_swap_ledger_returns_to_zero(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        exp, _report = run_experiment(
            fn, dip_trace(), servers=4, coldstart="swap"
        )
        cluster = exp.platform.cluster
        # Strict invariants already audited the ledger every tick; at
        # the end every reservation is either reclaimed or expired.
        for server in cluster.servers:
            assert server.swap_reserved_mb >= 0.0

    def test_host_ram_full_degrades_to_drop(self):
        server = Server(
            server_id=0, cpu_capacity=16,
            memory_capacity_mb=1024, num_gpus=2,
        )
        assert server.swap_reserve(800.0)
        assert not server.swap_reserve(800.0)  # would exceed host RAM
        server.swap_release(800.0)
        assert server.swap_reserved_mb == 0.0
        with pytest.raises(AllocationError):
            server.swap_release(1.0)

    def test_swap_reservation_blocks_placements(self):
        server = Server(
            server_id=0, cpu_capacity=16,
            memory_capacity_mb=1024, num_gpus=2,
        )
        assert server.swap_reserve(900.0)
        assert not server.can_fit(ResourceVector(cpu=1, gpu=10, memory_mb=512))


class TestFleetMixFrontier:
    """The mixed fleet reaches the paper's SLO bar with less metal."""

    def test_mixed_fleet_cheaper_at_equal_slo(self):
        fn = FunctionSpec.for_model(RESNET, slo_s=0.2)
        uniform = FleetSpec(groups=(
            ServerGroup(count=4, gpu_profile="2080ti"),
        ))
        mixed = FleetSpec(groups=(
            ServerGroup(count=1, gpu_profile="a100"),
            ServerGroup(count=2, gpu_profile="2080ti"),
        ))
        results = {}
        for label, fleet in (("uniform", uniform), ("mixed", mixed)):
            # Same explicit beta so Eq. 2 resource-time is weighted
            # identically on both fleets.
            _exp, report = run_experiment(
                fn, constant_trace(600.0, 60.0),
                cluster=fleet.build_cluster(beta=12.5),
                warmup_s=10.0, seed=3,
            )
            results[label] = report
        # Equal-or-better SLO attainment at the percent granularity
        # the paper reports (both fleets attain > 99.9%).
        assert (
            results["mixed"].violation_rate
            <= results["uniform"].violation_rate + 1e-3
        )
        assert results["mixed"].violation_rate < 0.01
        assert results["mixed"].goodput_rps == pytest.approx(
            results["uniform"].goodput_rps, rel=0.02
        )
        # 6 GPUs (2 of them A100) beat 8 uniform GPUs on resource cost.
        assert (
            results["mixed"].resource_time_weighted
            < 0.95 * results["uniform"].resource_time_weighted
        )


class TestFleetCampaignDeterminism:
    SPEC = {
        "schema": 1,
        "name": "fleet-determinism",
        "axes": {
            "platform": ["infless"],
            "model": ["mobilenet"],
            "trace": ["constant"],
            "rps": [40.0],
            "slo_ms": [150.0],
            "servers": [2],
            "fleet": [
                {"groups": [
                    {"count": 1, "gpu_profile": "a100"},
                    {"count": 1, "gpu_profile": "2080ti"},
                ]},
            ],
            "autoscaler": ["horizontal", "hybrid"],
        },
        "replicates": [0, 1],
        "root_seed": 5,
        "duration_s": 8.0,
        "warmup_s": 2.0,
    }

    def test_workers_do_not_change_fleet_campaign_bytes(self, tmp_path):
        spec = CampaignSpec.from_dict(self.SPEC)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial = run_campaign(spec, str(serial_dir), workers=1)
        parallel = run_campaign(spec, str(parallel_dir), workers=2)
        assert serial.ok and parallel.ok
        assert (serial_dir / "report.json").read_bytes() == (
            parallel_dir / "report.json"
        ).read_bytes()

    def test_optional_axes_only_when_named(self):
        spec = CampaignSpec.from_dict(self.SPEC)
        for cell in spec.cells():
            assert "fleet" in cell and "autoscaler" in cell
            assert "coldstart" not in cell
        plain = CampaignSpec.from_dict({
            **self.SPEC, "axes": {
                k: v for k, v in self.SPEC["axes"].items()
                if k not in ("fleet", "autoscaler")
            },
        })
        for cell in plain.cells():
            assert set(cell) == {
                "platform", "model", "trace", "rps", "slo_ms",
                "servers", "faults",
            }

    def test_unknown_axis_still_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign axes"):
            CampaignSpec.from_dict({
                **self.SPEC,
                "axes": {**self.SPEC["axes"], "nonsense": [1]},
            })

    def test_bad_optional_axis_values_rejected(self):
        with pytest.raises(ValueError, match="coldstart"):
            CampaignSpec.from_dict({
                **self.SPEC,
                "axes": {**self.SPEC["axes"], "coldstart": ["bogus"]},
            })
        with pytest.raises(ValueError, match="autoscaler"):
            CampaignSpec.from_dict({
                **self.SPEC,
                "axes": {**self.SPEC["axes"], "autoscaler": ["sideways"]},
            })


class TestResizeConservation:
    GPU_STEPS = (10, 20, 30, 40, 60, 80, 100)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_vertical_resize_conserves_free_gpu_total(self, data):
        """Resizes never mint or leak GPU quota units."""
        cluster = FleetSpec(groups=(
            ServerGroup(count=2, gpus=2, gpu_profile="a100"),
        )).build_cluster()
        capacity = cluster.free_gpu_total
        placements = []
        for _ in range(data.draw(st.integers(1, 4), label="allocs")):
            server = cluster.servers[data.draw(st.integers(0, 1))]
            resources = ResourceVector(
                cpu=1,
                gpu=data.draw(st.sampled_from(self.GPU_STEPS[:3])),
                memory_mb=512,
            )
            if server.can_fit(resources):
                placements.append(
                    cluster.allocate(server.server_id, resources)
                )
        for _ in range(data.draw(st.integers(1, 8), label="resizes")):
            if not placements:
                break
            index = data.draw(st.integers(0, len(placements) - 1))
            placement = placements[index]
            new_gpu = data.draw(st.sampled_from(self.GPU_STEPS))
            delta = new_gpu - placement.resources.gpu
            device = cluster.server(placement.server_id).gpus[
                placement.gpu_device_id
            ]
            if delta > device.free:
                continue  # infeasible growth; nothing must change
            placements[index] = cluster.resize_placement(
                placement,
                ResourceVector(cpu=1, gpu=new_gpu, memory_mb=512),
            )
            allocated = sum(p.resources.gpu for p in placements)
            assert cluster.free_gpu_total == capacity - allocated
            for server in cluster.servers:
                assert server.gpu_free >= 0
