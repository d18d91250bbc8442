"""Bit-identical determinism against pre-optimization golden reports.

Each seeded scenario below was captured *before* the hot-path
optimization pass (indexed heap, route caching, memoized lookups,
``__slots__``) as its ``scenario.<name>`` golden.  These tests prove
the optimizations are behaviour-preserving: every scenario must
reproduce its pre-optimization report **exactly**, down to the last
float bit (JSON round-tripping preserves doubles, so plain equality is
a bit-level comparison).

A failure here means an "optimization" changed simulation behaviour --
RNG stream consumption, float evaluation order, or tie-breaking.  Only
regenerate the goldens for a *deliberate* behaviour change, and say so
in the commit message (``tests/goldens.py`` has the command).
"""

from __future__ import annotations

import json
from typing import Callable, Dict

import pytest

from repro.baselines import BatchOTP, OpenFaaSPlus
from repro.cluster import build_testbed_cluster
from repro.cluster.fleet import FleetSpec, ServerGroup
from repro.core import FunctionSpec, INFlessEngine
from repro.faults import FaultPlan, InstanceKill, ServerCrash, ServerRecovery
from repro.profiling import GroundTruthExecutor, build_default_predictor
from repro.simulation import ServingSimulation
from repro.simulation.largescale import largescale_capacity, make_function_fleet
from repro.workloads import build_osvt, constant_trace
from repro.workloads.generators import bursty_trace

from tests.goldens import STORE, assert_golden


def _serving_report(
    platform_factory, workload, seed, warmup_s=0.0, faults=None,
    resilience=None,
):
    simulation = ServingSimulation(
        platform=platform_factory(),
        executor=GroundTruthExecutor(),
        workload=workload,
        warmup_s=warmup_s,
        invariants="strict",
        faults=faults,
        resilience=resilience,
        seed=seed,
    )
    return simulation.run().to_dict()


def _constant_workload():
    function = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    return function, {function.name: constant_trace(300.0, 60.0)}


def scenario_infless_constant() -> Dict:
    """INFless on the testbed, constant 300 RPS for 60 s."""
    function, workload = _constant_workload()

    def factory():
        engine = INFlessEngine(
            build_testbed_cluster(num_servers=8),
            predictor=build_default_predictor(),
        )
        engine.deploy(function)
        return engine

    return _serving_report(factory, workload, seed=1)


def scenario_infless_bursty_osvt() -> Dict:
    """INFless serving the OSVT app under a bursty trace."""
    app = build_osvt()
    trace = bursty_trace(
        300.0, 120.0, period_s=120.0, burst_rate_per_hour=30.0,
        burst_duration_s=30.0, seed=22,
    )
    workload = {
        name: trace.with_mean(rps)
        for name, rps in app.rps_split(trace.mean_rps).items()
    }

    def factory():
        engine = INFlessEngine(
            build_testbed_cluster(num_servers=8),
            predictor=build_default_predictor(),
        )
        for function in app.functions:
            engine.deploy(function)
        return engine

    return _serving_report(factory, workload, seed=5, warmup_s=10.0)


def scenario_infless_mixed_fleet() -> Dict:
    """INFless placing 8 bursty functions on a 2080ti/t4/a100 fleet.

    Every generation hosts GPU instances priced for it, and CPU-only
    instances land on any of them: the generation-aware side of
    Algorithm 1's placement.  Captured before the homogeneous and
    mixed-fleet Eq. 10 selectors were merged into one.
    """
    fleet = FleetSpec(groups=(
        ServerGroup(count=1, cpu=8, gpus=1, gpu_profile="2080ti"),
        ServerGroup(count=1, cpu=16, gpus=2, gpu_profile="t4"),
        ServerGroup(count=1, cpu=8, gpus=1, gpu_profile="a100"),
    ))
    functions = make_function_fleet(8)
    workload = {
        function.name: bursty_trace(
            200.0, 60.0, period_s=60.0, burst_rate_per_hour=30.0,
            burst_duration_s=30.0, seed=31 + index,
        )
        for index, function in enumerate(functions)
    }

    def factory():
        engine = INFlessEngine(
            fleet.build_cluster(), predictor=build_default_predictor()
        )
        for function in functions:
            engine.deploy(function)
        return engine

    return _serving_report(factory, workload, seed=9, warmup_s=10.0)


def scenario_batch_otp_constant() -> Dict:
    """The BATCH (OTP) baseline on the constant workload."""
    function, workload = _constant_workload()

    def factory():
        platform = BatchOTP(
            build_testbed_cluster(num_servers=8), build_default_predictor()
        )
        platform.deploy(function)
        return platform

    return _serving_report(factory, workload, seed=1)


def scenario_openfaas_constant() -> Dict:
    """The OpenFaaS+ baseline on the constant workload."""
    function, workload = _constant_workload()

    def factory():
        platform = OpenFaaSPlus(
            build_testbed_cluster(num_servers=8), build_default_predictor()
        )
        platform.deploy(function)
        return platform

    return _serving_report(factory, workload, seed=1)


def scenario_openfaas_faults() -> Dict:
    """OpenFaaS+ under crashes, a container kill and a recovery.

    Pins the baseline fault path: server-failure eviction, instance
    kill and re-dispatch of stranded requests under a resilience policy.
    """
    function, workload = _constant_workload()
    faults = FaultPlan(events=(
        ServerCrash(at_s=30.0, server_id=0),
        ServerCrash(at_s=30.0, server_id=1),
        InstanceKill(at_s=40.0, function=function.name),
        ServerRecovery(at_s=50.0, server_id=0),
    ))

    def factory():
        platform = OpenFaaSPlus(
            build_testbed_cluster(num_servers=8), build_default_predictor()
        )
        platform.deploy(function)
        return platform

    return _serving_report(
        factory, workload, seed=1, faults=faults, resilience=True
    )


def scenario_largescale_provisioning() -> Dict:
    """The Fig. 18 provisioning path: pure scheduler, no event loop."""
    predictor = build_default_predictor()
    result = largescale_capacity(
        lambda cluster: INFlessEngine(cluster, predictor=predictor),
        num_functions=12,
        num_servers=100,
        base_rps=800.0,
    )
    return {
        "platform": result.platform,
        "loads": dict(result.loads),
        "weighted_resources_used": result.weighted_resources_used,
        "fragment_ratio": result.fragment_ratio,
        "instances": result.instances,
        "throughput_per_resource": result.throughput_per_resource,
    }


SCENARIOS: Dict[str, Callable[[], Dict]] = {
    "infless_constant": scenario_infless_constant,
    "infless_bursty_osvt": scenario_infless_bursty_osvt,
    "infless_mixed_fleet": scenario_infless_mixed_fleet,
    "batch_otp_constant": scenario_batch_otp_constant,
    "openfaas_constant": scenario_openfaas_constant,
    "openfaas_faults": scenario_openfaas_faults,
    "largescale_provisioning": scenario_largescale_provisioning,
}


def test_golden_covers_every_scenario():
    assert STORE.names("scenario.") == sorted(
        f"scenario.{name}" for name in SCENARIOS
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_golden_bit_identically(name):
    assert_golden(f"scenario.{name}", SCENARIOS[name]())


def test_scenarios_are_repeatable_within_process():
    """Two in-process runs of one scenario agree exactly (no hidden state)."""
    first = json.loads(json.dumps(SCENARIOS["infless_constant"]()))
    second = json.loads(json.dumps(SCENARIOS["infless_constant"]()))
    assert first == second
