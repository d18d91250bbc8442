"""Metamorphic relations: checks that need no stored answer.

A golden report shows that an output did not move.  A relation between
two runs that differ in one input checks behaviour instead: it states
how the report must change, whatever its numbers are.  Every run here
is resnet-50 at a 200 ms SLO on a constant trace, 20 s with 5 s of
warmup, under strict invariants.
"""

import functools

import pytest

from repro.api import Experiment
from repro.cluster import FleetSpec
from repro.core import FunctionSpec
from repro.profiling import build_default_predictor
from repro.workloads import constant_trace

DURATION_S = 20.0
WARMUP_S = 5.0


@functools.lru_cache(maxsize=None)
def run(platform, rps, servers=2, name="fn"):
    """One deterministic run; cached, since relations share endpoints."""
    function = FunctionSpec.for_model("resnet-50", slo_s=0.2, name=name)
    return Experiment(
        platform=platform,
        functions=[function],
        workload={name: constant_trace(rps, DURATION_S)},
        fleet=FleetSpec.homogeneous(servers),
        predictor=build_default_predictor(),
        invariants="strict",
        warmup_s=WARMUP_S,
    ).run()


def assert_relation(relation, change, **base):
    """Run ``base`` and ``base`` with ``change`` applied, then check.

    ``relation(before, after)`` takes the two reports and must hold.
    """
    before = run(**base)
    after = run(**{**base, **change})
    assert relation(before, after), (base, change)


def goodput_not_lower(before, after):
    return after.goodput_rps >= before.goodput_rps


def equal_up_to_name(before, after):
    """The reports match once the function's name is set aside."""
    first, second = before.to_dict(), after.to_dict()
    for report in (first, second):
        report["per_function_violation"] = list(
            report["per_function_violation"].values()
        )
    return first == second


@pytest.mark.parametrize("platform", ["infless", "openfaas+"])
@pytest.mark.parametrize("rps", [300.0, 1500.0])
def test_more_servers_never_lower_goodput(platform, rps):
    for small, large in ((2, 4), (4, 8)):
        assert_relation(
            goodput_not_lower, {"servers": large},
            platform=platform, rps=rps, servers=small,
        )


@pytest.mark.parametrize("platform", ["infless", "openfaas+", "batch"])
def test_renaming_the_function_leaves_the_report_equal(platform):
    assert_relation(
        equal_up_to_name, {"name": "renamed"}, platform=platform, rps=300.0
    )
