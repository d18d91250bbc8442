"""Metamorphic relations: checks that need no stored answer.

A golden report shows that an output did not move.  A relation between
two runs that differ in one input checks behaviour instead: it states
how the report must change, whatever its numbers are.  Every run here
is resnet-50 at a 200 ms SLO on a constant trace, 20 s with 5 s of
warmup, under strict invariants.  The Algorithm 1 row relations at the
end need no run: they compare the candidate rows of two inputs.
"""

import functools

import pytest

from repro.api import Experiment
from repro.cluster import FleetSpec, build_testbed_cluster
from repro.cluster.fleet import A100, T4
from repro.core import FunctionSpec, GreedyScheduler
from repro.core.scheduler import feasible_rows
from repro.models.zoo import list_models
from repro.profiling.configspace import ConfigSpace
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


def configs_of(rows):
    return [row[0] for row in rows]


def test_looser_slo_never_removes_a_feasible_row(predictor):
    """Eq. 1: ``t_exec <= t_slo`` (b = 1) and ``t_exec <= t_slo/2``
    (b > 1) only get easier as the SLO grows."""
    space = ConfigSpace()
    grew = 0
    for model in list_models():
        for batch in space.batches():
            configs = list(space.configs_for_batch(batch))
            for profile in (None, T4, A100):
                previous = []
                for slo_s in (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.8):
                    rows = configs_of(
                        feasible_rows(predictor, model, slo_s, configs, profile)
                    )
                    assert set(previous) <= set(rows), (model.name, batch, slo_s)
                    grew += len(rows) > len(previous)
                    previous = rows
    assert grew


def test_more_load_never_removes_an_available_row(predictor):
    """``AvailableConfig`` keeps a ``b > 1`` row once ``R_k >= r_low``,
    so raising the residual only adds rows (the batch floor included)."""
    scheduler = GreedyScheduler(build_testbed_cluster(), predictor)
    residuals = [0.0] + [2.0 ** k for k in range(-2, 15)]
    grew = 0
    for model in list_models():
        for slo_s in (0.05, 0.2, 0.4):
            function = FunctionSpec("f", model, slo_s)
            for batch in scheduler.config_space.batches():
                for profile in (None, T4, A100):
                    previous = []
                    for residual in residuals:
                        rows = configs_of(scheduler.available_configs(
                            function, batch, residual, gpu_profile=profile
                        ))
                        assert set(previous) <= set(rows), (
                            model.name, slo_s, batch, residual
                        )
                        grew += len(rows) > len(previous)
                        previous = rows
    assert grew
