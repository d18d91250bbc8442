"""Unit tests for the INFlessEngine facade."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import build_testbed_cluster
from repro.core import FunctionSpec, INFlessEngine


@pytest.fixture()
def engine(predictor):
    return INFlessEngine(build_testbed_cluster(), predictor=predictor)


@pytest.fixture()
def deployed(engine):
    fn = FunctionSpec.for_model("resnet-50", slo_s=0.2)
    engine.deploy(fn)
    return engine, fn


class TestDeployment:
    def test_deploy_and_lookup(self, deployed):
        engine, fn = deployed
        assert engine.function(fn.name) is fn
        assert fn in engine.functions

    def test_duplicate_deploy_rejected(self, deployed):
        engine, fn = deployed
        with pytest.raises(ValueError):
            engine.deploy(fn)

    def test_unknown_function_lookup(self, engine):
        with pytest.raises(KeyError, match="unknown function"):
            engine.function("ghost")


class TestControlPlane:
    def test_control_launches_capacity(self, deployed):
        engine, fn = deployed
        engine.control(fn.name, rps=400.0, now=0.0)
        assert engine.capacity_rps(fn.name) >= 400.0

    def test_control_scale_in(self, deployed):
        engine, fn = deployed
        engine.control(fn.name, rps=2000.0, now=0.0)
        many = len(engine.instances(fn.name))
        engine.control(fn.name, rps=50.0, now=10.0)
        assert len(engine.instances(fn.name)) <= many

    def test_record_invocation_feeds_policy(self, deployed):
        engine, fn = deployed
        engine.record_invocation(fn.name, 0.0)
        engine.record_invocation(fn.name, 5.0)
        histograms = engine.policy._histograms_for(fn.name)
        assert any(h.count(5.0) for h in histograms)

    def test_weighted_resources_in_use(self, deployed):
        engine, fn = deployed
        assert engine.cluster.weighted_used() == 0.0
        engine.control(fn.name, rps=400.0, now=0.0)
        assert engine.cluster.weighted_used() > 0.0


class TestRouting:
    def test_route_without_instances_returns_none(self, deployed):
        engine, fn = deployed
        assert engine.route(fn.name, now=0.0) is None

    def test_route_returns_dispatchable_instance(self, deployed):
        engine, fn = deployed
        engine.control(fn.name, rps=400.0, now=0.0)
        instance = engine.route(fn.name, now=0.0)
        assert instance is not None
        assert instance.is_dispatchable()

    def test_route_prefers_ready_instances(self, deployed):
        engine, fn = deployed
        engine.control(fn.name, rps=400.0, now=0.0)
        ready_time = fn.model.cold_start_s + 1.0
        engine.control(fn.name, rps=400.0, now=ready_time)
        # Force a second (cold) instance alongside the warm one.
        engine.control(fn.name, rps=1800.0, now=ready_time + 1.0)
        chosen = {engine.route(fn.name, ready_time + 1.0).instance_id
                  for _ in range(20)}
        ready_ids = {
            inst.instance_id
            for inst in engine.instances(fn.name)
            if inst.ready_at <= ready_time + 1.0
        }
        assert chosen <= ready_ids

    def test_route_weighted_by_assigned_rate(self, deployed):
        engine, fn = deployed
        engine.control(fn.name, rps=1500.0, now=0.0)
        instances = engine.instances(fn.name)
        if len(instances) < 2:
            pytest.skip("single instance covers the load")
        counts = {inst.instance_id: 0 for inst in instances}
        for _ in range(500):
            counts[engine.route(fn.name, 0.0).instance_id] += 1
        # Every instance with a positive share receives traffic.
        for inst in instances:
            if inst.assigned_rate > 1.0:
                assert counts[inst.instance_id] > 0


class _Candidate:
    """The fields of an instance the router reads."""

    def __init__(self, assigned_rate: float, ready_at: float) -> None:
        self.assigned_rate = assigned_rate
        self.ready_at = ready_at


class _Pool:
    """An autoscaler as the router sees it: a version and a route pool.

    ``route_pool`` follows ``AutoScaler.route_pool``: ready candidates,
    else cold-starting ones, else None; valid until the next pending
    ``ready_at``.  ``replace`` is a control step: new pool, new version.
    """

    def __init__(self) -> None:
        self.version = 0
        self.candidates = []

    def replace(self, candidates) -> None:
        self.candidates = candidates
        self.version += 1

    def route_pool(self, name, now):
        valid_until = min(
            (c.ready_at for c in self.candidates if c.ready_at > now),
            default=float("inf"),
        )
        if not self.candidates:
            return None, valid_until
        ready = [c for c in self.candidates if now >= c.ready_at]
        return ready or self.candidates, valid_until


def _scalar_pick(pool, name, now, rng):
    """The reference router: a fresh CDF and one scalar draw per pick."""
    candidates, _valid_until = pool.route_pool(name, now)
    if candidates is None:
        return None
    weights = np.array([max(c.assigned_rate, 1e-9) for c in candidates])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return candidates[int(cdf.searchsorted(rng.random(), side="right"))]


_POOLS = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-3, 500.0)),  # assigned rate
        st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),  # cold-start delay
    ),
    max_size=8,
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("control"), _POOLS),
        st.tuples(
            st.just("route"), st.integers(1, 400), st.floats(0.0, 0.02)
        ),
    ),
    max_size=12,
)


class TestRouterStream:
    """``route`` picks exactly what one scalar draw per request picks.

    The reference inverts ``Generator(seed).random()`` through a CDF
    rebuilt on every pick, so the pin holds however the router caches
    its CDF or buffers its uniforms.  Each run ends with more than
    1024 routed requests, so any draw buffer of that size refills.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=_STEPS)
    def test_picks_match_scalar_reference(self, predictor, seed, steps):
        engine = INFlessEngine(
            build_testbed_cluster(), predictor=predictor, seed=seed
        )
        pool = _Pool()
        engine.autoscaler = pool
        reference = np.random.default_rng(seed)
        steps = steps + [
            ("control", [(120.0, 0.0), (40.0, 0.5), (0.0, 0.0)]),
            ("route", 1100, 0.001),
        ]
        now, draws = 0.0, 0
        for step in steps:
            if step[0] == "control":
                pool.replace([
                    _Candidate(rate, now + delay) for rate, delay in step[1]
                ])
                continue
            _kind, count, gap = step
            for _ in range(count):
                expected = _scalar_pick(pool, "f", now, reference)
                assert engine.route("f", now) is expected
                draws += expected is not None
                now += gap
        assert draws > 1024
