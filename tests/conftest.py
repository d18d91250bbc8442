"""Shared fixtures.

The COP predictor profiles the whole operator catalog over the
configuration grid; it is deterministic, so tests share one
session-scoped instance.
"""

import pytest
from hypothesis import settings

from repro.cluster import build_testbed_cluster
from repro.invariants import set_default_mode
from repro.profiling import GroundTruthExecutor, build_default_predictor

# Property tests must be as reproducible as the simulations they
# exercise: derandomise hypothesis so every run draws the same cases.
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def strict_invariants():
    """Every simulation a test drives runs under the strict audit.

    ``ServingSimulation(..., invariants=None)`` resolves the process
    default, so no test needs to opt in; a violation raises a typed
    ``InvariantViolation`` and fails the test that triggered it.
    """
    previous = set_default_mode("strict")
    yield
    set_default_mode(previous)


@pytest.fixture(scope="session")
def predictor():
    return build_default_predictor()


@pytest.fixture(scope="session")
def executor():
    return GroundTruthExecutor()


@pytest.fixture()
def cluster():
    return build_testbed_cluster()
