"""Shared fixtures, and the ``--update-goldens`` flag.

The COP predictor profiles the whole operator catalog over the
configuration grid; it is deterministic, so tests share one
session-scoped instance.
"""

import pytest
from hypothesis import settings

from repro.cluster import build_testbed_cluster
from repro.invariants import set_default_mode
from repro.profiling import GroundTruthExecutor, build_default_predictor

from tests.goldens import STORE

# Property tests must be as reproducible as the simulations they
# exercise: derandomise hypothesis so every run draws the same cases.
settings.register_profile("repro", derandomize=True)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true",
        help="rewrite tests/data/goldens/ entries whose value moved,"
        " instead of failing on them",
    )


def pytest_configure(config):
    STORE.update = config.getoption("--update-goldens")


def pytest_terminal_summary(terminalreporter):
    if STORE.update:
        terminalreporter.write_line(
            f"goldens rewritten ({len(STORE.changed)}):"
            f" {', '.join(STORE.changed) or '-'}"
        )


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
