"""Session fixtures shared by all benchmarks."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.invariants import set_default_mode
from repro.profiling import GroundTruthExecutor, build_default_predictor


@pytest.fixture(scope="session", autouse=True)
def strict_invariants():
    """Every paper run is audited as tier-1 runs are.

    A violated invariant raises and fails the benchmark that
    triggered it.
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
