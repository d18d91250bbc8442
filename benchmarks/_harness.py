"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it
computes the artifact's rows/series, prints them, and also writes them
to ``benchmarks/results/<name>.txt`` so the output survives pytest's
capture.  Discrete-event runs are declared as ``repro.api.Experiment``
objects and analytic ones build platforms by registry name with
``repro.api.make_platform``; ``conftest.py`` runs them all under strict
invariants.  CI re-runs the suite and fails when an artifact differs
from its checked-in copy; only ``*.walltime.txt`` files, which hold
wall-clock times, are skipped.  Refresh the artifacts on purpose with::

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only \\
        --ignore=benchmarks/e2e -q
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = "=" * max(8, len(name))
    block = f"\n{banner}\n{name}\n{banner}\n{text}\n"
    print(block)
    (RESULTS_DIR / f"{name}.txt").write_text(block)


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def split_trace(app, trace):
    """One trace per function of ``app``, by the app's rps shares."""
    return {
        name: trace.with_mean(rps)
        for name, rps in app.rps_split(trace.mean_rps).items()
    }
