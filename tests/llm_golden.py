"""The seeded golden scenario pinning the LLM runtime's exact output.

Companion to ``tests/golden_scenarios.py`` for the autoregressive
runtime: one report, fixed seed, full float precision, compared
bit-identically by ``tests/test_llm_determinism.py``.  The fixture in
``tests/data/golden_llm_report.json`` was generated when the
``repro.llm`` subsystem landed; a divergence means a later change
altered continuous-batching behaviour (RNG stream consumption, step
planning order, KV accounting) rather than just its speed.

Regenerate only for a deliberate behaviour change, and say so in the
commit message::

    PYTHONPATH=src python -m tests.llm_golden --write
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

GOLDEN_LLM_PATH = Path(__file__).parent / "data" / "golden_llm_report.json"


def scenario_llm_continuous() -> Dict:
    """Continuous batching with swap preemption under a tight KV cap.

    The cap forces the full machinery through the run -- prefill
    packing, decode growth, swap-out/swap-in cycles -- so the golden
    covers the paths a refactor is most likely to disturb.
    """
    from repro.cluster import build_testbed_cluster
    from repro.core import FunctionSpec
    from repro.llm import ContinuousBatchingLLM, LLMSimulation
    from repro.workloads import constant_trace

    function = FunctionSpec.for_model("llm-125m", slo_s=0.5)
    platform = ContinuousBatchingLLM(
        build_testbed_cluster(num_servers=2),
        admission="fcfs",
        max_kv_tokens=2000,
        tpot_slo_s=0.05,
    )
    platform.deploy(function)
    simulation = LLMSimulation(
        platform=platform,
        workload={function.name: constant_trace(15.0, 12.0)},
        invariants="strict",
        seed=11,
    )
    return simulation.run().to_dict()


def main() -> None:
    """Regenerate the golden LLM fixture file."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", action="store_true",
        help="overwrite tests/data/golden_llm_report.json",
    )
    args = parser.parse_args()
    payload = scenario_llm_continuous()
    if args.write:
        GOLDEN_LLM_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_LLM_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {GOLDEN_LLM_PATH}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
