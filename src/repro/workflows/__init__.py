"""repro.workflows: DAG workflows with end-to-end SLO decomposition.

The pipeline-conscious layer over the INFless core: declarative
:class:`WorkflowSpec` DAGs (fan-out/fan-in over zoo models), ESG-style
decomposition of the end-to-end SLO into per-stage budgets feeding
Eq. 1, the :class:`CoPlacementHint` that keeps adjacent stages on
the same shareable GPU, and the :class:`WorkflowLedger` that follows a
run's tokens through the DAG.  See ``docs/workflows.md``.
"""

from repro.workflows.coplace import CoPlacementHint
from repro.workflows.decompose import (
    WORKFLOW_POLICIES,
    decompose_slo,
    predicted_stage_times,
)
from repro.workflows.ledger import WorkflowLedger
from repro.workflows.spec import (
    WORKFLOW_PRESETS,
    WorkflowSpec,
    WorkflowStage,
    build_preset_workflow,
    find_cycle,
)

__all__ = [
    "CoPlacementHint",
    "WORKFLOW_POLICIES",
    "WORKFLOW_PRESETS",
    "WorkflowLedger",
    "WorkflowSpec",
    "WorkflowStage",
    "build_preset_workflow",
    "decompose_slo",
    "find_cycle",
    "predicted_stage_times",
]
