"""The platform protocol the serving runtime drives.

INFless (:class:`~repro.core.engine.INFlessEngine`) and every baseline
implement this interface, so a single runtime replays the same traces
against all of them -- the apples-to-apples comparison the evaluation
needs.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

from repro.cluster.cluster import Cluster
from repro.core.autoscaler import ControlOutcome, InstanceRegistry
from repro.core.function import FunctionSpec
from repro.core.instance import Instance
from repro.core.scheduler import GreedyScheduler


@runtime_checkable
class ServingPlatform(Protocol):
    """What the runtime expects from a serving platform.

    Everything the runtime and the invariant audit consume is declared
    here: the ingress/queueing knobs (``ingress_delay_s``,
    ``waiting_batches``), the fault hooks
    (``on_server_failure``, ``kill_instance``), the
    audit's Eq. 1 check level, the instance ledger (``registry``) and
    the Algorithm 1 ``scheduler``, if any.
    Both read these attributes directly; a platform missing one fails
    loudly instead of silently skipping a check.

    Telemetry: platforms need not declare anything here, but when the
    runtime runs with a recording tracer it attaches the tracer to the
    platform (and to its ``autoscaler``/``policy`` components when
    present) via :func:`repro.telemetry.attach_tracer`, so control-plane
    decisions land in the same trace as the request lifecycle.
    """

    cluster: Cluster

    #: human-readable platform name used in reports and benchmarks.
    name: str

    #: ``"single_shot"`` (one execution per request) or
    #: ``"autoregressive"`` (token-level LLM serving, run by
    #: :class:`~repro.llm.simulation.LLMSimulation`); the compatibility
    #: table's platform-class column keys on it.
    workload_class: str

    #: fixed network/gateway delay added to every arrival (seconds).
    ingress_delay_s: float

    #: per-instance bounded batch-queue depth (Fig. 6a waiting rule).
    waiting_batches: int

    #: how far the audit re-derives each placed instance's Eq. 1 rate
    #: bounds: ``"exact"`` (they must match), ``"feasible"`` (the
    #: config must be SLO-feasible) or ``"none"`` (only ``r_up > 0``).
    invariant_slo_check: str

    #: the live instances, warm pool and scaling counters: INFless's
    #: autoscaler, or the uniform baseline platform itself.
    registry: InstanceRegistry

    #: INFless's Algorithm 1 scheduler, which workflow runs hand their
    #: co-placement hint; None on uniform-scaling platforms.
    scheduler: Optional[GreedyScheduler]

    def deploy(self, function: FunctionSpec) -> None:
        """Register a function before the simulation starts."""

    def function(self, name: str) -> FunctionSpec:
        """Look up a deployed function."""

    def control(self, name: str, rps: float, now: float) -> ControlOutcome:
        """One auto-scaling step for ``name`` at measured rate ``rps``.

        Returns what the step did: the instances it launched and
        reclaimed, and INFless's dispatch case (empty elsewhere). The
        outcome carries no wall-clock reading, so reports stay
        deterministic; Fig. 17(a) times the scheduler itself
        (:func:`~repro.simulation.largescale.scheduling_overhead_curve`).
        """

    def record_invocation(self, name: str, now: float) -> None:
        """Feed an invocation into cold-start bookkeeping."""

    def route(self, name: str, now: float) -> Optional[Instance]:
        """Pick the instance that should serve one request."""

    def instances(self, name: str) -> List[Instance]:
        """The function's currently active instances."""

    # -- fault hooks -----------------------------------------------------
    def on_server_failure(self, server_id: int, now: float) -> List[Instance]:
        """A machine died: evict its placements, return lost instances."""

    def kill_instance(self, name: str, now: float) -> Optional[Instance]:
        """Terminate one instance of ``name`` (container-crash fault)."""
