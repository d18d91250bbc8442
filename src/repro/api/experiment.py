"""The Experiment builder: one object, one serving run.

Replaces the copy-pasted setup blocks (build a cluster, build a
platform, deploy functions, construct a ``ServingSimulation`` with a
dozen keyword arguments) that used to live in every example, benchmark
and CLI path.  An :class:`Experiment` names each concern once --
platform, workload, faults, resilience, telemetry, invariants -- and
:meth:`Experiment.build`/:meth:`Experiment.run` assemble exactly the
same objects the manual code did, so seeded runs are bit-identical
either way.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, Iterable, Optional, Union

from repro.api.compatibility import ENGINES, check, requested_features
from repro.cluster.cluster import Cluster, build_testbed_cluster
from repro.cluster.fleet import FleetSpec
from repro.core.coldstart import COLDSTART_POLICIES
from repro.core.engine import INFlessEngine
from repro.core.function import FunctionSpec
from repro.baselines.batch_otp import BatchOTP
from repro.baselines.batch_rs import BatchRS
from repro.baselines.llm_fcfs import LLMFCFSBaseline
from repro.baselines.openfaas import OpenFaaSPlus
from repro.faults import FaultPlan, ResiliencePolicy
from repro.llm.engine import ContinuousBatchingLLM, StaticBatchLLM
from repro.llm.simulation import LLMSimulation
from repro.profiling.executor import GroundTruthExecutor
from repro.profiling.predictor import LatencyPredictor, build_default_predictor
from repro.simulation.metrics import SimulationReport
from repro.simulation.runtime import ServingSimulation
from repro.telemetry import InMemoryTracer, TimelineRecorder, Tracer
from repro.workflows import (
    WORKFLOW_POLICIES,
    CoPlacementHint,
    WorkflowSpec,
    decompose_slo,
)
from repro.workloads.trace import Trace

#: version tag of the :meth:`Experiment.to_spec` schema.
SPEC_SCHEMA = 1

#: registry name -> platform class; every entry follows the normalized
#: ``(cluster, predictor, *, name, seed, ...)`` constructor shape.
PLATFORMS: Dict[str, type] = {
    "infless": INFlessEngine,
    "openfaas+": OpenFaaSPlus,
    "batch": BatchOTP,
    "batch+rs": BatchRS,
    # Autoregressive (LLM) serving -- these run under LLMSimulation,
    # selected automatically by the platform's workload_class.
    "llm": ContinuousBatchingLLM,
    "llm-static": StaticBatchLLM,
    "llm-fcfs": LLMFCFSBaseline,
}


def make_platform(
    name: str,
    cluster: Cluster,
    predictor: Optional[LatencyPredictor] = None,
    **options: object,
):
    """Build a registered platform on ``cluster`` by its report name.

    ``options`` are forwarded to the platform's keyword-only
    constructor tail (``seed``, ``keepalive_s``, ``policy``, ...).
    """
    try:
        platform_cls = PLATFORMS[name]
    except KeyError:
        known = ", ".join(sorted(PLATFORMS))
        raise KeyError(
            f"unknown platform {name!r}; registered: {known}"
        ) from None
    if predictor is None:
        predictor = build_default_predictor()
    return platform_cls(cluster, predictor, **options)


def _fresh_if_true(value: object, make: Callable[[], object]) -> object:
    """``True`` -> a fresh ``make()``, ``False`` -> None, else ``value``."""
    if value is True:
        return make()
    return None if value is False else value


def _platform_class(platform: object) -> Optional[str]:
    """The platform's compatibility-table column; None until built.

    A factory's class (and an unregistered name's) is known only once
    :meth:`Experiment.build` resolves it.
    """
    if platform == "infless":
        return "infless"
    if isinstance(platform, str):
        registered = PLATFORMS.get(platform)
        return registered.workload_class if registered else None
    if callable(platform) and not hasattr(platform, "route"):
        return None
    return platform.workload_class


class Experiment:
    """A declarative serving experiment.

    Usage::

        report = Experiment(
            platform="infless",
            functions=[FunctionSpec.for_model("resnet-50", slo_s=0.2)],
            workload={"fn-resnet-50": constant_trace(300.0, 120.0)},
            faults="examples/chaos_plan.json",
            resilience=True,
            seed=1,
        ).run()

    Args:
        platform: a registry name (``"infless"``, ``"openfaas+"``,
            ``"batch"``, ``"batch+rs"``, or the autoregressive
            ``"llm"``, ``"llm-static"``, ``"llm-fcfs"``), a pre-built
            platform object, or a ``cluster -> platform`` factory
            callable.
        workload: function name -> arrival trace.
        functions: specs to deploy before the run; omit when the
            platform object already has its functions deployed.
        cluster: the cluster to run on; defaults to the paper's
            testbed shape with ``servers`` machines.  Ignored when
            ``platform`` is a pre-built object (it owns its cluster).
        servers: testbed size used when no cluster is given.
        fleet: a declarative :class:`~repro.cluster.fleet.FleetSpec`
            (or its dict form, or a path to a fleet JSON file)
            describing a possibly heterogeneous fleet; mutually
            exclusive with ``cluster``.  ``servers=N`` stays the
            homogeneous shorthand.
        coldstart: cold-start policy registry name (``"lsth"``,
            ``"swap"``, ``"fixed"``); forwarded to the platform.
        autoscaler: ``"horizontal"`` (default) or ``"hybrid"``
            (vertical SM-quota growth before scale-out); forwarded to
            the platform.
        predictor: shared latency predictor for registry platforms.
        platform_options: extra keyword arguments for the registry
            platform constructor (``seed``, ``keepalive_s``, ...).
        executor: ground-truth executor; defaults to a fresh one.
        faults: chaos scenario -- a :class:`FaultPlan`, its dict form,
            or a path to a plan JSON file.
        resilience: a :class:`ResiliencePolicy`, or True for defaults.
        telemetry: a tracer, or True for a fresh
            :class:`~repro.telemetry.InMemoryTracer` (exposed as
            ``experiment.tracer``).
        timeline: a recorder, or True for a fresh
            :class:`~repro.telemetry.TimelineRecorder`.
        invariants: audit mode (``"off"``/``"collect"``/``"strict"``)
            or a pre-built checker; None resolves the process default.
        workflow: a DAG :class:`~repro.workflows.WorkflowSpec` (or its
            dict form, a path to a workflow JSON file, or a preset name
            like ``"osvt"``).  Stage FunctionSpecs are synthesized from
            the DAG with per-stage SLO budgets decomposed from the
            end-to-end SLO; mutually exclusive with ``functions=``.
            A linear pipeline is a path-shaped workflow, and the
            workflow's ``end_to_end_slo_s`` is its only budget.
        workflow_policy: ``"decomposed"`` (default; ESG-style budget
            split plus the co-placement scheduling hint) or
            ``"independent"`` (every stage gets the full end-to-end
            budget, no co-placement -- the naive baseline).
        engine: ``"des"`` (default) replays every request through the
            discrete event loop; ``"fluid"`` integrates the
            continuous-time approximation
            (:class:`~repro.fluid.FluidSimulation`); ``"hybrid"``
            simulates the ``hot_k`` hottest functions discretely and
            routes the tail through the fluid path.  See
            ``docs/fluid-model.md`` for the accuracy envelope.
        hot_k: hybrid-mode partition size (ignored by other engines).

    The remaining keyword arguments mirror
    :class:`~repro.simulation.runtime.ServingSimulation` exactly.
    """

    def __init__(
        self,
        *,
        platform: Union[str, object, Callable[[Cluster], object]],
        workload: Dict[str, object],
        functions: Optional[Iterable[FunctionSpec]] = None,
        cluster: Optional[Cluster] = None,
        servers: int = 8,
        fleet: Union[None, FleetSpec, Dict[str, object], str] = None,
        coldstart: Optional[str] = None,
        autoscaler: str = "horizontal",
        predictor: Optional[LatencyPredictor] = None,
        platform_options: Optional[Dict[str, object]] = None,
        executor: Optional[GroundTruthExecutor] = None,
        faults: Union[None, FaultPlan, Dict[str, object], str] = None,
        resilience: Union[None, bool, ResiliencePolicy] = None,
        telemetry: Union[None, bool, Tracer] = None,
        timeline: Union[None, bool, TimelineRecorder] = None,
        invariants: Union[None, str, object] = None,
        warmup_s: float = 0.0,
        seed: int = 42,
        control_interval_s: float = 1.0,
        rate_mode: str = "measured",
        ewma: float = 0.6,
        pending_cap: int = 100_000,
        cold_queue_batches: int = 64,
        workflow: Union[None, WorkflowSpec, Dict[str, object], str] = None,
        workflow_policy: str = "decomposed",
        metrics_mode: str = "exact",
        arrival_mode: str = "eager",
        arrival_window_s: float = 60.0,
        engine: str = "des",
        hot_k: int = 1,
    ) -> None:
        self._platform_spec = platform
        self.workload = dict(workload)
        self.functions = list(functions) if functions is not None else None
        self._cluster = cluster
        self.servers = servers
        self.fleet = FleetSpec.coerce(fleet)
        if self.fleet is not None and cluster is not None:
            raise ValueError("pass either fleet= or cluster=, not both")
        if coldstart is not None and coldstart not in COLDSTART_POLICIES:
            known = ", ".join(COLDSTART_POLICIES)
            raise ValueError(
                f"unknown cold-start policy {coldstart!r} (known: {known})"
            )
        if autoscaler not in ("horizontal", "hybrid"):
            raise ValueError("autoscaler must be 'horizontal' or 'hybrid'")
        self.coldstart = coldstart
        self.autoscaler = autoscaler
        self.predictor = predictor
        self.platform_options = dict(platform_options or {})
        self.executor = executor
        self.faults = FaultPlan.coerce(faults)
        self.resilience = _fresh_if_true(resilience, ResiliencePolicy)
        self.tracer: Optional[Tracer] = _fresh_if_true(
            telemetry, InMemoryTracer
        )
        self.timeline: Optional[TimelineRecorder] = _fresh_if_true(
            timeline, TimelineRecorder
        )
        self.invariants = invariants
        self.warmup_s = warmup_s
        self.seed = seed
        self.control_interval_s = control_interval_s
        self.rate_mode = rate_mode
        self.ewma = ewma
        self.pending_cap = pending_cap
        self.cold_queue_batches = cold_queue_batches
        self.workflow = WorkflowSpec.coerce(workflow)
        if workflow_policy not in WORKFLOW_POLICIES:
            known = ", ".join(WORKFLOW_POLICIES)
            raise ValueError(
                f"unknown workflow policy {workflow_policy!r} (known: {known})"
            )
        self.workflow_policy = workflow_policy
        if self.workflow is not None and self.functions is not None:
            raise ValueError(
                "workflow= synthesizes its stage functions from the DAG"
                " (SLO decomposition); pass either workflow= or"
                " functions=, not both"
            )
        self.metrics_mode = metrics_mode
        self.arrival_mode = arrival_mode
        self.arrival_window_s = arrival_window_s
        if engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {engine!r}"
            )
        if hot_k < 0:
            raise ValueError("hot_k must be >= 0")
        self.engine = engine
        self.hot_k = hot_k
        self._features = requested_features(
            workload=self.workload, functions=self.functions,
            workflow=self.workflow, faults=self.faults,
            resilience=self.resilience, telemetry=self.tracer,
            timeline=self.timeline, metrics_mode=metrics_mode,
            arrival_mode=arrival_mode, fleet=self.fleet,
            coldstart=coldstart, autoscaler=autoscaler,
        )
        self._platform_class = _platform_class(platform)
        check(self.engine, self._platform_class, self._features)
        self.platform = None
        #: the scheduler's co-placement hint; its stats end ``workflows``.
        self._coplacement: Optional[CoPlacementHint] = None
        self.simulation: Union[None, ServingSimulation, LLMSimulation] = None
        self.report: Optional[SimulationReport] = None

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _default_cluster(self) -> Cluster:
        if self._cluster is not None:
            return self._cluster
        if self.fleet is not None:
            return self.fleet.build_cluster()
        return build_testbed_cluster(num_servers=self.servers)

    def _resolve_platform(self):
        spec = self._platform_spec
        if isinstance(spec, str):
            options = dict(self.platform_options)
            # Folded in only when non-default so baseline platforms
            # without the knobs keep constructing unchanged.
            if self.coldstart is not None:
                options["coldstart"] = self.coldstart
            if self.autoscaler != "horizontal":
                options["autoscaler"] = self.autoscaler
            return make_platform(
                spec, self._default_cluster(), self.predictor, **options
            )
        if callable(spec) and not hasattr(spec, "route"):
            return spec(self._default_cluster())
        if self.platform_options:
            raise ValueError(
                "platform_options only apply to registry-name platforms"
            )
        return spec

    def build(self) -> Union[ServingSimulation, LLMSimulation]:
        """Assemble (once) and return the underlying simulation.

        Autoregressive platforms (``workload_class ==
        "autoregressive"``) get the token-boundary
        :class:`~repro.llm.simulation.LLMSimulation`; everything else
        gets the single-shot :class:`ServingSimulation`.
        """
        if self.simulation is not None:
            return self.simulation
        if self.engine != "des":
            self.simulation = self._build_fluid_engine()
            return self.simulation
        self.platform = self._resolve_platform()
        if self.functions is not None:
            for function in self.functions:
                self.platform.deploy(function)
        if self._platform_class is None:
            # A factory's class is known only once it is called.
            check(self.engine, self.platform.workload_class, self._features)
        common = dict(
            platform=self.platform, workload=self.workload,
            control_interval_s=self.control_interval_s,
            warmup_s=self.warmup_s, tracer=self.tracer,
            timeline=self.timeline, invariants=self.invariants,
            faults=self.faults, resilience=self.resilience, seed=self.seed,
        )
        if self.platform.workload_class == "autoregressive":
            self.simulation = LLMSimulation(**common)
            return self.simulation
        if self.workflow is not None:
            for function in self._stage_functions():
                self.platform.deploy(function)
            scheduler = self.platform.scheduler
            if self.workflow_policy == "decomposed" and scheduler is not None:
                self._coplacement = CoPlacementHint(self.workflow)
                scheduler.coplacement = self._coplacement
        self.simulation = ServingSimulation(
            executor=self.executor or GroundTruthExecutor(),
            rate_mode=self.rate_mode,
            ewma=self.ewma,
            pending_cap=self.pending_cap,
            cold_queue_batches=self.cold_queue_batches,
            workflow=self.workflow,
            metrics_mode=self.metrics_mode,
            arrival_mode=self.arrival_mode,
            arrival_window_s=self.arrival_window_s,
            **common,
        )
        return self.simulation

    def _stage_functions(self) -> list:
        """Synthesize per-stage FunctionSpecs from the workflow DAG.

        Each stage's SLO is its share of the end-to-end budget under
        the configured decomposition policy (ESG-style proportional
        split along the critical path, or the full budget everywhere
        for the ``"independent"`` baseline).
        """
        predictor = self.predictor or build_default_predictor()
        budgets = decompose_slo(
            self.workflow, predictor, policy=self.workflow_policy
        )
        return [
            FunctionSpec.for_model(
                stage.model, slo_s=budgets[stage.name], name=stage.name
            )
            for stage in self.workflow.stages
        ]

    def _build_fluid_engine(self):
        """Assemble the fluid or hybrid simulation.

        Both paths serve single-shot workloads on the INFless control
        laws; construction already refused (via the compatibility
        table) every feature that only exists in the discrete event
        loop.
        """
        from repro.fluid import FluidSimulation, HybridSimulation

        common = dict(
            functions=self.functions, workload=self.workload,
            predictor=self.predictor, executor=self.executor,
            control_interval_s=self.control_interval_s,
            warmup_s=self.warmup_s, ewma=self.ewma,
            pending_cap=self.pending_cap, invariants=self.invariants,
            seed=self.seed, rate_mode=self.rate_mode,
        )
        if self.engine == "fluid":
            return FluidSimulation(**common)
        return HybridSimulation(
            hot_k=self.hot_k, platform=self._platform_spec,
            servers=self.servers, **common,
        )

    def run(self) -> SimulationReport:
        """Build if needed, replay the workload, return the report."""
        self.report = self.build().run()
        if self.workflow is not None:
            hint = self._coplacement
            self.report.workflows["coplacement"] = hint and hint.stats()
        return self.report

    # ------------------------------------------------------------------
    # pure-data round-trip (campaign workers, saved experiment configs)
    # ------------------------------------------------------------------
    def to_spec(self) -> Dict[str, object]:
        """The experiment as plain JSON-serialisable data.

        The spec names the platform by its registry entry and carries
        every serving-relevant setting (functions, workload traces,
        faults, resilience, invariants mode, runtime knobs) as pure
        data, so a worker process can rebuild a bit-identical run with
        :meth:`from_spec`.  Telemetry sinks are *not* part of the spec
        (they are observers, not serving configuration).

        Raises:
            ValueError: when the experiment holds live objects a spec
                cannot represent -- a pre-built platform or factory, an
                explicit cluster, predictor or executor, or a pre-built
                invariant checker.
        """
        if not isinstance(self._platform_spec, str):
            raise ValueError(
                "to_spec requires a registry-name platform; pre-built"
                " platforms and factories are live objects"
            )
        for attr, label in (
            ("_cluster", "cluster"),
            ("predictor", "predictor"),
            ("executor", "executor"),
        ):
            if getattr(self, attr) is not None:
                raise ValueError(
                    f"to_spec cannot serialize an explicit {label};"
                    " rely on the defaults (they are deterministic)"
                )
        if self.invariants is not None and not isinstance(self.invariants, str):
            raise ValueError(
                "to_spec requires the invariants mode as a string"
            )
        functions = None
        if self.functions is not None:
            functions = []
            for function in self.functions:
                from repro.models import resolve_model

                if resolve_model(function.model.name) != function.model:
                    raise ValueError(
                        f"function {function.name!r} uses a model that is"
                        " not the zoo's; specs can only name zoo models"
                    )
                functions.append({
                    "model": function.model.name,
                    "slo_s": function.slo_s,
                    "name": function.name,
                })
        spec: Dict[str, object] = {
            "schema": SPEC_SCHEMA,
            "platform": self._platform_spec,
            "platform_options": dict(self.platform_options),
            "servers": self.servers,
            "functions": functions,
            "workload": {
                name: trace.to_dict() for name, trace in self.workload.items()
            },
            "faults": self.faults.to_dict() if self.faults else None,
            "resilience": (
                asdict(self.resilience) if self.resilience is not None else None
            ),
            "invariants": self.invariants,
            "warmup_s": self.warmup_s,
            "seed": self.seed,
            "control_interval_s": self.control_interval_s,
            "rate_mode": self.rate_mode,
            "ewma": self.ewma,
            "pending_cap": self.pending_cap,
            "cold_queue_batches": self.cold_queue_batches,
        }
        # Emitted only when non-default: campaign resume is content-
        # addressed on the spec, so default-mode specs must hash exactly
        # as they did before these knobs existed.
        if self.metrics_mode != "exact":
            spec["metrics_mode"] = self.metrics_mode
        if self.arrival_mode != "eager":
            spec["arrival_mode"] = self.arrival_mode
            spec["arrival_window_s"] = self.arrival_window_s
        if self.engine != "des":
            spec["engine"] = self.engine
            spec["hot_k"] = self.hot_k
        if self.fleet is not None:
            spec["fleet"] = self.fleet.to_dict()
        if self.coldstart is not None:
            spec["coldstart"] = self.coldstart
        if self.autoscaler != "horizontal":
            spec["autoscaler"] = self.autoscaler
        if self.workflow is not None:
            spec["workflow"] = self.workflow.to_dict()
            if self.workflow_policy != "decomposed":
                spec["workflow_policy"] = self.workflow_policy
        return spec

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "Experiment":
        """Rebuild an experiment from :meth:`to_spec` output.

        The construction path is pure data in, same objects out: a
        seeded run built here is bit-identical to the directly-built
        experiment the spec came from.
        """
        from repro.core.function import FunctionSpec

        schema = spec.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError(
                f"unsupported experiment spec schema {schema!r}"
                f" (this build reads schema {SPEC_SCHEMA})"
            )
        # Older specs always carried these keys; a null value is the
        # plain-run default, anything else would be dropped silently.
        for key in ("chains", "end_to_end_slo_s"):
            if spec.get(key) is not None:
                raise ValueError(
                    f"experiment spec key {key!r} is no longer supported;"
                    " pass the pipeline and its end-to-end SLO as"
                    " workflow= (a WorkflowSpec)"
                )
        functions = None
        if spec.get("functions") is not None:
            functions = [
                FunctionSpec.for_model(
                    raw["model"], slo_s=raw["slo_s"], name=raw.get("name", "")
                )
                for raw in spec["functions"]
            ]
        resilience = spec.get("resilience")
        if resilience is not None:
            resilience = ResiliencePolicy(**resilience)
        return cls(
            platform=spec["platform"],
            platform_options=spec.get("platform_options") or None,
            servers=spec.get("servers", 8),
            fleet=spec.get("fleet"),
            coldstart=spec.get("coldstart"),
            autoscaler=spec.get("autoscaler", "horizontal"),
            functions=functions,
            workload={
                name: Trace.from_dict(raw)
                for name, raw in spec.get("workload", {}).items()
            },
            faults=spec.get("faults"),
            resilience=resilience,
            invariants=spec.get("invariants"),
            warmup_s=spec.get("warmup_s", 0.0),
            seed=spec.get("seed", 42),
            control_interval_s=spec.get("control_interval_s", 1.0),
            rate_mode=spec.get("rate_mode", "measured"),
            ewma=spec.get("ewma", 0.6),
            pending_cap=spec.get("pending_cap", 100_000),
            cold_queue_batches=spec.get("cold_queue_batches", 64),
            workflow=spec.get("workflow"),
            workflow_policy=spec.get("workflow_policy", "decomposed"),
            metrics_mode=spec.get("metrics_mode", "exact"),
            arrival_mode=spec.get("arrival_mode", "eager"),
            arrival_window_s=spec.get("arrival_window_s", 60.0),
            engine=spec.get("engine", "des"),
            hot_k=spec.get("hot_k", 1),
        )
