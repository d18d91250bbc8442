"""Declarative campaign grids and their deterministic expansion.

A :class:`CampaignSpec` is a JSON-round-trippable grid definition: a
set of axes (platform, model, trace kind, rps, SLO, servers, fault
plan) crossed with a replicate list.  :meth:`CampaignSpec.expand`
turns it into concrete :class:`RunSpec` cells -- plain picklable data
a worker process can execute without ever receiving a live object.

Seed derivation
---------------
Per-run RNG seeds are **spawned, never added**: each (cell, replicate)
gets the ``numpy.random.SeedSequence`` child

    SeedSequence(root_seed, spawn_key=(crc32(cell_key), replicate))

which is exactly the keyed-child construction ``SeedSequence.spawn``
performs, made position-independent: editing the grid (adding a
platform, dropping an rps level) never changes the seeds -- and hence
the content-addressed result hashes -- of the cells that stayed.  The
child is split again into the trace-generation stream and the
simulation seed, so replicates differ in both the trace realization
and the arrival/execution noise.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import PLATFORMS, Experiment
from repro.cluster.fleet import FleetSpec
from repro.core.coldstart import COLDSTART_POLICIES
from repro.core.function import FunctionSpec
from repro.faults import FaultPlan
from repro.workflows import WORKFLOW_POLICIES, WorkflowSpec
from repro.workloads import (
    bursty_trace,
    constant_trace,
    periodic_trace,
    sporadic_trace,
)
from repro.workloads.trace import Trace

#: version tag of the campaign spec / run-spec schema.
CAMPAIGN_SCHEMA = 1

#: axis name -> default value when the spec omits the axis.
AXIS_DEFAULTS: Dict[str, object] = {
    "platform": "infless",
    "model": "resnet-50",
    "trace": "constant",
    "rps": 300.0,
    "slo_ms": 200.0,
    "servers": 8,
    "faults": None,
}

#: fixed expansion order: the cross product iterates right-to-left.
AXIS_ORDER: Tuple[str, ...] = tuple(AXIS_DEFAULTS)

#: opt-in axes that join a cell only when the spec names them, so
#: existing campaigns keep their canonical cell keys (and hence the
#: spawned seeds and content-addressed run hashes).  ``fleet`` values
#: are FleetSpec dicts or JSON paths (inlined at expansion, like
#: fault plans); ``coldstart``/``autoscaler`` pass through to the
#: experiment spec.
OPTIONAL_AXIS_DEFAULTS: Dict[str, object] = {
    "fleet": None,
    "coldstart": None,
    "autoscaler": "horizontal",
    "workflow": None,
    "workflow_policy": "decomposed",
}

#: trace kind -> generator; seeded kinds receive a SeedSequence child.
TRACE_KINDS = ("constant", "periodic", "bursty", "sporadic")


def canonical_json(payload: object) -> str:
    """The canonical encoding hashes and comparisons use."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def derive_run_seed_sequence(
    root_seed: int, cell_key: str, replicate: int
) -> np.random.SeedSequence:
    """The position-independent spawned child for one (cell, replicate)."""
    return np.random.SeedSequence(
        int(root_seed),
        spawn_key=(zlib.crc32(cell_key.encode("utf-8")), int(replicate)),
    )


@dataclass(frozen=True)
class RunSpec:
    """One grid cell x one replicate: pure picklable data.

    Attributes:
        campaign: owning campaign name (labels results and progress).
        cell: axis name -> value for this cell (the aggregation key).
        replicate: the replicate label from the campaign's seed list.
        seed: the derived integer simulation seed (already spawned --
            workers never re-derive).
        experiment: the full :meth:`repro.api.Experiment.to_spec`
            payload to execute, workload traces materialized.
    """

    campaign: str
    cell: Dict[str, object]
    replicate: int
    seed: int
    experiment: Dict[str, object] = field(repr=False)

    def spec_hash(self) -> str:
        """Content address of this run: stable across processes/runs."""
        payload = canonical_json({
            "cell": self.cell,
            "replicate": self.replicate,
            "seed": self.seed,
            "experiment": self.experiment,
        })
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        """JSON/pickle-ready view (what crosses the process boundary)."""
        return {
            "schema": CAMPAIGN_SCHEMA,
            "campaign": self.campaign,
            "cell": dict(self.cell),
            "replicate": self.replicate,
            "seed": self.seed,
            "experiment": self.experiment,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "RunSpec":
        """Rebuild a run spec in a worker process."""
        return cls(
            campaign=payload["campaign"],
            cell=dict(payload["cell"]),
            replicate=int(payload["replicate"]),
            seed=int(payload["seed"]),
            experiment=payload["experiment"],
        )


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative experiment grid.

    Attributes:
        name: campaign identifier (also the default store directory).
        axes: axis name -> list of values; missing axes collapse to
            their single default (:data:`AXIS_DEFAULTS`).  The
            ``faults`` axis takes fault-plan JSON paths (or None); the
            plan file is inlined at expansion time so the run hash
            covers its *content*.  Opt-in axes
            (:data:`OPTIONAL_AXIS_DEFAULTS`: ``fleet``, ``coldstart``,
            ``autoscaler``, ``workflow``, ``workflow_policy``) join
            cells only when named here; ``fleet`` values are FleetSpec
            dicts or JSON paths (also inlined), ``workflow`` values
            are preset names, WorkflowSpec dicts or JSON paths
            (inlined too, replacing the ``model``/``slo_ms`` axes for
            that cell).
        replicates: replicate labels (the "seed list" of the grid);
            each cell runs once per label.
        root_seed: the campaign's seed-derivation root.
        duration_s: trace horizon per run.
        warmup_s: statistics warmup per run.
        trace_step_s: RPS-grid resolution for generated traces.
        experiment: extra key/values merged into every run's
            experiment spec (``rate_mode``, ``metrics_mode``, ...).
    """

    name: str
    axes: Dict[str, List[object]]
    replicates: Tuple[int, ...] = (0,)
    root_seed: int = 0
    duration_s: float = 60.0
    warmup_s: float = 0.0
    trace_step_s: float = 1.0
    experiment: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        if not self.replicates:
            raise ValueError("campaign needs at least one replicate")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        unknown = sorted(
            set(self.axes) - set(AXIS_DEFAULTS) - set(OPTIONAL_AXIS_DEFAULTS)
        )
        if unknown:
            known = ", ".join(AXIS_ORDER + tuple(OPTIONAL_AXIS_DEFAULTS))
            raise ValueError(
                f"unknown campaign axes {unknown}; known axes: {known}"
            )
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"axis {axis!r} must be a non-empty list")
        for platform in self.axes.get("platform", []):
            if platform not in PLATFORMS:
                known = ", ".join(sorted(PLATFORMS))
                raise ValueError(
                    f"unknown platform {platform!r}; registered: {known}"
                )
        for kind in self.axes.get("trace", []):
            if kind not in TRACE_KINDS:
                known = ", ".join(TRACE_KINDS)
                raise ValueError(
                    f"unknown trace kind {kind!r}; known kinds: {known}"
                )
        for name in self.axes.get("coldstart", []):
            if name is not None and name not in COLDSTART_POLICIES:
                known = ", ".join(sorted(COLDSTART_POLICIES))
                raise ValueError(
                    f"unknown coldstart policy {name!r}; known: {known}"
                )
        for name in self.axes.get("autoscaler", []):
            if name not in ("horizontal", "hybrid"):
                raise ValueError(
                    f"unknown autoscaler {name!r};"
                    " known: horizontal, hybrid"
                )
        for policy in self.axes.get("workflow_policy", []):
            if policy not in WORKFLOW_POLICIES:
                known = ", ".join(WORKFLOW_POLICIES)
                raise ValueError(
                    f"unknown workflow policy {policy!r}; known: {known}"
                )
        object.__setattr__(self, "replicates", tuple(self.replicates))
        object.__setattr__(
            self, "axes", {k: list(v) for k, v in self.axes.items()}
        )

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (what ``examples/campaigns/*.json`` hold)."""
        return {
            "schema": CAMPAIGN_SCHEMA,
            "name": self.name,
            "axes": {k: list(v) for k, v in self.axes.items()},
            "replicates": list(self.replicates),
            "root_seed": self.root_seed,
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "trace_step_s": self.trace_step_s,
            "experiment": dict(self.experiment),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSpec":
        """Parse a campaign from its JSON dict form."""
        if not isinstance(payload, dict):
            raise ValueError("a campaign spec must be a JSON object")
        schema = payload.get("schema", CAMPAIGN_SCHEMA)
        if schema != CAMPAIGN_SCHEMA:
            raise ValueError(
                f"unsupported campaign schema {schema!r}"
                f" (this build reads schema {CAMPAIGN_SCHEMA})"
            )
        if "name" not in payload:
            raise ValueError("a campaign spec needs a 'name'")
        return cls(
            name=payload["name"],
            axes={k: list(v) for k, v in payload.get("axes", {}).items()},
            replicates=tuple(payload.get("replicates", (0,))),
            root_seed=int(payload.get("root_seed", 0)),
            duration_s=float(payload.get("duration_s", 60.0)),
            warmup_s=float(payload.get("warmup_s", 0.0)),
            trace_step_s=float(payload.get("trace_step_s", 1.0)),
            experiment=dict(payload.get("experiment", {})),
        )

    @classmethod
    def from_json(cls, path: str) -> "CampaignSpec":
        """Load a campaign spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: str) -> None:
        """Write the spec as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------
    def cells(self) -> List[Dict[str, object]]:
        """The grid's cells in deterministic cross-product order.

        Optional axes (:data:`OPTIONAL_AXIS_DEFAULTS`) join the cell
        dict only when the spec names them, keeping legacy campaigns'
        cell keys -- and the seeds/hashes derived from them -- intact.
        """
        order = AXIS_ORDER + tuple(
            axis for axis in OPTIONAL_AXIS_DEFAULTS if axis in self.axes
        )
        values = [
            list(self.axes.get(axis, [AXIS_DEFAULTS[axis]]))
            if axis in AXIS_DEFAULTS
            else list(self.axes[axis])
            for axis in order
        ]
        return [
            dict(zip(order, combo))
            for combo in itertools.product(*values)
        ]

    def expand(self) -> List[RunSpec]:
        """Deterministically expand the grid into runnable cells.

        Expansion is a pure function of the spec: the same spec always
        yields the same run list, hashes and derived seeds, and a cell
        keeps its seeds when *other* cells are edited (see the module
        docstring on seed derivation).
        """
        runs: List[RunSpec] = []
        fault_cache: Dict[str, Optional[Dict[str, object]]] = {}
        for cell in self.cells():
            cell_key = canonical_json(cell)
            for replicate in self.replicates:
                child = derive_run_seed_sequence(
                    self.root_seed, cell_key, replicate
                )
                trace_stream, sim_stream = child.spawn(2)
                sim_seed = int(sim_stream.generate_state(1, np.uint64)[0])
                experiment = self._experiment_spec(
                    cell, trace_stream, sim_seed, fault_cache
                )
                runs.append(RunSpec(
                    campaign=self.name,
                    cell=cell,
                    replicate=int(replicate),
                    seed=sim_seed,
                    experiment=experiment,
                ))
        return runs

    def _experiment_spec(
        self,
        cell: Dict[str, object],
        trace_stream: np.random.SeedSequence,
        sim_seed: int,
        fault_cache: Dict[str, Optional[Dict[str, object]]],
    ) -> Dict[str, object]:
        """The full Experiment spec for one cell (traces materialized)."""
        function = FunctionSpec.for_model(
            cell["model"], slo_s=float(cell["slo_ms"]) / 1e3
        )
        trace = build_trace(
            str(cell["trace"]),
            rps=float(cell["rps"]),
            duration_s=self.duration_s,
            step_s=self.trace_step_s,
            seed=trace_stream,
        )
        faults = cell.get("faults")
        if isinstance(faults, str):
            if faults not in fault_cache:
                fault_cache[faults] = FaultPlan.from_json(faults).to_dict()
            faults = fault_cache[faults]
        extra = dict(self.experiment)
        platform_options = extra.pop("platform_options", {})
        spec: Dict[str, object] = {
            "schema": 1,
            "platform": cell["platform"],
            "platform_options": dict(platform_options),
            "servers": int(cell["servers"]),
            "functions": [{
                "model": function.model.name,
                "slo_s": function.slo_s,
                "name": function.name,
            }],
            "workload": {function.name: trace.to_dict()},
            "faults": faults,
            "resilience": None,
            "invariants": None,
            "warmup_s": self.warmup_s,
            "seed": sim_seed,
        }
        workflow = cell.get("workflow")
        if workflow is not None:
            # Workflow cells serve the DAG instead of the model axis:
            # stage functions are synthesized by the experiment from
            # the decomposed SLO, and the trace feeds the entry stage.
            # The spec is inlined (like fault plans and fleets) so the
            # run hash covers the DAG's content.
            wf = WorkflowSpec.coerce(workflow)
            spec["functions"] = None
            spec["workload"] = {wf.entry: trace.to_dict()}
            spec["workflow"] = wf.to_dict()
            policy = cell.get("workflow_policy", "decomposed")
            if policy != "decomposed":
                spec["workflow_policy"] = policy
        fleet = cell.get("fleet")
        if fleet is not None:
            # Inline path values (like fault plans) so the run hash
            # covers the fleet's *content*, not the file name.
            spec["fleet"] = FleetSpec.coerce(fleet).to_dict()
        coldstart = cell.get("coldstart")
        if coldstart is not None:
            spec["coldstart"] = coldstart
        autoscaler = cell.get("autoscaler", "horizontal")
        if autoscaler != "horizontal":
            spec["autoscaler"] = autoscaler
        spec.update(extra)
        # Validate eagerly: a spec that cannot rebuild should fail at
        # expansion time, not inside a worker.
        Experiment.from_spec(spec)
        return spec


def build_trace(
    kind: str,
    rps: float,
    duration_s: float,
    step_s: float,
    seed: np.random.SeedSequence,
) -> Trace:
    """Materialize one campaign trace from its axis value."""
    if kind == "constant":
        return constant_trace(rps, duration_s, step_s=step_s)
    if kind == "periodic":
        return periodic_trace(
            rps, duration_s, step_s=step_s, period_s=duration_s, seed=seed
        )
    if kind == "bursty":
        return bursty_trace(
            rps, duration_s, step_s=step_s, period_s=duration_s,
            burst_rate_per_hour=max(4.0, 3600.0 / max(duration_s, 1.0) * 4.0),
            burst_duration_s=max(step_s, duration_s / 8.0),
            seed=seed,
        )
    if kind == "sporadic":
        return sporadic_trace(
            rps, duration_s, step_s=step_s,
            spike_duration_s=max(step_s, duration_s / 10.0),
            seed=seed,
        )
    known = ", ".join(TRACE_KINDS)
    raise ValueError(f"unknown trace kind {kind!r}; known kinds: {known}")
