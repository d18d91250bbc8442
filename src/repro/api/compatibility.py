"""The one declared engine x platform-class x feature compatibility table.

Each row of :data:`COMPATIBILITY` is a feature (or two that do not
compose) and, per engine, the platform classes that run it; every
other cell refuses it.  :class:`~repro.api.Experiment` and
:class:`~repro.llm.simulation.LLMSimulation` call :func:`check`
instead of deciding for themselves.  Platform classes: ``"infless"``
is the registry platform ``"infless"`` (the only one the fluid engines
can rebuild from its name), ``"single_shot"`` any other one-shot
platform, ``"autoregressive"`` the LLM platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Dict, FrozenSet, Optional, Tuple

#: simulation engines: discrete-event ground truth, the continuous
#: fluid approximation, or the hybrid top-K-discrete split.
ENGINES = ("des", "fluid", "hybrid")

PLATFORM_CLASSES = ("infless", "single_shot", "autoregressive")
_ALL, _SINGLE_SHOT = PLATFORM_CLASSES, PLATFORM_CLASSES[:2]

#: fault kinds the token-boundary LLM runtime knows how to apply.
TOKEN_FAULT_KINDS = ("server_crash", "server_recovery", "instance_kill")


@dataclass(frozen=True)
class Row:
    """A feature, the classes each engine runs it for, and why not."""

    name: str
    runs_on: Dict[str, Tuple[str, ...]]
    why: str


_DES_ONLY = "only the discrete event loop has per-request state"
_HOMOGENEOUS = (
    "the fluid and hybrid engines model the homogeneous default fleet"
    " with the paper's cold-start and scaling laws; use engine='des'"
)

#: checked in order; the first refusing row names the rejection.
COMPATIBILITY: Tuple[Row, ...] = (
    Row("platform", {"des": _ALL, "fluid": ("infless",),
                     "hybrid": ("infless",)},
        "the fluid and hybrid engines model the INFless control laws;"
        " use platform='infless' (other platforms run engine='des')"),
    Row("predeployed functions", {"des": _ALL},
        "the fluid and hybrid engines need explicit function specs"),
    Row("workflow", {"des": _SINGLE_SHOT},
        "workflows run on the single-shot discrete event loop only"),
    Row("faults", {"des": _ALL}, _DES_ONLY),
    Row("delay faults", {"des": _SINGLE_SHOT},
        "only server_crash, server_recovery and instance_kill apply at"
        " token granularity"),
    Row("resilience", {"des": _SINGLE_SHOT},
        "retries/deadlines run on the single-shot discrete event loop;"
        " LLM serving recovers through preemption at token granularity"),
    Row("telemetry", {"des": _ALL}, _DES_ONLY),
    Row("timeline", {"des": _ALL}, _DES_ONLY),
    Row("sketch metrics", {"des": _SINGLE_SHOT},
        "the fluid and hybrid engines build their own report whatever"
        " the metrics mode, and the LLM summary keeps per-request token"
        " records"),
    Row("windowed arrivals", {"des": _SINGLE_SHOT},
        "the fluid engines read rates straight off the trace and the"
        " LLM summary keeps per-request token records"),
    Row("fleet", {"des": _ALL}, _HOMOGENEOUS),
    Row("coldstart policy", {"des": _ALL}, _HOMOGENEOUS),
    Row("hybrid autoscaler", {"des": _ALL}, _HOMOGENEOUS),
)


def requested_features(
    *, workload=None, functions=None, workflow=None, faults=None,
    resilience=None, telemetry=None, timeline=None, metrics_mode="exact",
    arrival_mode="eager", fleet=None, coldstart=None, autoscaler="horizontal",
) -> FrozenSet[str]:
    """The :data:`COMPATIBILITY` rows a spec asks for.

    Plans, policies and tracers count when truthy, as the runtimes
    read them: an empty fault plan asks for nothing.  A timeline
    recorder counts whenever given, even one still holding no rows.
    Delay faults count only before the workload's horizon, where a run
    would inject them.
    """
    horizon_s = max(
        (trace.duration_s for trace in (workload or {}).values()),
        default=math.inf,
    )
    asked = {
        "platform": True,
        "predeployed functions": functions is None and workflow is None,
        "workflow": workflow is not None,
        "faults": faults,
        "delay faults": faults and any(
            event.kind not in TOKEN_FAULT_KINDS
            for event in faults.events if event.at_s < horizon_s
        ),
        "resilience": resilience,
        "telemetry": telemetry,
        "timeline": timeline is not None,
        "sketch metrics": metrics_mode != "exact",
        "windowed arrivals": arrival_mode != "eager",
        "fleet": fleet is not None,
        "coldstart policy": coldstart is not None,
        "hybrid autoscaler": autoscaler != "horizontal",
    }
    return frozenset(name for name, on in asked.items() if on)


def check(
    engine: str, platform: Optional[str], features: Collection[str]
) -> None:
    """Raise ``ValueError`` naming the first row that refuses the spec.

    ``platform`` is the spec's platform class, or None while unknown (a
    factory not yet called, an unregistered name): the check then
    refuses only what every class but ``"infless"`` refuses, and the
    caller checks again once the platform is built.
    """
    classes = (platform,) if platform else PLATFORM_CLASSES[1:]
    for row in COMPATIBILITY:
        runs = row.runs_on.get(engine, ())
        if row.name in features and not any(c in runs for c in classes):
            label = repr(platform) if platform else "(not yet built)"
            raise ValueError(
                f"compatibility row {row.name!r} refuses engine={engine!r}"
                f" with platform class {label}: {row.why}"
            )
