"""Fault injection and resilience for the serving simulator.

A declarative, seeded :class:`FaultPlan` describes *what goes wrong*
during a replay -- scheduled or stochastic server crashes, recoveries,
instance kills, cold-start stragglers and ingress latency spikes --
and a :class:`ResiliencePolicy` describes *how the platform copes*:
per-request deadlines derived from SLOs, retry with exponential
backoff and jitter, re-dispatch of requests stranded in lost in-flight
batches, and overload load-shedding.  Both are executed by
:class:`~repro.simulation.runtime.ServingSimulation` as ordinary
simulation events, with the run's retry, outage and straggler state in
one :class:`ResilienceLedger`, so chaos runs stay fully deterministic:
the same seed and the same plan reproduce the same report bit for bit.

See ``docs/faults.md`` for the plan schema and the semantics of every
fault kind.
"""

from repro.faults.plan import (
    FAULT_KINDS,
    ColdStartStraggler,
    FaultEvent,
    FaultPlan,
    IngressSpike,
    InstanceKill,
    ServerCrash,
    ServerRecovery,
    StochasticCrashes,
)
from repro.faults.resilience import (
    ResiliencePolicy,
    backlog_sheds,
)
from repro.faults.ledger import ResilienceLedger

__all__ = [
    "FAULT_KINDS",
    "ColdStartStraggler",
    "FaultEvent",
    "FaultPlan",
    "IngressSpike",
    "InstanceKill",
    "ServerCrash",
    "ServerRecovery",
    "StochasticCrashes",
    "ResilienceLedger",
    "ResiliencePolicy",
    "backlog_sheds",
]
