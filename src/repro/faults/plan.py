"""Declarative, seeded fault plans for chaos experiments.

A :class:`FaultPlan` is pure data: a tuple of typed fault events plus
an optional stochastic crash process, with a JSON round-trip so plans
can live next to experiment configs (``examples/chaos_plan.json``).
Nothing here touches the simulator -- the serving runtime materializes
the plan into timestamped simulation events and executes them through
its ordinary event loop, which is what keeps chaos runs deterministic.

Fault kinds:

* ``server_crash`` -- a machine dies at ``at_s``; its placements and
  in-flight batches are lost (``Cluster.fail_server`` semantics).
* ``server_recovery`` -- a failed machine is replaced at ``at_s`` by
  an empty server with the same shape (``Cluster.recover_server``).
* ``instance_kill`` -- one instance of ``function`` is terminated
  (deterministically the youngest), modelling a container crash.
* ``coldstart_straggler`` -- cold starts in ``[at_s, at_s +
  duration_s]`` take ``factor``x longer (image-registry brownout).
* ``ingress_spike`` -- arrivals issued inside the window reach the
  platform ``extra_delay_s`` later (gateway congestion).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class ServerCrash:
    """A machine loss at an absolute simulation time."""

    at_s: float
    server_id: int
    kind: str = "server_crash"


@dataclass(frozen=True)
class ServerRecovery:
    """A failed machine replaced (empty) at an absolute time."""

    at_s: float
    server_id: int
    kind: str = "server_recovery"


@dataclass(frozen=True)
class InstanceKill:
    """One instance of a function terminated (container crash)."""

    at_s: float
    function: str
    kind: str = "instance_kill"


@dataclass(frozen=True)
class ColdStartStraggler:
    """Cold starts inside the window take ``factor`` times longer."""

    at_s: float
    duration_s: float
    factor: float = 2.0
    kind: str = "coldstart_straggler"

    def __post_init__(self) -> None:
        if self.factor < 1.0:
            raise ValueError("straggler factor must be >= 1")
        if self.duration_s <= 0:
            raise ValueError("straggler duration_s must be positive")


@dataclass(frozen=True)
class IngressSpike:
    """Arrivals issued inside the window are delayed ``extra_delay_s``."""

    at_s: float
    duration_s: float
    extra_delay_s: float
    kind: str = "ingress_spike"

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("spike duration_s must be positive")
        if self.extra_delay_s < 0:
            raise ValueError("spike extra_delay_s must be >= 0")

    def covers(self, t: float) -> bool:
        """Whether an arrival issued at ``t`` falls inside the spike."""
        return self.at_s <= t < self.at_s + self.duration_s


#: union of the concrete fault-event types.
FaultEvent = Union[
    ServerCrash, ServerRecovery, InstanceKill, ColdStartStraggler, IngressSpike
]

#: kind string -> event class, for the JSON round-trip.
FAULT_KINDS: Dict[str, type] = {
    "server_crash": ServerCrash,
    "server_recovery": ServerRecovery,
    "instance_kill": InstanceKill,
    "coldstart_straggler": ColdStartStraggler,
    "ingress_spike": IngressSpike,
}


@dataclass(frozen=True)
class StochasticCrashes:
    """A seeded Poisson crash process over the fleet.

    Crash times are exponential inter-arrivals at ``rate_per_hour``;
    each crash picks a healthy-at-materialization server uniformly
    (from ``servers`` when given, else the whole fleet) and, when
    ``recover_after_s`` is set, is followed by a matching recovery.
    The process is materialized from :attr:`FaultPlan.seed`, so a plan
    always expands to the same concrete event list.
    """

    rate_per_hour: float
    recover_after_s: Optional[float] = None
    max_crashes: int = 10
    servers: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.rate_per_hour <= 0:
            raise ValueError("rate_per_hour must be positive")
        if self.max_crashes < 1:
            raise ValueError("max_crashes must be >= 1")

    def materialize(
        self, horizon_s: float, num_servers: int, rng: np.random.Generator
    ) -> List[FaultEvent]:
        """Expand into concrete crash (and recovery) events."""
        pool = (
            tuple(self.servers)
            if self.servers is not None
            else tuple(range(num_servers))
        )
        if not pool:
            return []
        events: List[FaultEvent] = []
        t = 0.0
        mean_gap = 3600.0 / self.rate_per_hour
        for _ in range(self.max_crashes):
            t += float(rng.exponential(mean_gap))
            if t >= horizon_s:
                break
            server = int(pool[int(rng.integers(len(pool)))])
            events.append(ServerCrash(at_s=t, server_id=server))
            if self.recover_after_s is not None:
                events.append(
                    ServerRecovery(
                        at_s=t + self.recover_after_s, server_id=server
                    )
                )
        return events


@dataclass(frozen=True)
class FaultPlan:
    """A declarative chaos scenario: scheduled events + a seeded process.

    Attributes:
        events: explicitly scheduled fault events.
        stochastic: optional Poisson crash process expanded at
            materialization time from ``seed``.
        seed: drives the stochastic process only; the scheduled events
            are deterministic by construction.
    """

    events: Tuple[FaultEvent, ...] = ()
    stochastic: Optional[StochasticCrashes] = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events) or self.stochastic is not None

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def materialize(
        self, horizon_s: float, num_servers: int
    ) -> List[FaultEvent]:
        """The concrete, time-sorted event list for one run.

        A fresh generator is built from :attr:`seed` on every call, so
        materialization is a pure function of the plan -- two runs of
        the same plan inject identical faults.
        """
        events = [e for e in self.events if e.at_s < horizon_s]
        if self.stochastic is not None:
            rng = np.random.default_rng(self.seed)
            events.extend(
                self.stochastic.materialize(horizon_s, num_servers, rng)
            )
        # Stable sort keyed on time only: same-time events keep their
        # plan order, which the event loop then preserves via seq ids.
        events.sort(key=lambda e: e.at_s)
        return events

    def ingress_spikes(self) -> List[IngressSpike]:
        """The plan's ingress windows (applied at arrival scheduling)."""
        return [e for e in self.events if isinstance(e, IngressSpike)]

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view of the plan."""
        payload: Dict[str, object] = {
            "seed": self.seed,
            "events": [asdict(e) for e in self.events],
        }
        if self.stochastic is not None:
            stochastic = asdict(self.stochastic)
            if stochastic.get("servers") is not None:
                stochastic["servers"] = list(stochastic["servers"])
            payload["stochastic"] = stochastic
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        """Parse a plan from its JSON dict form."""
        if not isinstance(payload, dict):
            raise ValueError("a fault plan must be a JSON object")
        raw_events = payload.get("events", [])
        if not isinstance(raw_events, list):
            raise ValueError(
                f"fault plan events must be a list of objects,"
                f" not {raw_events!r}"
            )
        events: List[FaultEvent] = []
        for raw in raw_events:
            if not isinstance(raw, dict):
                raise ValueError(
                    f"fault plan event {raw!r} is not a JSON object"
                )
            kind = raw.get("kind")
            klass = FAULT_KINDS.get(kind)
            if klass is None:
                known = ", ".join(sorted(FAULT_KINDS))
                raise ValueError(
                    f"unknown fault kind {kind!r}; known kinds: {known}"
                )
            args = {k: v for k, v in raw.items() if k != "kind"}
            events.append(klass(**args))
        stochastic = None
        raw_stochastic = payload.get("stochastic")
        if raw_stochastic is not None:
            args = dict(raw_stochastic)
            if args.get("servers") is not None:
                args["servers"] = tuple(args["servers"])
            stochastic = StochasticCrashes(**args)
        return cls(
            events=tuple(events),
            stochastic=stochastic,
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (see ``docs/faults.md``)."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def save(self, path: str) -> None:
        """Write the plan as indented JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def coerce(
        cls, value: Union[None, "FaultPlan", Dict[str, object], str]
    ) -> Optional["FaultPlan"]:
        """Normalise plan-ish inputs: a plan, a dict, or a JSON path."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        if isinstance(value, str):
            return cls.from_json(value)
        raise ValueError(
            f"cannot build a FaultPlan from {type(value).__name__}"
        )
