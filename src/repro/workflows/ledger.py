"""The DAG token ledger of one workflow run.

The serving runtime calls it at admission, drop, stage completion and
sink completion, and hands it the one callback that builds and
dispatches a follow-on request; the invariant audit reads its public
fields.  Tokens are the runtime's requests, read duck-typed: the
runtime imports this module, never the reverse.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.workflows.spec import WorkflowSpec


def _latency_stats(values: List[float]) -> Tuple[Optional[float], ...]:
    """Mean, p50 and p99 of a latency list (all None when empty)."""
    if not values:
        return None, None, None
    arr = np.asarray(values)
    return (
        float(arr.mean()), float(np.percentile(arr, 50)),
        float(np.percentile(arr, 99)),
    )


class WorkflowLedger:
    """Token conservation and end-to-end accounting for one DAG run.

    Fan-out mints ``spawned`` tokens; a join merges its inbound tokens
    and a failed root's later tokens are absorbed, both ``retired``;
    :attr:`joining` tokens wait at barriers.  Latencies and workflow
    counts cover the post-warmup window only.
    """

    def __init__(self, spec: WorkflowSpec, warmup_s: float) -> None:
        self.spec = spec
        self.warmup_s = warmup_s
        #: stage -> downstream stages (only stages with successors).
        self.successors: Dict[str, Tuple[str, ...]] = {
            s.name: s.downstream for s in spec.stages if s.downstream
        }
        self.fan_in: Dict[str, int] = spec.fan_in()
        #: (stage, root) -> tokens waiting at a fan-in join barrier.
        self.barriers: Dict[Tuple[str, int], list] = {}
        #: roots that already recorded their one drop.
        self.failed: set = set()
        self.spawned = 0
        self.retired = 0
        self.started = 0
        self.completed = 0
        self.violations = 0
        self.dropped = 0
        self.latencies: List[float] = []
        self.stage_latencies: Dict[str, List[float]] = {
            name: [] for name in spec.stage_names()
        }
        #: per-edge / per-stage flow counters for the edge audit.
        self.edge_forwards: Counter = Counter()
        self.injected: Counter = Counter()
        self.join_fired: Counter = Counter()
        self.join_purged: Counter = Counter()

    @property
    def joining(self) -> int:
        """Tokens currently waiting at join barriers."""
        return sum(len(waiters) for waiters in self.barriers.values())

    def admit(self, token) -> None:
        """Count a workflow entering at the entry stage."""
        if token.arrival >= self.warmup_s:
            self.started += 1

    def absorb_drop(self, token) -> bool:
        """Account a dropped token; True when it is absorbed silently.

        A root's first drop fails it and purges its barrier tokens; its
        later tokens are absorbed, so each root records one drop.
        """
        root = token.root
        if root in self.failed:
            self.retired += 1
            return True
        self.failed.add(root)
        if self.barriers:
            stale = [key for key in self.barriers if key[1] == root]
            for key in stale:
                waiters = self.barriers.pop(key)
                self.join_purged[key[0]] += len(waiters)
                self.retired += len(waiters)
        if token.origin >= self.warmup_s:
            self.dropped += 1
        return False

    def fan_out(
        self, tokens: Iterable, successors: Tuple[str, ...], now: float,
        inject: Callable[[str, int, float, float], None],
    ) -> None:
        """Route completed stage tokens along their outgoing edges.

        Each token fans out to every downstream stage and waits at
        fan-in barriers for its sibling copies; ``inject(stage, root,
        slo_s, origin)`` dispatches each token a stage receives.
        """
        fan_in = self.fan_in
        failed = self.failed
        extra = len(successors) - 1
        for token in tokens:
            root = token.root
            stage = token.function
            if token.origin >= self.warmup_s:
                self.stage_latencies[stage].append(now - token.arrival)
            if root in failed:
                self.retired += 1
                continue
            self.spawned += extra
            for index, nxt in enumerate(successors):
                if root in failed:
                    # An earlier edge's dispatch just dropped a sibling:
                    # retire the remaining edges' tokens unminted, or a
                    # join barrier would wait forever for a failed root.
                    self.retired += len(successors) - index
                    break
                self.edge_forwards[(stage, nxt)] += 1
                if fan_in[nxt] == 1:
                    self.injected[nxt] += 1
                    inject(nxt, root, token.slo_s, token.origin)
                    continue
                key = (nxt, root)
                waiters = self.barriers.setdefault(key, [])
                waiters.append(token)
                if len(waiters) < fan_in[nxt]:
                    continue
                del self.barriers[key]
                self.join_fired[nxt] += 1
                self.retired += len(waiters) - 1
                self.injected[nxt] += 1
                inject(nxt, root, token.slo_s, waiters[0].origin)

    def complete(self, token, now: float) -> bool:
        """Judge a sink token's end-to-end deadline; False if absorbed."""
        if token.root in self.failed:
            self.retired += 1
            return False
        if token.origin >= self.warmup_s:
            self.stage_latencies[token.function].append(now - token.arrival)
            latency = now - token.origin
            self.latencies.append(latency)
            self.completed += 1
            if latency > self.spec.end_to_end_slo_s:
                self.violations += 1
        return True

    def summary(self, horizon_s: float) -> Dict[str, object]:
        """The report's ``workflows`` block; goodput is on-time sink
        completions per post-warmup second."""
        elapsed = max(horizon_s - self.warmup_s, 1e-9)
        goodput = max(self.completed - self.violations, 0) / elapsed
        per_stage: Dict[str, object] = {}
        for name, values in self.stage_latencies.items():
            mean, p50, p99 = _latency_stats(values)
            per_stage[name] = {
                "count": len(values), "mean_s": mean, "p50_s": p50, "p99_s": p99,
            }
        mean, p50, p99 = _latency_stats(self.latencies)
        return {
            "workflow": self.spec.name,
            "end_to_end_slo_s": self.spec.end_to_end_slo_s,
            "started": self.started,
            "completed": self.completed,
            "violations": self.violations,
            "failed": self.dropped,
            "goodput_rps": goodput,
            "latency_mean_s": mean,
            "latency_p50_s": p50,
            "latency_p99_s": p99,
            "per_stage": per_stage,
        }
