"""Latency-decomposition summaries computed from a trace.

Powers ``python -m repro.cli trace-summary run.jsonl``: reads the
events a tracer recorded (or a JSONL file exported from one) and
aggregates the per-function decomposition ``l = t_cold + t_batch +
t_exec``, drop reasons and SLO outcomes -- the quick answer to "*why*
did this run violate" without re-running the simulation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from repro.telemetry import spans as ev


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile without a numpy dependency."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[int(rank)]


@dataclass
class FunctionSummary:
    """One function's aggregate view of a trace."""

    function: str
    completed: int = 0
    violations: int = 0
    drops: Counter = field(default_factory=Counter)
    cold_wait_s: List[float] = field(default_factory=list)
    batch_wait_s: List[float] = field(default_factory=list)
    exec_s: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)

    @property
    def dropped(self) -> int:
        """Drops across every reason."""
        return sum(self.drops.values())

    def mean(self, attr: str) -> float:
        """Mean of one per-completion series (0.0 when empty)."""
        values: List[float] = getattr(self, attr)
        return sum(values) / len(values) if values else 0.0

    def p95_latency_s(self) -> float:
        """Nearest-rank 95th-percentile end-to-end latency."""
        return _percentile(self.latency_s, 95.0)

    def decomposition(self) -> Dict[str, float]:
        """Mean seconds spent per phase (the Fig. 9-style breakdown)."""
        return {
            "cold_wait_s": self.mean("cold_wait_s"),
            "batch_wait_s": self.mean("batch_wait_s"),
            "exec_s": self.mean("exec_s"),
        }


def summarize_events(events: Iterable[Any]) -> Dict[str, FunctionSummary]:
    """Aggregate completion/drop events per function, name-sorted.

    Raises ``ValueError`` for a completion or drop event it cannot read.
    """
    summaries: Dict[str, FunctionSummary] = {}

    def summary_for(name: str) -> FunctionSummary:
        if name not in summaries:
            summaries[name] = FunctionSummary(function=name)
        return summaries[name]

    for raw in events:
        event = raw if isinstance(raw, dict) else raw.to_dict()
        kind = event.get("kind")
        try:
            if kind == ev.REQUEST_COMPLETE:
                summary = summary_for(event["function"])
                summary.completed += 1
                summary.violations += bool(event.get("violated"))
                summary.cold_wait_s.append(float(event["cold_wait_s"]))
                summary.batch_wait_s.append(float(event["batch_wait_s"]))
                summary.exec_s.append(float(event["exec_s"]))
                summary.latency_s.append(float(event["latency_s"]))
            elif kind == ev.REQUEST_DROP:
                summary = summary_for(event["function"])
                summary.drops[event.get("reason", "unspecified")] += 1
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {kind} event: {exc!r}") from None

    return dict(sorted(summaries.items()))


def summary_rows(summaries: Dict[str, FunctionSummary]) -> List[List[str]]:
    """Rows for :func:`repro.analysis.reporting.format_table`."""
    rows = []
    for summary in summaries.values():
        drops = (
            ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(summary.drops.items())
            )
            or "-"
        )
        rows.append(
            [
                summary.function,
                str(summary.completed),
                f"{summary.violations}",
                drops,
                f"{summary.mean('cold_wait_s') * 1e3:.1f}",
                f"{summary.mean('batch_wait_s') * 1e3:.1f}",
                f"{summary.mean('exec_s') * 1e3:.1f}",
                f"{summary.mean('latency_s') * 1e3:.1f}",
                f"{summary.p95_latency_s() * 1e3:.1f}",
            ]
        )
    return rows


#: the header matching :func:`summary_rows`.
SUMMARY_HEADER = [
    "function",
    "completed",
    "violations",
    "drops",
    "cold (ms)",
    "batch (ms)",
    "exec (ms)",
    "latency (ms)",
    "p95 (ms)",
]
