"""Idle-time histograms for keep-alive policies (section 3.5).

Both HHP (Shahrad et al., ATC'20) and INFless's LSTH characterise a
function's *idle times* -- the gaps between consecutive invocations --
with a histogram over a tracked duration, then read a head percentile
(pre-warming window) and a tail percentile (keep-alive window) off it.

The histogram here is time-windowed: observations carry timestamps and
queries only consider those within the configured duration, which is
what lets LSTH maintain a short-term (1 h) and a long-term (24 h) view
of the same invocation stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

import numpy as np

#: the idle-time percentiles both policies read as the pre-warming
#: (head) and keep-alive (tail) windows.
HEAD_PERCENTILE = 5.0
TAIL_PERCENTILE = 99.0


@dataclass
class IdleTimeHistogram:
    """Sliding-window histogram of idle times.

    Args:
        duration_s: only observations newer than ``now - duration_s``
            participate in percentile queries.
        max_observations: memory bound; oldest observations are evicted
            first (in trace order, which matches time order).
    """

    duration_s: float
    max_observations: int = 200_000
    _observations: Deque[Tuple[float, float]] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.max_observations < 1:
            raise ValueError("max_observations must be >= 1")

    def record(self, now: float, idle_time_s: float) -> None:
        """Record one idle-time observation at time ``now``."""
        if idle_time_s < 0:
            raise ValueError("idle time must be non-negative")
        self._observations.append((now, idle_time_s))
        while len(self._observations) > self.max_observations:
            self._observations.popleft()

    def record_many(self, observations: List[Tuple[float, float]]) -> None:
        """Record ``(now, idle_time_s)`` observations, oldest first.

        Leaves the histogram as one :meth:`record` call per observation
        would (the same ``max_observations`` trimming).
        """
        self._observations.extend(observations)
        excess = len(self._observations) - self.max_observations
        for _ in range(excess):
            self._observations.popleft()

    def _evict(self, now: float) -> None:
        horizon = now - self.duration_s
        while self._observations and self._observations[0][0] < horizon:
            self._observations.popleft()

    def window_values(self, now: float) -> List[float]:
        """Idle times observed within the tracked duration."""
        self._evict(now)
        return [idle for _ts, idle in self._observations]

    def count(self, now: float) -> int:
        self._evict(now)
        return len(self._observations)

    def percentile(self, now: float, q: float) -> Optional[float]:
        """The q-th percentile (0-100) of in-window idle times.

        Returns None when the window holds no observations.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        values = self.window_values(now)
        if not values:
            return None
        return float(np.percentile(values, q))

    def head_tail(self, now: float) -> Optional[Tuple[float, float]]:
        """The (head, tail) percentile pair both policies consume."""
        values = self.window_values(now)
        if not values:
            return None
        head, tail = np.percentile(values, [HEAD_PERCENTILE, TAIL_PERCENTILE])
        return float(head), float(tail)

    def coefficient_of_variation(self, now: float) -> Optional[float]:
        """CV of in-window idle times (HHP's representativeness check)."""
        values = self.window_values(now)
        if len(values) < 2:
            return None
        mean = float(np.mean(values))
        if mean == 0:
            return 0.0
        return float(np.std(values)) / mean
