"""The Hybrid Histogram Policy baseline (Shahrad et al., ATC'20).

Tracks idle times over a single configurable duration (4 hours by
default), reads the 5th percentile as the pre-warming window and the
99th percentile as the keep-alive window.  The paper's critique
(section 3.5): with one tracked duration the policy cannot serve both
the long-term periodicity and the short-term bursts of inference
traffic -- a long duration wastes resources when load drops suddenly, a
short one misses the diurnal pattern and raises the cold-start rate.
"""

from __future__ import annotations

from typing import List

from repro.core.coldstart import ColdStartDecision, WindowedKeepAlive
from repro.core.histogram import IdleTimeHistogram


class HybridHistogramPolicy(WindowedKeepAlive):
    """HHP with a single tracked duration."""

    def __init__(
        self,
        duration_s: float = 4 * 3600.0,
    ) -> None:
        super().__init__()
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.duration_s = duration_s
        self.name = f"hhp-{int(duration_s / 3600)}h"

    def _new_histograms(self) -> List[IdleTimeHistogram]:
        return [IdleTimeHistogram(duration_s=self.duration_s)]

    def _compute_windows(self, function_name: str, now: float) -> ColdStartDecision:
        (histogram,) = self._histograms_for(function_name)
        head_tail = self._head_tail(histogram, now)
        if head_tail is None:
            return self.DEFAULT_DECISION
        head, tail = head_tail
        prewarm = self._clamp_head(head, self.MIN_PREWARM_S)
        keepalive = max(0.0, tail - prewarm)
        return ColdStartDecision(prewarm_s=prewarm, keepalive_s=keepalive)
