"""The Long-Short Term Histogram policy (LSTH, section 3.5).

INFless's cold-start manager tracks *two* histograms of the same idle
stream -- a short duration (1 hour) capturing bursts and a long
duration (24 hours) capturing diurnal periodicity -- takes the head and
tail of each, and blends them with a configurable weight gamma:

    pre-warm   = gamma * L_head + (1 - gamma) * S_head
    keep-alive = gamma * L_tail + (1 - gamma) * S_tail

The paper uses gamma = 0.5 by default and shows 21.9% fewer cold starts
with 24.3% less idle-resource waste than HHP (Fig. 16).
"""

from __future__ import annotations

from typing import List

from repro.core.coldstart import ColdStartDecision, WindowedKeepAlive
from repro.core.histogram import IdleTimeHistogram

#: the paper's default blending weight.
GAMMA_DEFAULT = 0.5


class LongShortTermHistogram(WindowedKeepAlive):
    """LSTH: gamma-weighted blend of short- and long-term histograms."""

    def __init__(
        self,
        gamma: float = GAMMA_DEFAULT,
        short_duration_s: float = 3600.0,
        long_duration_s: float = 24 * 3600.0,
    ) -> None:
        super().__init__()
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if short_duration_s <= 0 or long_duration_s <= short_duration_s:
            raise ValueError("need 0 < short duration < long duration")
        self.gamma = gamma
        self.short_duration_s = short_duration_s
        self.long_duration_s = long_duration_s
        self.name = f"lsth-g{gamma:g}"
        #: the short histogram exists exactly to react to what the last
        #: hour looked like, so it activates on far fewer observations
        #: than the representativeness threshold of the long view.
        self.short_min_observations = 3

    def _new_histograms(self) -> List[IdleTimeHistogram]:
        return [
            IdleTimeHistogram(duration_s=self.short_duration_s),
            IdleTimeHistogram(duration_s=self.long_duration_s),
        ]

    def _compute_windows(self, function_name: str, now: float) -> ColdStartDecision:
        short_hist, long_hist = self._histograms_for(function_name)
        short = self._head_tail(
            short_hist, now, min_observations=self.short_min_observations
        )
        long = self._head_tail(long_hist, now)
        if short is None and long is None:
            return self.DEFAULT_DECISION
        # Fall back to whichever view has data; blend when both do.
        if short is None:
            head, tail = long
        elif long is None:
            head, tail = short
        else:
            head = self.gamma * long[0] + (1.0 - self.gamma) * short[0]
            tail = self.gamma * long[1] + (1.0 - self.gamma) * short[1]
        prewarm = self._clamp_head(head, self.MIN_PREWARM_S)
        keepalive = max(0.0, tail - prewarm)
        return ColdStartDecision(prewarm_s=prewarm, keepalive_s=keepalive)
