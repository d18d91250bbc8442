"""RPS timelines.

A trace is a piecewise-constant request-arrival-rate function sampled
on a uniform grid, the common currency between workload generators,
the arrival sampler and the auto-scaler's rate monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np


@dataclass(frozen=True)
class Trace:
    """A piecewise-constant RPS timeline.

    Attributes:
        name: trace label (e.g. ``"periodic"``).
        step_s: grid resolution in seconds.
        rps: non-negative, finite arrival rate per grid cell.
    """

    name: str
    step_s: float
    rps: np.ndarray

    def __post_init__(self) -> None:
        if not 0 < self.step_s < np.inf:
            raise ValueError("step must be positive and finite")
        rps = np.asarray(self.rps, dtype=float)
        if rps.ndim != 1 or rps.size == 0:
            raise ValueError("rps must be a non-empty 1-D array")
        if not np.all((rps >= 0) & (rps < np.inf)):
            raise ValueError("rps must be non-negative and finite")
        object.__setattr__(self, "rps", rps)

    # ------------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        return self.step_s * self.rps.size

    @property
    def mean_rps(self) -> float:
        return float(self.rps.mean())

    @property
    def peak_rps(self) -> float:
        return float(self.rps.max())

    def expected_requests(self) -> float:
        return float(self.rps.sum() * self.step_s)

    def rps_at(self, t: float) -> float:
        """Arrival rate at absolute time ``t`` (0 outside the trace)."""
        if t < 0 or t >= self.duration_s:
            return 0.0
        # duration_s is step_s * size computed in floating point, so for
        # t just below it the division can round up to rps.size when
        # step_s has no exact binary representation (0.07, 0.13, ...);
        # clamp to the last cell instead of raising IndexError.
        index = int(t / self.step_s)
        if index >= self.rps.size:
            index = self.rps.size - 1
        return float(self.rps[index])

    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "Trace":
        """A copy with every rate multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return Trace(name=self.name, step_s=self.step_s, rps=self.rps * factor)

    def with_mean(self, target_mean_rps: float) -> "Trace":
        """A copy rescaled to a target mean RPS (shape preserved)."""
        if self.mean_rps == 0:
            raise ValueError("cannot rescale an all-zero trace")
        return self.scaled(target_mean_rps / self.mean_rps)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view; exact (doubles survive JSON)."""
        return {
            "name": self.name,
            "step_s": float(self.step_s),
            "rps": [float(value) for value in self.rps],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output, bit-for-bit."""
        return cls(
            name=str(payload["name"]),
            step_s=float(payload["step_s"]),
            rps=np.asarray(payload["rps"], dtype=float),
        )
