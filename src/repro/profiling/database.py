"""The operator profile database (the paper's "register repository").

Stores measured 5-tuples ``<p, b, c, g, t>`` per operator kind and
answers the predictor's lookups, interpolating linearly across the
input-size grid (exact configurations in ``b``/``c``/``g`` are always
profiled; input sizes vary continuously across models, hence the
interpolation).
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.ops.operator import OperatorProfile

ConfigKey = Tuple[int, int, int]  # (batch, cpu, gpu)


class ProfileLookupError(KeyError):
    """Raised when the database cannot answer a lookup."""


class ProfileDatabase:
    """In-memory profile store with input-size interpolation."""

    def __init__(self) -> None:
        # operator -> (b, c, g) -> sorted list of (input_size, time)
        self._store: Dict[str, Dict[ConfigKey, List[Tuple[float, float]]]] = (
            defaultdict(lambda: defaultdict(list))
        )
        self._count = 0

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def insert(self, profile: OperatorProfile) -> None:
        self.insert_series(
            profile.operator,
            (profile.batch, profile.cpu, profile.gpu),
            [profile.input_size],
            [profile.time_s],
        )

    def insert_series(
        self,
        operator: str,
        key: ConfigKey,
        input_sizes: Sequence[float],
        times: Sequence[float],
    ) -> None:
        """Add ``(input size, time)`` points to one ``(b, c, g)`` series.

        Stores exactly what inserting the points one by one in sorted
        position would (duplicated or out-of-order sizes included).
        """
        if len(input_sizes) != len(times):
            raise ValueError("input_sizes and times differ in length")
        if key[0] < 1:
            raise ValueError("batch must be >= 1")
        if times and min(times) <= 0:
            raise ValueError("profiled time must be positive")
        series = self._store[operator][key]
        series.extend(zip(input_sizes, times))
        series.sort()
        self._count += len(times)

    def __len__(self) -> int:
        return self._count

    @property
    def operators(self) -> List[str]:
        return sorted(self._store)

    def configs_for(self, operator: str) -> List[ConfigKey]:
        if operator not in self._store:
            raise ProfileLookupError(f"no profiles for operator {operator!r}")
        return sorted(self._store[operator])

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup(
        self, operator: str, input_size: float, batch: int, cpu: int, gpu: int
    ) -> float:
        """Per-call execution time, interpolated over input size.

        Raises ProfileLookupError when the (b, c, g) configuration was
        never profiled for this operator -- the scheduler only explores
        profiled configurations, so this signals a programming error.
        """
        if operator not in self._store:
            raise ProfileLookupError(f"no profiles for operator {operator!r}")
        key = (batch, cpu, gpu)
        series = self._store[operator].get(key)
        if not series:
            raise ProfileLookupError(
                f"operator {operator!r} has no profile at (b={batch}, c={cpu}, g={gpu})"
            )
        return _interpolate(series, input_size)

    def has_config(self, operator: str, batch: int, cpu: int, gpu: int) -> bool:
        return (batch, cpu, gpu) in self._store.get(operator, {})

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_json(self, path: Path) -> None:
        """Serialise the database (e.g. to ship pre-profiled operators)."""
        payload = {
            operator: {
                ",".join(map(str, key)): series
                for key, series in configs.items()
            }
            for operator, configs in self._store.items()
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def from_json(cls, path: Path) -> "ProfileDatabase":
        payload = json.loads(Path(path).read_text())
        db = cls()
        for operator, configs in payload.items():
            for key_str, series in configs.items():
                batch, cpu, gpu = (int(part) for part in key_str.split(","))
                db.insert_series(
                    operator,
                    (batch, cpu, gpu),
                    [float(input_size) for input_size, _ in series],
                    [float(time_s) for _, time_s in series],
                )
        return db


def _interpolate(series: List[Tuple[float, float]], input_size: float) -> float:
    """Piecewise-linear interpolation of time over input size.

    Extrapolates linearly beyond the measured range (operator time is
    linear in work for a fixed configuration, so this is well-behaved),
    clamping at a small positive floor.
    """
    sizes = [point[0] for point in series]
    if len(series) == 1:
        # Single sample: scale proportionally through the origin offset.
        size0, time0 = series[0]
        return max(1e-9, time0 * input_size / size0) if size0 > 0 else time0
    index = bisect.bisect_left(sizes, input_size)
    if index == 0:
        (x0, y0), (x1, y1) = series[0], series[1]
    elif index >= len(series):
        (x0, y0), (x1, y1) = series[-2], series[-1]
    else:
        (x0, y0), (x1, y1) = series[index - 1], series[index]
    if x1 == x0:
        return y0
    slope = (y1 - y0) / (x1 - x0)
    return max(1e-9, y0 + slope * (input_size - x0))
