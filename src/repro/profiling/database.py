"""The operator profile database (the paper's "register repository").

Stores measured 5-tuples ``<p, b, c, g, t>`` per operator kind and
answers the predictor's lookups, interpolating linearly across the
input-size grid (exact configurations in ``b``/``c``/``g`` are always
profiled; input sizes vary continuously across models, hence the
interpolation).

The store is columnar: each operator kind is one block of 2-D arrays,
one row per ``(b, c, g)`` series, so :meth:`ProfileDatabase.lookup_all`
answers a lookup for every configuration of a kind in one numpy pass.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.ops.operator import OperatorProfile

ConfigKey = Tuple[int, int, int]  # (batch, cpu, gpu)


class ProfileLookupError(KeyError):
    """Raised when the database cannot answer a lookup."""


class _Block:
    """One operator kind's profiles: row ``i`` is the series of ``keys[i]``.

    ``sizes[i, :lengths[i]]`` and ``times[i, :lengths[i]]`` hold the
    series' points sorted by size, then time (the order sorting the
    ``(size, time)`` tuples gives).  A row shorter than the arrays is
    padded with ``inf`` sizes, which no bisection counts as smaller
    than a query.
    """

    __slots__ = ("keys", "rows", "sizes", "times", "lengths")

    def __init__(
        self,
        keys: Tuple[ConfigKey, ...],
        sizes: np.ndarray,
        times: np.ndarray,
        lengths: np.ndarray,
    ) -> None:
        self.keys = keys
        self.rows: Dict[ConfigKey, int] = {key: row for row, key in enumerate(keys)}
        self.sizes = sizes
        self.times = times
        self.lengths = lengths

    def points(self, row: int) -> List[Tuple[float, float]]:
        length = self.lengths[row]
        return list(
            zip(self.sizes[row, :length].tolist(), self.times[row, :length].tolist())
        )

    def add(self, key: ConfigKey, points: List[Tuple[float, float]]) -> None:
        """Merge ``points`` into ``key``'s series (appending a new row)."""
        row = self.rows.get(key)
        if row is None:
            row = len(self.keys)
            self.keys += (key,)
            self.rows[key] = row
            self.sizes = np.vstack([self.sizes, np.full(self.sizes.shape[1], np.inf)])
            self.times = np.vstack([self.times, np.zeros(self.times.shape[1])])
            self.lengths = np.append(self.lengths, 0)
        else:
            points = self.points(row) + points
        points.sort()
        width = len(points)
        if width > self.sizes.shape[1]:
            pad = width - self.sizes.shape[1]
            self.sizes = np.pad(self.sizes, ((0, 0), (0, pad)), constant_values=np.inf)
            self.times = np.pad(self.times, ((0, 0), (0, pad)))
        self.sizes[row, :width], self.times[row, :width] = zip(*points)
        self.lengths[row] = width


class ProfileDatabase:
    """In-memory columnar profile store with input-size interpolation."""

    def __init__(self) -> None:
        # operator -> its block, both in insertion order
        self._blocks: Dict[str, _Block] = {}
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
        position would (duplicated or out-of-order sizes included).  An
        empty series adds nothing.
        """
        if len(input_sizes) != len(times):
            raise ValueError("input_sizes and times differ in length")
        if key[0] < 1:
            raise ValueError("batch must be >= 1")
        if len(times) and min(times) <= 0:
            raise ValueError("profiled time must be positive")
        if not len(times):
            return
        block = self._blocks.get(operator)
        if block is None:
            empty = np.empty((0, 0))
            block = _Block((), empty, empty, np.empty(0, dtype=int))
            self._blocks[operator] = block
        block.add(key, list(zip(map(float, input_sizes), map(float, times))))
        self._count += len(times)

    def insert_block(
        self,
        operator: str,
        keys: Sequence[ConfigKey],
        input_sizes: Sequence[float],
        times: np.ndarray,
    ) -> None:
        """Add one series per key, all over the same input sizes.

        ``times[i, j]`` is ``keys[i]``'s time at ``input_sizes[j]``.
        Stores what :meth:`insert_series` row by row would; a new
        operator with distinct keys takes the arrays whole, sorting
        its rows only when ``input_sizes`` is not strictly increasing.
        """
        times = np.asarray(times, dtype=float)
        sizes = np.asarray(input_sizes, dtype=float)
        if times.shape != (len(keys), len(sizes)):
            raise ValueError("times must be a (keys x input_sizes) array")
        if any(key[0] < 1 for key in keys):
            raise ValueError("batch must be >= 1")
        if times.size and times.min() <= 0:
            raise ValueError("profiled time must be positive")
        if (
            operator in self._blocks
            or len(set(keys)) != len(keys)
            or not times.size
        ):
            for key, row in zip(keys, times.tolist()):
                self.insert_series(operator, key, input_sizes, row)
            return
        sizes = np.broadcast_to(sizes, times.shape)
        if (np.diff(sizes[0]) > 0).all():
            sizes = sizes.copy()
        else:
            order = np.lexsort((times, sizes), axis=1)
            sizes = np.take_along_axis(sizes, order, axis=1)
            times = np.take_along_axis(times, order, axis=1)
        lengths = np.full(len(keys), times.shape[1])
        self._blocks[operator] = _Block(tuple(keys), sizes, times, lengths)
        self._count += times.size

    def __len__(self) -> int:
        return self._count

    @property
    def operators(self) -> List[str]:
        return sorted(self._blocks)

    def _block(self, operator: str) -> _Block:
        block = self._blocks.get(operator)
        if block is None:
            raise ProfileLookupError(f"no profiles for operator {operator!r}")
        return block

    def configs_for(self, operator: str) -> List[ConfigKey]:
        return sorted(self._block(operator).keys)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def lookup_all(
        self, operator: str, input_size: float
    ) -> Tuple[Tuple[ConfigKey, ...], np.ndarray]:
        """Per-call execution time of every configuration of one kind.

        Returns the kind's ``(b, c, g)`` keys in insertion order and
        their per-call times at ``input_size``, each interpolated over
        its own profiled input sizes.  Raises ProfileLookupError when
        the operator was never profiled.
        """
        block = self._block(operator)
        return block.keys, _interpolate(
            block.sizes, block.times, block.lengths, input_size
        )

    def has_config(self, operator: str, batch: int, cpu: int, gpu: int) -> bool:
        block = self._blocks.get(operator)
        return block is not None and (batch, cpu, gpu) in block.rows

    def lookup_error(self, operator: str, key: ConfigKey) -> ProfileLookupError:
        """The error for a ``(b, c, g)`` configuration never profiled.

        The scheduler only explores profiled configurations, so a
        lookup that needs a missing one signals a programming error.
        """
        if operator not in self._blocks:
            return ProfileLookupError(f"no profiles for operator {operator!r}")
        batch, cpu, gpu = key
        return ProfileLookupError(
            f"operator {operator!r} has no profile at (b={batch}, c={cpu}, g={gpu})"
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_json(self, path: Path) -> None:
        """Serialise the database (e.g. to ship pre-profiled operators)."""
        payload = {
            operator: {
                ",".join(map(str, key)): block.points(row)
                for row, key in enumerate(block.keys)
            }
            for operator, block in self._blocks.items()
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


def _interpolate(
    sizes: np.ndarray, times: np.ndarray, lengths: np.ndarray, input_size: float
) -> np.ndarray:
    """Piecewise-linear interpolation of each row's time at ``input_size``.

    Extrapolates linearly beyond the measured range (operator time is
    linear in work for a fixed configuration, so this is well-behaved),
    clamping at a small positive floor.  A single-point row scales its
    time through the origin; two equal sizes bracketing the query give
    the lower point's time.
    """
    rows = np.arange(len(lengths))
    # bisect_left over each row: padding sizes are inf and never count.
    index = np.count_nonzero(sizes < input_size, axis=1)
    # The bracketing pair; single-point rows are overwritten below.
    upper = np.minimum(np.maximum(index, 1), lengths - 1)
    lower = np.maximum(upper - 1, 0)
    x0, x1 = sizes[rows, lower], sizes[rows, upper]
    y0, y1 = times[rows, lower], times[rows, upper]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = (y1 - y0) / (x1 - x0)
        result = np.where(
            x1 == x0, y0, np.maximum(1e-9, y0 + slope * (input_size - x0))
        )
        single = lengths == 1
        if single.any():
            size0, time0 = sizes[single, 0], times[single, 0]
            result[single] = np.where(
                size0 > 0, np.maximum(1e-9, time0 * input_size / size0), time0
            )
    return result
