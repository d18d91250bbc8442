"""The operator profile database (the paper's "register repository").

Stores measured 5-tuples ``<p, b, c, g, t>`` per operator kind and
answers the predictor's lookups, interpolating linearly across the
input-size grid (exact configurations in ``b``/``c``/``g`` are always
profiled; input sizes vary continuously across models, hence the
interpolation).

The store is columnar: each operator kind is one block of 2-D arrays,
one row per ``(b, c, g)`` series, so :meth:`ProfileDatabase.lookup_all`
answers a lookup for every configuration of a kind in one numpy pass.
:meth:`ProfileDatabase.insert_block` is the one write path: a kind's
block is written once, whole (a profiler sweep or a file's series).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

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


class ProfileDatabase:
    """In-memory columnar profile store with input-size interpolation."""

    def __init__(self) -> None:
        # operator -> its block, both in insertion order
        self._blocks: Dict[str, _Block] = {}
        self._count = 0

    # ------------------------------------------------------------------
    # population
    # ------------------------------------------------------------------
    def insert_block(
        self,
        operator: str,
        keys: Sequence[ConfigKey],
        input_sizes: Union[Sequence[float], np.ndarray],
        times: np.ndarray,
    ) -> None:
        """Store ``operator``'s profiles, one series per key, in one write.

        ``times[i, j]`` is ``keys[i]``'s time at input size ``j``: at
        ``input_sizes[j]`` when the sizes are one vector every key
        shares, or at ``input_sizes[i, j]`` when they are a ``(keys x
        n)`` array, a shorter series padded with ``inf`` sizes (whose
        times are ignored).  Each series is stored sorted by size, then
        time.  Raises ValueError when the operator already has
        profiles, a key repeats, a series is empty, a batch is below 1
        or a time is not positive.
        """
        times = np.asarray(times, dtype=float)
        sizes = np.asarray(input_sizes, dtype=float)
        if operator in self._blocks:
            raise ValueError(f"operator {operator!r} already has profiles")
        if not len(keys) or times.shape != (len(keys), *sizes.shape[-1:]):
            raise ValueError(
                f"operator {operator!r}: times must be a non-empty (keys x input sizes) array"
            )
        sizes = np.broadcast_to(sizes, times.shape)
        measured = sizes < np.inf
        lengths = np.count_nonzero(measured, axis=1)
        positive = (times > 0).all(axis=1, where=measured).tolist()
        seen = set()
        for key, length, ok in zip(keys, lengths.tolist(), positive):
            problem = (
                "given twice" if key in seen
                else "has batch < 1" if key[0] < 1
                else "has no points" if not length
                else "has a non-positive time" if not ok
                else ""
            )
            if problem:
                raise ValueError(f"operator {operator!r}: key {key} {problem}")
            seen.add(key)
        if not (sizes[:, 1:] > sizes[:, :-1]).all():  # padded rows never pass
            order = np.lexsort((times, sizes), axis=1)
            sizes = np.take_along_axis(sizes, order, axis=1)
            times = np.take_along_axis(times, order, axis=1)
        self._blocks[operator] = _Block(tuple(keys), sizes, times, lengths)
        self._count += int(lengths.sum())

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
        """Read what :meth:`to_json` wrote, one block per operator.

        Raises ValueError naming the operator and the key when the
        file is not that shape.
        """
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ValueError("a profile file maps operators to their series")
        db = cls()
        for operator, configs in payload.items():
            if not isinstance(configs, dict):
                raise ValueError(f"operator {operator!r}: expected an object of series")
            series = [
                _read_series(operator, text, points) for text, points in configs.items()
            ]
            width = max((len(points) for _key, points in series), default=0)
            sizes = np.full((len(series), width), np.inf)
            times = np.ones((len(series), width))
            for row, (_key, points) in enumerate(series):
                sizes[row, :len(points)], times[row, :len(points)] = points.T
            db.insert_block(operator, [key for key, _ in series], sizes, times)
        return db


def _read_series(operator: str, text: str, points: Any) -> Tuple[ConfigKey, np.ndarray]:
    """One ``"b,c,g": [[size, time], ...]`` entry of a profile file."""
    try:
        batch, cpu, gpu = map(int, text.split(","))
        array = np.array(points, dtype=float)
        if array.shape[1:] != (2,):
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(
            f"operator {operator!r}: entry {text!r} is not \"b,c,g\": [[size, time], ...]"
        ) from None
    return (batch, cpu, gpu), array


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
