"""Azure-Functions-style trace ingestion.

The paper replays "the production trace from Azure Function [36], which
include 7-day request statistics".  The public dataset ships per-minute
invocation counts, one row per function:

    HashApp,HashFunction,Trigger,1,2,3,...,1440

This module reads that CSV shape into :class:`~repro.workloads.trace.Trace`
objects (one per function, 60-second resolution) and can also *write*
the format from our synthetic generators, so experiments exchange
workloads with tooling that expects the Azure layout.
"""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.workloads.trace import Trace

#: the dataset's resolution: one invocation count per minute.
AZURE_STEP_S = 60.0
_META_COLUMNS = 3  # HashApp, HashFunction, Trigger


class AzureTraceError(ValueError):
    """Raised for rows that do not follow the dataset layout."""


def _is_header_row(row: List[str]) -> bool:
    """The dataset header (its count columns are numeric labels)."""
    return (
        row[0].lower() == "hashapp" and row[1].lower() == "hashfunction"
    )


def _parse_row(index: int, row: List[str]) -> Tuple[str, Trace]:
    """One data row -> (``<app>/<function>``, 60-second trace)."""
    app, function, _trigger = row[:_META_COLUMNS]
    try:
        counts = np.array([float(cell) for cell in row[_META_COLUMNS:]])
    except ValueError:
        raise AzureTraceError(f"row {index}: non-numeric counts") from None
    if np.any(counts < 0):
        raise AzureTraceError(f"row {index}: negative invocation count")
    name = f"{app}/{function}"
    return name, Trace(name=name, step_s=AZURE_STEP_S, rps=counts / AZURE_STEP_S)


def _parsed(rows: Iterable[List[str]]) -> Iterator[Tuple[str, Trace]]:
    """The row rules every reader shares: ``(name, trace)`` per data row.

    Rejects short rows and repeated functions, and skips a header row.
    """
    seen = set()
    for index, row in enumerate(rows):
        if len(row) <= _META_COLUMNS:
            raise AzureTraceError(
                f"row {index}: expected metadata plus per-minute counts"
            )
        if _is_header_row(row):
            continue
        name, trace = _parse_row(index, row)
        if name in seen:
            raise AzureTraceError(f"duplicate function {name!r}")
        seen.add(name)
        yield name, trace


def parse_rows(rows: Iterable[List[str]]) -> Dict[str, Trace]:
    """Parse Azure-layout rows into per-function traces.

    Functions are keyed ``<app>/<function>``; counts become arrival
    rates (count / 60 s).  A header row (non-numeric counts) is
    skipped automatically.
    """
    return dict(_parsed(rows))


def iter_azure_csv(
    path: Path, limit: Optional[int] = None
) -> Iterator[Tuple[str, Trace]]:
    """Stream ``(name, trace)`` pairs from an Azure-layout CSV.

    Holds one row's trace in memory at a time (plus the set of names
    already seen, for duplicate detection) -- the constant-memory
    ingestion path for thousands-of-functions production traces.
    ``limit`` counts *data* rows; a header row is skipped for free.
    """
    with open(path, newline="") as handle:
        yield from itertools.islice(_parsed(csv.reader(handle)), limit)


def load_azure_csv(path: Path, limit: Optional[int] = None) -> Dict[str, Trace]:
    """Load an Azure-layout CSV file (optionally only the first rows).

    ``limit`` bounds the number of *parsed traces*: a header-less file
    with ``limit=N`` yields exactly N functions (it used to yield N+1,
    the cap being applied to raw lines under a header assumption).
    """
    return dict(iter_azure_csv(path, limit=limit))


def write_azure_csv(path: Path, traces: Dict[str, Trace]) -> None:
    """Write traces in the Azure layout (per-minute counts).

    Each minute's count is the *integral* of the rate over that minute
    (cells weighted by their overlap with the minute), so the written
    counts sum to the trace's ``expected_requests()`` even when
    ``step_s`` does not divide 60.  An unweighted per-minute average
    would over- or under-count cells straddling a minute boundary.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        minutes = max(
            int(np.ceil(trace.duration_s / AZURE_STEP_S))
            for trace in traces.values()
        )
        writer.writerow(
            ["HashApp", "HashFunction", "Trigger"]
            + [str(i + 1) for i in range(minutes)]
        )
        for name, trace in traces.items():
            app, _sep, function = name.partition("/")
            counts = []
            for minute in range(minutes):
                start = minute * AZURE_STEP_S
                end = min(start + AZURE_STEP_S, trace.duration_s)
                if start >= trace.duration_s:
                    counts.append(0.0)
                    continue
                lo = int(start / trace.step_s)
                hi = min(
                    max(lo + 1, int(np.ceil(end / trace.step_s))),
                    trace.rps.size,
                )
                cell_starts = np.arange(lo, hi) * trace.step_s
                overlaps = np.clip(
                    np.minimum(end, cell_starts + trace.step_s)
                    - np.maximum(start, cell_starts),
                    0.0,
                    None,
                )
                count = float(np.dot(trace.rps[lo:hi], overlaps))
                counts.append(round(count, 6))
            writer.writerow([app, function or "f", "http"] + counts)


def aggregate(traces: Dict[str, Trace], name: str = "aggregate") -> Trace:
    """Sum several same-resolution traces into one (cluster-level load)."""
    if not traces:
        raise AzureTraceError("no traces to aggregate")
    steps = {trace.step_s for trace in traces.values()}
    if len(steps) != 1:
        raise AzureTraceError("traces must share one resolution")
    length = max(trace.rps.size for trace in traces.values())
    total = np.zeros(length)
    for trace in traces.values():
        total[: trace.rps.size] += trace.rps
    return Trace(name=name, step_s=steps.pop(), rps=total)
