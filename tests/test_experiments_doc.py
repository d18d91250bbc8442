"""EXPERIMENTS.md's Measured numbers are read back from the artifacts.

Each headline row's Measured cell quotes numbers that a paper benchmark
writes to ``benchmarks/results/``.  The test rebuilds that list of
numbers from the artifact and compares it with every number in the
cell, so it fails when either the document or the artifact moves.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "EXPERIMENTS.md"
RESULTS = ROOT / "benchmarks" / "results"
NUMBER = re.compile(r"\d+(?:[.,]\d+)*")


def _artifact(name: str) -> str:
    return (RESULTS / f"{name}.txt").read_text()


def _rows(name: str) -> list:
    """The artifact's table as one ``{column: cell}`` dict per row."""
    lines = _artifact(name).splitlines()
    rule = next(
        i for i, line in enumerate(lines) if line and set(line) <= set("-+")
    )
    header = [cell.strip() for cell in lines[rule - 1].split("|")]
    rows = []
    for line in lines[rule + 1:]:
        if "|" not in line:
            break
        rows.append(dict(zip(header, (c.strip() for c in line.split("|")))))
    return rows


def _cell(rows: list, column: str, **match: str) -> str:
    """One cell, digits only: the row whose columns equal ``match``."""
    (row,) = [r for r in rows if all(r[k] == v for k, v in match.items())]
    return NUMBER.search(row[column]).group()


def _measured(label: str) -> list:
    """Every number in the Measured cell of the row ``label`` opens."""
    (line,) = [
        line for line in DOC.read_text().splitlines()
        if line.startswith(f"| {label}")
    ]
    return NUMBER.findall(line.split("|")[3])


def _fig11_system_throughput() -> list:
    rows = _rows("fig11_system_throughput")
    return [
        _cell(rows, "infless gain", app=app, system=system)
        for system in ("openfaas+", "batch")
        for app in ("OSVT", "QA-robot")
    ]


def _fig12a() -> list:
    rows = _rows("fig12a_normalized_throughput_traces")
    return [
        _cell(rows, "infless gain", trace=trace, system=system)
        for system in ("openfaas+", "batch")
        for trace in ("sporadic", "periodic", "bursty")
    ]


def _fig14() -> list:
    return re.findall(r"-> (\d+)% reduction", _artifact("fig14_provisioning"))


def _fig15a() -> list:
    rows = _rows("fig15a_slo_violation")
    numbers = []
    for system in ("infless", "openfaas+"):
        rates = [
            _cell(rows, "violations", trace=trace, system=system)
            for trace in ("bursty", "sporadic")
        ]
        numbers += sorted(rates, key=float)
    return numbers


def _fig17b() -> list:
    rows = _rows("fig17b_resource_fragments")
    return [
        _cell(rows, "fragment ratio", system=system)
        for system in ("infless", "openfaas+", "batch+rs", "batch")
    ]


def _fig18b() -> list:
    rows = _rows("fig18b_throughput_vs_slo")
    infless = [r for r in rows if r["system"] == "infless"]
    values = [r["thpt/resource"] for r in infless]
    slos = [NUMBER.search(r["SLO"]).group() for r in infless]
    rise = float(values[-1]) / float(values[0]) - 1.0
    return values + slos + [f"{rise:.0%}".rstrip("%")]


@pytest.mark.parametrize(
    "label, expected",
    [
        ("**Fig. 11** max throughput", _fig11_system_throughput),
        ("**Fig. 12(a)**", _fig12a),
        ("**Fig. 14**", _fig14),
        ("**Fig. 15(a)**", _fig15a),
        ("**Fig. 17(b)**", _fig17b),
        ("**Fig. 18(b)**", _fig18b),
    ],
    ids=["fig11", "fig12a", "fig14", "fig15a", "fig17b", "fig18b"],
)
def test_measured_column_matches_artifact(label, expected):
    assert _measured(label) == expected(), (
        f"EXPERIMENTS.md's Measured cell for {label} disagrees with"
        " benchmarks/results/; rewrite one from the other"
    )
