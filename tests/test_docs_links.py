"""Documentation link check: every relative link resolves.

Walks the repo's markdown documentation (README, docs/, benchmarks/)
and asserts that every relative markdown link points at a file or
directory that exists.  External (http/https/mailto) links and pure
in-page anchors are skipped -- the check must work offline.

Doubles as the coverage gate for ``docs/paper-map.md``: the map must
mention every ``benchmarks/bench_*.py`` experiment script and each of
Eq. 1-8.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

DOC_FILES = sorted(
    [
        REPO_ROOT / "README.md",
        REPO_ROOT / "benchmarks" / "README.md",
        *(REPO_ROOT / "docs").glob("*.md"),
    ]
)

#: [text](target) -- excluding images; tolerates titles after the URL.
_LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_EXTERNAL = ("http://", "https://", "mailto:")


def _relative_links(path: Path):
    for target in _LINK_RE.findall(path.read_text()):
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        yield target.split("#", 1)[0]


def test_doc_files_exist():
    assert DOC_FILES, "no documentation files found"
    for required in ("paper-map.md", "benchmarks.md", "architecture.md"):
        assert any(path.name == required for path in DOC_FILES), required


@pytest.mark.parametrize("doc", DOC_FILES, ids=lambda p: str(p.relative_to(REPO_ROOT)))
def test_relative_links_resolve(doc):
    broken = [
        target
        for target in _relative_links(doc)
        if not (doc.parent / target).exists()
    ]
    assert not broken, f"{doc.relative_to(REPO_ROOT)} has broken links: {broken}"


def test_paper_map_names_every_bench_script():
    text = (REPO_ROOT / "docs" / "paper-map.md").read_text()
    scripts = sorted(
        path.name for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
    )
    assert scripts, "no benchmark scripts found"
    missing = [name for name in scripts if name not in text]
    assert not missing, f"paper-map.md misses bench scripts: {missing}"


def test_paper_map_covers_equations_1_to_8():
    text = (REPO_ROOT / "docs" / "paper-map.md").read_text()
    missing = [
        f"Eq. {number}"
        for number in range(1, 9)
        if f"Eq. {number}" not in text
    ]
    assert not missing, f"paper-map.md misses equations: {missing}"


def test_telemetry_doc_lists_every_event_kind():
    """Each schema row has a line in docs/telemetry.md naming its fields."""
    from repro.telemetry import EVENT_SCHEMA

    lines = (REPO_ROOT / "docs" / "telemetry.md").read_text().splitlines()
    rows = {
        line.split("|")[1].strip().strip("`"): line
        for line in lines
        if line.startswith("| `")
    }
    missing = [kind for kind in EVENT_SCHEMA if kind not in rows]
    assert not missing, f"telemetry.md misses event kinds: {missing}"
    for kind, schema in EVENT_SCHEMA.items():
        absent = [f for f in schema.fields if f"`{f}`" not in rows[kind]]
        assert not absent, f"telemetry.md row {kind!r} misses fields {absent}"


def test_paper_map_names_every_perf_benchmark():
    text = (REPO_ROOT / "docs" / "paper-map.md").read_text()
    from repro.bench import BENCHMARKS

    missing = [name for name in sorted(BENCHMARKS) if name not in text]
    assert not missing, f"paper-map.md misses perf-suite benchmarks: {missing}"
