"""Plain-text table / series formatting shared by the benchmark harness.

Every benchmark prints the rows or series of its paper artifact through
these helpers so that EXPERIMENTS.md and the bench output line up.
"""

from __future__ import annotations

from typing import Sequence, Union

Number = Union[int, float]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e6):
            return f"{value:.3e}"
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Monospace table with per-column widths."""
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered)) if rendered
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def line(cells):
        return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))
    out = [line(headers), "-+-".join("-" * w for w in widths)]
    out.extend(line(r) for r in rendered)
    return "\n".join(out)


def banner(title: str) -> str:
    """A boxed section title for benchmark output."""
    bar = "=" * max(8, len(title))
    return f"\n{bar}\n{title}\n{bar}"
