"""List the ``src/repro`` function bodies that a pytest selection never runs.

Usage (from the repository root)::

    PYTHONPATH=src python tools/never_run.py                  # tier-1
    PYTHONPATH=src python tools/never_run.py benchmarks/ \\
        --ignore=benchmarks/e2e --benchmark-disable             # paper runs

Every argument goes to pytest unchanged.  The selection runs in this
process under a ``sys.setprofile`` hook that records each code object
it calls.  The script then prints every function body under
``src/repro`` whose code object never ran, one per line with its line
count, followed by the total.  It exits with pytest's status.  It needs
nothing beyond the standard library and the pytest the suite runs on,
and it is not part of tier-1 (the hook makes the suite a few times
slower).

Two traps, both handled or documented here:

* pytest-benchmark clears profile hooks around the timed call, so the
  paper benchmarks need ``--benchmark-disable``: without it, everything
  a benchmark body calls counts as never run.
* A profile hook that raises is removed by the interpreter.  The
  campaign timeout tests raise ``RunTimeout`` from a ``SIGALRM`` handler,
  which can land inside the hook, so the hook is re-armed before every
  test phase (setup, call and teardown).

Code that runs only in a child process (a campaign pool worker, a
``subprocess`` CLI call) is not seen and counts as never run.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: ``(file, first line)`` -> ``(qualified name, line count)``.  The first
#: line is the first decorator's, which is the ``co_firstlineno`` of a
#: decorated function's code object.
Bodies = Dict[Tuple[str, int], Tuple[str, int]]


def function_bodies(root: Path = SRC) -> Bodies:
    """Every ``def`` under ``root``, nested ones included."""
    bodies: Bodies = {}

    def visit(path: str, nodes: List[ast.stmt], prefix: str) -> None:
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                name = prefix + node.name
                bodies[(path, first)] = (name, node.end_lineno - first + 1)
                visit(path, node.body, name + ".")
            elif isinstance(node, ast.ClassDef):
                visit(path, node.body, prefix + node.name + ".")
            else:
                for block in ("body", "orelse", "finalbody", "handlers"):
                    visit(path, getattr(node, block, []), prefix)

    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(str(path.resolve()), tree.body, "")
    return bodies


_called: Set[object] = set()


def _hook(frame, event, _arg):
    if event == "call":
        _called.add(frame.f_code)


def _arm() -> None:
    sys.setprofile(_hook)
    threading.setprofile(_hook)


class _Rearm:
    """Re-arms the hook before each test phase (see the module docstring)."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        _arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        _arm()

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_teardown(self, item):
        _arm()


def main(argv: List[str]) -> int:
    _arm()
    try:
        status = pytest.main(argv, plugins=[_Rearm()])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    ran = {(str(Path(code.co_filename).resolve()), code.co_firstlineno) for code in _called}
    bodies = function_bodies()
    never = sorted(key for key in bodies if key not in ran)
    for path, first in never:
        name, lines = bodies[(path, first)]
        rel = Path(path).relative_to(REPO_ROOT)
        print(f"{rel}:{first}  {name}  ({lines} lines)")
    total = sum(bodies[key][1] for key in never)
    print(f"never run: {len(never)} of {len(bodies)} function bodies, {total} lines")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
