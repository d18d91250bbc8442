"""Every example script imports cleanly.

Only ``examples/function_chain.py`` runs in CI, so a renamed or deleted
package export would otherwise break the other examples silently.  Each
script guards its work behind ``__main__``; loading it as a module runs
its imports and top-level definitions only.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES, "no example scripts found"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_imports(script):
    spec = importlib.util.spec_from_file_location(f"example_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
