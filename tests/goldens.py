"""The one store of pinned outputs: ``assert_golden(name, value)``.

Every output the tests pin byte for byte -- reports, traces, candidate
rows, profiles -- is one canonical JSON file (indent 2, sorted keys,
trailing newline) under ``tests/data/goldens/<name>.json``.  A value is
compared after a JSON round trip, so floats compare at full precision.
A mismatch names the first differing key path with both values, and
both lengths where a list differs, so a reader sees which number moved.

An output too large to store (megabytes of rows, profiles or trace
events) is pinned by :func:`digest` or :func:`digest_rows`: the
whole-output digest plus one digest per group, so a failure still names
the group that moved.

Regenerate the store only for a deliberate behaviour change, and say
why in the commit message::

    PYTHONPATH=src python -m pytest tests --update-goldens

The run rewrites every entry whose value moved and lists the changed
names at the end.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

_ABSENT = object()


def canonical(value: Any) -> str:
    """The bytes a golden file holds for ``value``."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def digest(data: Union[str, bytes]) -> str:
    """The sha256 hex digest of ``data`` (text is UTF-8 encoded)."""
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def digest_rows(rows: Sequence) -> Dict[str, Any]:
    """Rows too large to store: their count and the digest of their repr."""
    return {"rows": len(rows), "sha256": digest(repr(rows))}


def _show(value: Any) -> str:
    if value is _ABSENT:
        return "(absent)"
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 160 else text[:157] + "..."


def _same(stored: Any, current: Any) -> bool:
    if stored is _ABSENT or current is _ABSENT:
        return stored is current
    return json.dumps(stored, sort_keys=True) == json.dumps(current, sort_keys=True)


def first_difference(stored: Any, current: Any, path: str = "") -> Optional[str]:
    """Where two JSON values first differ, as a message (None if equal).

    Keys are walked in sorted order and list items by index; scalars
    are equal only when they encode to the same JSON, so ``1`` differs
    from ``1.0`` and a one-ulp float change shows in both values.
    """
    if isinstance(stored, dict) and isinstance(current, dict):
        for key in sorted(stored.keys() | current.keys()):
            found = first_difference(
                stored.get(key, _ABSENT), current.get(key, _ABSENT),
                f"{path}.{key}" if path else key,
            )
            if found:
                return found
        return None
    if isinstance(stored, list) and isinstance(current, list):
        pairs = itertools.zip_longest(stored, current, fillvalue=_ABSENT)
        for index, (old, new) in enumerate(pairs):
            found = first_difference(old, new, f"{path}[{index}]")
            if found:
                if len(stored) != len(current):
                    found += (
                        f" ({path or 'the list'} holds {len(stored)} items"
                        f" stored, {len(current)} now)"
                    )
                return found
        return None
    if _same(stored, current):
        return None
    return f"{path or 'the value'}: stored {_show(stored)}, now {_show(current)}"


class GoldenStore:
    """One canonical JSON file per name, compared or rewritten."""

    def __init__(self, directory: Path, update: bool = False) -> None:
        self.directory = directory
        self.update = update
        #: names this session rewrote, in the order it rewrote them.
        self.changed: List[str] = []

    def names(self, prefix: str) -> List[str]:
        """The stored names that start with ``prefix``, sorted."""
        return sorted(
            path.stem for path in self.directory.glob(f"{prefix}*.json")
        )

    def check(self, name: str, value: Any) -> None:
        """Fail unless ``value`` matches the stored entry (or rewrite it)."""
        text = canonical(value)
        path = self.directory / f"{name}.json"
        stored = path.read_text() if path.exists() else None
        if stored == text:
            return
        if self.update:
            self.directory.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            self.changed.append(name)
            return
        if stored is None:
            raise AssertionError(
                f"golden {name!r} has no stored entry ({path.name}); write"
                " it with `pytest --update-goldens`"
            )
        where = first_difference(json.loads(stored), json.loads(text))
        raise AssertionError(
            f"golden {name!r} moved at {where}" if where else
            f"golden {name!r}: {path.name} is not canonical JSON; rewrite it"
            " with `pytest --update-goldens`"
        )


#: the store every test pins against; ``--update-goldens`` turns on
#: its rewrite mode (``tests/conftest.py``).
STORE = GoldenStore(Path(__file__).parent / "data" / "goldens")


def assert_golden(name: str, value: Any) -> None:
    """Fail unless ``value`` matches ``tests/data/goldens/<name>.json``."""
    STORE.check(name, value)
