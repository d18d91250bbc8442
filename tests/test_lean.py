"""Two AST scans of ``src/repro`` that keep the package lean.

(a) No module reads another object's private state: ``x._name`` is
allowed only on ``self``, ``cls`` or ``super()``, or inside a class that
defines ``_name`` itself (a same-class read such as ``other._key`` in an
ordering method).  State another module needs is a public attribute or
method of its owner.

(b) Every function, method and class in src has a caller outside its
own definition: its name appears in the code of another part of src,
in ``benchmarks/``, in ``examples/`` or in the CI workflow.  Package
``__init__`` re-exports, comments, docstrings and the prose of messages
do not count in src; a string constant that is exactly the name does
(``getattr`` reads it).  Code that only tests call is deleted, unless
:data:`TEST_ONLY_KEEP` names it with a reason.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"

#: Definitions only tests call, each with the reason it stays.
TEST_ONLY_KEEP: Dict[str, str] = {
    "is_zero": "ResourceVector.is_zero: the cluster conservation tests"
    " assert a fully released cluster with it",
    "placed_capacity": "SchedulingOutcome.placed_capacity: the scheduler"
    " property tests check Eq. 3 coverage with it",
    "relative_error_bound": "the sketch's published accuracy guarantee,"
    " which the sketch tests assert percentiles against",
    "load_envelope": "reads the checked-in fluid error envelope that the"
    " fluid validation tests compare against",
    "parse_rows": "the Azure row rules on in-memory rows; iter_azure_csv"
    " streams a file through the same loop, which the tests reach here",
    "resource_efficiency": "Eq. 10 as the paper writes it: the reference"
    " that the scheduler's inlined score must match bit for bit"
    " (test_efficiency.TestSchedulerAgreesWithReference)",
    "total_latency_s": "QueueEstimate.total_latency_s: the analytic"
    " model's end-to-end latency, which test_queueing checks the"
    " discrete-event runtime against",
    "to_json": "ProfileDatabase.to_json: the profiles.* goldens"
    " (tests/data/goldens/) digest its bytes, and from_json reads them back",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: ``._name`` not on ``self``, ``cls`` or ``super()``: a file without
#: one has no private read to check, so the scan skips its AST walk.
_FOREIGN_PRIVATE = re.compile(r"(?<!\bself)(?<!\bcls)(?<!super\(\))\._[A-Za-z]")

_Definition = Tuple[Path, str, int, int]


def _src_files() -> List[Path]:
    return sorted(SRC.rglob("*.py"))


@functools.lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


# ----------------------------------------------------------------------
# (a) cross-object private reads
# ----------------------------------------------------------------------
def _own_names(cls: ast.ClassDef) -> Set[str]:
    """Names a class defines: its body's defs and assignments, and
    every ``self.<name>`` its methods assign."""
    names: Set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def _is_own_object(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in ("self", "cls")
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "super"
    )


def private_reads() -> List[str]:
    """Every ``x._name`` in src that reaches into another object."""
    found = []
    for path in _src_files():
        if not _FOREIGN_PRIVATE.search(path.read_text()):
            continue
        tree = _parse(path)
        classes = [
            (node.lineno, node.end_lineno, _own_names(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        ]
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not _is_own_object(node.value)
            ):
                continue
            enclosing = [c for c in classes if c[0] <= node.lineno <= c[1]]
            # the innermost class is the one that starts last
            if enclosing and node.attr in max(enclosing)[2]:
                continue
            rel = path.relative_to(REPO_ROOT)
            found.append(f"{rel}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_no_cross_object_private_reads():
    assert private_reads() == []


# ----------------------------------------------------------------------
# (b) definitions only tests call
# ----------------------------------------------------------------------
def _statements(nodes: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Every statement, nested ones included (expressions hold no defs)."""
    for node in nodes:
        yield node
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _statements(getattr(node, block, []))


def _definitions(path: Path, tree: ast.Module) -> Iterator[_Definition]:
    for node in _statements(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue  # protocol methods: the language calls them
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield path, node.name, first, node.end_lineno


def _code_words(tree: ast.Module) -> Iterator[Tuple[int, str]]:
    """``(line, word)`` of every name ``tree``'s code uses or binds, and
    of every string constant that is one name (``getattr(obj, "name")``).
    Comments, docstrings and the prose of messages are not code: they
    mention a name without calling it."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.end_lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.lineno, node.arg
        elif isinstance(node, ast.alias):
            for word in _WORD.findall(f"{node.name} {node.asname or ''}"):
                yield node.lineno, word
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and _WORD.fullmatch(node.value)
        ):
            yield node.lineno, node.value


def _outside_words() -> Set[str]:
    """Identifiers in the benchmarks, examples and CI workflow."""
    files = [
        *(REPO_ROOT / "benchmarks").rglob("*.py"),
        *(REPO_ROOT / "examples").rglob("*.py"),
        *(path for path in (REPO_ROOT / ".github").rglob("*") if path.is_file()),
    ]
    words: Set[str] = set()
    for path in files:
        words.update(_WORD.findall(path.read_text()))
    return words


@functools.lru_cache(maxsize=None)
def definitions_only_tests_call() -> Tuple[Tuple[str, str], ...]:
    """``(name, "path:line")`` of every src definition whose name the
    code of src uses nowhere but inside definitions of that name."""
    words: Dict[Path, List[Tuple[int, str]]] = {}
    definitions: List[_Definition] = []
    src_words: Counter = Counter()
    for path in _src_files():
        definitions += _definitions(path, _parse(path))
        if path.name != "__init__.py":
            words[path] = list(_code_words(_parse(path)))
            src_words.update(word for _line, word in words[path])
    outside = _outside_words()
    by_name: Dict[str, List[_Definition]] = {}
    for definition in definitions:
        by_name.setdefault(definition[1], []).append(definition)
    unused = []
    for name, named in by_name.items():
        if name in outside:
            continue
        # Occurrences inside any definition of the name do not count,
        # so two test-only methods named alike do not keep each other.
        inside = sum(
            1
            for path, _name, first, last in named
            for line, word in words.get(path, ())
            if word == name and first <= line <= last
        )
        if src_words[name] == inside:
            unused += [
                (name, f"{path.relative_to(REPO_ROOT)}:{first}")
                for path, _name, first, _last in named
            ]
    return tuple(unused)


def test_no_definitions_only_tests_call():
    unused = [
        (name, where) for name, where in definitions_only_tests_call()
        if name not in TEST_ONLY_KEEP
    ]
    assert unused == [], "delete these, or keep one in TEST_ONLY_KEEP with a reason"


def test_keep_list_has_no_stale_entries():
    """A kept name that gained a src caller leaves the list."""
    flagged = {name for name, _where in definitions_only_tests_call()}
    assert sorted(set(TEST_ONLY_KEEP) - flagged) == []
