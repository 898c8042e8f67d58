"""Every name ``src/repro`` defines is used outside the tests.

An ``ast`` census: each module- or class-level ``def`` / ``class``
under ``src/repro`` must be named — by a ``Name``, an ``Attribute``
or a keyword argument — somewhere in ``src/``, ``benchmarks/``,
``tools/`` or ``examples/``.  The definition itself does not count,
and neither does an import: a name a package ``__init__`` only
re-exports is used by nothing.  A name only the tests call is a
second surface that nothing in the system needs; delete it, or, when
it is how a test probes the system, add it to :data:`TEST_PROBES`
with the reason.

Exempt by rule: dunders (the interpreter calls them), reactor
procedures (``@<type>.procedure``; reached by name through
``submit``), ``ast.NodeVisitor`` ``visit_*`` methods and the chaos
injector's ``_do_*`` handlers (dispatched by fault kind).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "benchmarks", "tools", "examples")

#: Names only tests call, each the one way a test can observe or
#: force what it checks.
TEST_PROBES = {
    "mark_cold": "forces a cold reactor (cache-affinity eviction)",
    "held_count": "sees a lock that outlived its transaction",
    "make_spec": "builds an index spec for storage property tests",
    "log_records": "reads every redo record unsealed",
    "byte_size": "checks a record's size against the flush threshold",
    "read_as_of": "reads one row image at a snapshot TID",
    "buffered": "sees the bytes a frame decoder holds back",
    "reset": "rewinds the virtual clock between independent runs",
    "without_bug": "re-runs a chaos repro with its bug toggle off",
    "fanout_races": "selects the static checker's fan-out warnings",
    "cycles": "selects the static checker's cycle warnings",
    "between": "builds a range predicate from a column reference",
    "in_": "builds a set predicate from a column reference",
    "drain": "drives a local client until every submission resolves",
    "Client": "checks both clients satisfy one submission protocol",
    "serialization_order": "the topological order tests compare "
                           "recorded histories against",
    "theorem_2_7_holds": "checks the paper's Theorem 2.7 (reactor vs "
                         "projected classic serializability)",
    "gc_versions": "sweeps a table's version chains below a watermark",
    "is_reading": "sees the server stop reading a slow reader",
    "get_write_buffer_size": "reads the answer bytes held for a slow "
                             "reader",
}


def _definitions():
    """``(file, line, qualified name, node)`` for every module- and
    class-level definition under ``src/repro``."""
    def walk(body, path, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qualified = f"{owner}.{node.name}" if owner else node.name
                yield path, node.lineno, qualified, node
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, path, qualified)

    for path in sorted(PACKAGE.rglob("*.py")):
        yield from walk(ast.parse(path.read_text()).body, path, "")


def _referenced() -> set[str]:
    names: set[str] = set()
    for directory in USERS:
        for path in (ROOT / directory).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg:
                    names.add(node.arg)
    return names


def _is_procedure(node) -> bool:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute) and \
                decorator.attr == "procedure":
            return True
    return False


def _exempt(node) -> bool:
    name = node.name
    return (name.startswith("__") and name.endswith("__")
            or _is_procedure(node)
            or name.startswith(("visit_", "_do_")))


def test_every_definition_is_named_outside_the_tests():
    referenced = _referenced()
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {qualified}"
        for path, line, qualified, node in _definitions()
        if not _exempt(node) and node.name not in referenced
        and node.name not in TEST_PROBES]
    assert not unused, "named by nothing outside tests:\n" + \
        "\n".join(unused)


def test_test_probes_are_defined_and_otherwise_unused():
    """An allowlisted name that went away, or that the system now
    calls, is a stale entry."""
    defined = {node.name for *__, node in _definitions()}
    referenced = _referenced()
    assert sorted(set(TEST_PROBES) - defined) == []
    assert sorted(set(TEST_PROBES) & referenced) == []
