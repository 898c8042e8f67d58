#!/usr/bin/env python3
"""Fail on broken intra-repository markdown links, stale ``repro``
names, cited paths that do not exist, deployment examples that do not
load and a metric table that drifted from the catalog.

Five checks:

* **Links.**  Scans every ``*.md`` file in the repository (skipping
  ``.git`` and generated ``benchmarks/results``) for inline markdown
  links and reference definitions, and verifies that every relative
  target exists on disk.  External links (``http``/``https``/
  ``mailto``) and pure in-page anchors are ignored; a ``#fragment``
  suffix on a file link is stripped before the existence check.
* **Names.**  Every backticked dotted name under the package —
  ``repro.formal.audit``, ``:class:`~repro.core.context.ReactorContext```
  — in ``docs/*.md``, ``README.md`` and the docstrings of
  ``src/repro/**/*.py`` must resolve: the longest prefix that is a
  module is imported, and the rest is looked up with ``getattr``
  (the script puts ``src/`` on ``sys.path`` itself).  A backticked
  call in ``docs/*.md`` and ``README.md`` must name something too:
  an unqualified ``name(`` a function or class defined under ``src/``,
  ``tools/``, ``benchmarks/`` or ``examples/``, or a builtin; a
  qualified ``mod.name(`` whose first component imports as a module
  must resolve by ``getattr`` (other qualifiers — ``db.run(`` — are
  skipped).
* **Paths.**  Every backticked ``benchmarks/``, ``tools/``,
  ``tests/``, ``src/``, ``docs/`` or ``examples/`` path in
  ``docs/*.md`` and ``README.md`` must exist (``<placeholder>`` and
  ``*`` globs are skipped) and define the ``::Class::test`` it cites.
* **Deployment examples.**  Every fenced ``json`` block in
  ``docs/*.md`` and ``README.md`` that is an object with top-level
  ``name`` and ``containers`` must load through
  ``repro.core.deployment.DeploymentConfig.from_dict``.
* **Metric table.**  The ``(name, kind)`` rows of the metric table in
  ``docs/observability.md`` (its "Metric catalog" section) must be
  exactly ``repro.telemetry.catalog.CATALOG``: a stale row, a missing
  row and a wrong kind each fail.

Used by the CI ``docs-check`` job and by ``tests/test_docs_links.py``,
so a renamed or deleted file, test, module, attribute or config value
breaks the build instead of the docs.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
SKIP_DIRS = {".git", "results", "__pycache__", ".pytest_cache"}

#: Inline links ``[text](target)`` — target must not itself contain
#: parentheses or whitespace (none of ours do).
INLINE_LINK = re.compile(r"\[[^\]]*\]\(([^()\s]+)\)")
#: Reference definitions ``[label]: target``.
REFERENCE_DEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

#: A backtick (optionally Sphinx's ``~``) followed by a dotted name
#: rooted at the package.
REPRO_NAME = re.compile(r"`~?(repro(?:\.\w+)+)")

#: A backtick followed by a call, ``name(`` or ``qualifier.name(``
#: (``repro.…`` names are the pattern above's).
CALL_NAME = re.compile(r"`~?(?!repro\.)([A-Za-z_]\w*(?:\.\w+)*)\(")

#: Where the functions and classes a call may name are defined.
SOURCE_DIRS = ("src", "tools", "benchmarks", "examples")

#: A backtick followed by a repository path, then any ``::name``
#: test components.
CITED_PATH = re.compile(
    r"`((?:benchmarks|tools|tests|src|docs|examples)/[^`\s:]*)"
    r"((?:::\w+)*)")

#: A metric table row: the backticked name, then the kind.
METRIC_ROW = re.compile(r"^\| `([^`]+)` \| ([^|]*?) \|", re.MULTILINE)

#: The body of a fenced ``json`` code block.
JSON_BLOCK = re.compile(r"^```json[ \t]*\n(.*?)^```",
                        re.MULTILINE | re.DOTALL)


def markdown_files(root: Path) -> list[Path]:
    files = []
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            files.append(path)
    return files


def link_targets(text: str) -> list[str]:
    return INLINE_LINK.findall(text) + REFERENCE_DEF.findall(text)


def broken_links(root: Path) -> list[tuple[Path, str]]:
    """All (markdown file, target) pairs whose target is missing."""
    broken: list[tuple[Path, str]] = []
    for md_file in markdown_files(root):
        for target in link_targets(md_file.read_text()):
            if target.startswith(EXTERNAL_PREFIXES):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            if path_part.startswith("/"):
                resolved = root / path_part.lstrip("/")
            else:
                resolved = md_file.parent / path_part
            if not resolved.exists():
                broken.append((md_file, target))
    return broken


def docstrings(path: Path) -> list[str]:
    """The module, class and function docstrings of one source file."""
    nodes = ast.walk(ast.parse(path.read_text(), str(path)))
    return [text for node in nodes
            if isinstance(node, (ast.Module, ast.ClassDef,
                                 ast.FunctionDef, ast.AsyncFunctionDef))
            and (text := ast.get_docstring(node, clean=False))]


def doc_texts(root: Path) -> list[tuple[Path, str]]:
    """(file, text) of ``docs/*.md`` and ``README.md``."""
    texts = [(path, path.read_text())
             for path in sorted((root / "docs").glob("*.md"))]
    readme = root / "README.md"
    if readme.is_file():
        texts.append((readme, readme.read_text()))
    return texts


def named_texts(root: Path) -> list[tuple[Path, str]]:
    """Every (file, text) whose backticked ``repro`` names must
    resolve."""
    texts = doc_texts(root)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        texts.extend((path, text) for text in docstrings(path))
    return texts


def resolves(name: str) -> bool:
    """Import the longest module prefix of ``name``, ``getattr`` the
    rest."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target: object = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            # Only "this prefix is not a module" moves on to a shorter
            # one; a module that fails its own imports is broken.
            if exc.name is None or not (
                    module_name == exc.name
                    or module_name.startswith(exc.name + ".")):
                return False
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def defined_names(root: Path) -> set[str]:
    """Every function and class name defined under
    :data:`SOURCE_DIRS`."""
    names: set[str] = set()
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*.py")):
            if SKIP_DIRS.intersection(path.parts):
                continue
            names.update(
                node.name
                for node in ast.walk(ast.parse(path.read_text(),
                                               str(path)))
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef,
                                     ast.ClassDef)))
    return names


def call_resolves(name: str, defined: set[str]) -> bool:
    """An unqualified call names a defined function or class or a
    builtin; a qualified one resolves when its first component is a
    module, and is skipped otherwise."""
    head, dot, __ = name.partition(".")
    if not dot:
        return name in defined or hasattr(builtins, name)
    try:
        importlib.import_module(head)
    except ImportError:
        return True
    return resolves(name)


def unresolved_names(root: Path) -> list[tuple[Path, str]]:
    """All (file, name) pairs whose backticked ``repro`` name, or
    backticked call in the docs, does not resolve."""
    unresolved: list[tuple[Path, str]] = []
    for path, text in named_texts(root):
        for name in dict.fromkeys(REPRO_NAME.findall(text)):
            if not resolves(name):
                unresolved.append((path, name))
    defined = defined_names(root)
    for path, text in doc_texts(root):
        for name in dict.fromkeys(CALL_NAME.findall(text)):
            if not call_resolves(name, defined):
                unresolved.append((path, f"{name}()"))
    return unresolved


def defines(path: Path, names: list[str]) -> bool:
    """Whether the Python file defines the nested ``names`` (a class
    or function at module level, then members of that class)."""
    body = ast.parse(path.read_text(), str(path)).body
    for name in names:
        node = next((node for node in body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                     and node.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def cited_paths(root: Path) -> list[tuple[Path, str, list[str]]]:
    """Every (doc file, path, test names) a backticked citation in
    ``docs/*.md`` or ``README.md`` names; placeholders and globs are
    skipped."""
    cited = []
    for path, text in doc_texts(root):
        for target, tests in dict.fromkeys(CITED_PATH.findall(text)):
            if not any(mark in target for mark in "<*"):
                cited.append((path, target, tests.split("::")[1:]))
    return cited


def missing_paths(root: Path) -> list[tuple[Path, str]]:
    """All (doc file, citation) pairs whose path does not exist or
    does not define the cited test."""
    missing = []
    for path, target, tests in cited_paths(root):
        file = root / target
        if not file.exists() or (tests and not defines(file, tests)):
            missing.append((path, "::".join([target, *tests])))
    return missing


def deployment_examples(root: Path) -> list[tuple[Path, dict]]:
    """Every (file, example) whose ``json`` block is an object with
    top-level ``name`` and ``containers`` (fragments are skipped)."""
    examples = []
    for path, text in doc_texts(root):
        for body in JSON_BLOCK.findall(text):
            try:
                data = json.loads(body)
            except ValueError:
                continue
            if isinstance(data, dict) and {"name", "containers"} <= \
                    data.keys():
                examples.append((path, data))
    return examples


def invalid_deployments(root: Path) -> list[tuple[Path, str]]:
    """All (file, error) pairs of deployment examples that
    ``DeploymentConfig.from_dict`` refuses."""
    from repro.core.deployment import DeploymentConfig
    from repro.errors import DeploymentError

    invalid = []
    for path, data in deployment_examples(root):
        try:
            DeploymentConfig.from_dict(data)
        except DeploymentError as exc:
            invalid.append((path, f"{data['name']}: {exc}"))
    return invalid


def metric_table_drift(root: Path
                       ) -> list[tuple[str, str | None, str | None]]:
    """Every ``(name, documented kind, cataloged kind)`` where the
    metric table of ``docs/observability.md`` and the catalog
    disagree; ``None`` is a missing row on that side."""
    from repro.telemetry.catalog import CATALOG

    text = (root / "docs" / "observability.md").read_text()
    section = text.partition("## Metric catalog")[2].partition("\n## ")[0]
    documented = dict(METRIC_ROW.findall(section))
    return [(name, documented.get(name), CATALOG.get(name))
            for name in sorted(documented.keys() | CATALOG.keys())
            if documented.get(name) != CATALOG.get(name)]


def main() -> int:
    root = REPO_ROOT
    files = markdown_files(root)
    broken = broken_links(root)
    for md_file, target in broken:
        print(f"BROKEN: {md_file.relative_to(root)} -> {target}")
    stale = unresolved_names(root)
    for path, name in stale:
        print(f"STALE: {path.relative_to(root)} -> {name}")
    missing = missing_paths(root)
    for path, target in missing:
        print(f"MISSING: {path.relative_to(root)} -> {target}")
    invalid = invalid_deployments(root)
    for path, error in invalid:
        print(f"INVALID: {path.relative_to(root)} -> {error}")
    drift = metric_table_drift(root)
    for name, documented, cataloged in drift:
        print(f"DRIFT: docs/observability.md -> {name}: documented "
              f"{documented}, cataloged {cataloged}")
    print(f"checked {len(files)} markdown files, "
          f"{len(broken)} broken links, {len(stale)} stale names, "
          f"{len(missing)} missing paths, "
          f"{len(invalid)} invalid deployment examples, "
          f"{len(drift)} metric table rows off the catalog")
    return 1 if broken or stale or missing or invalid or drift else 0


if __name__ == "__main__":
    sys.exit(main())
