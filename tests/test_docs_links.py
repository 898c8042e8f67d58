"""The documentation tree stays internally consistent.

Runs the same checker the CI ``docs-check`` job uses: every relative
markdown link in the repository must resolve to an existing file,
every backticked ``repro.…`` name in the docs, the README and the
source docstrings must import, every backticked call in the docs must
name something defined, every repository path (and cited test) the
docs name must exist, the metric table must match the catalog, and
the core documents the README promises must exist.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs_links",
        REPO_ROOT / "tools" / "check_docs_links.py")
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules.setdefault("check_docs_links", module)
    spec.loader.exec_module(module)
    return module


def test_checker_runs_without_pythonpath(tmp_path):
    """Run from any directory with no ``PYTHONPATH``, the script
    finds the package itself and reports no stale names."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs_links.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "STALE:" not in done.stdout


def test_no_broken_intra_repo_markdown_links():
    checker = _load_checker()
    broken = checker.broken_links(REPO_ROOT)
    assert broken == [], (
        "broken markdown links: "
        + ", ".join(f"{f.relative_to(REPO_ROOT)} -> {t}"
                    for f, t in broken))

def test_docs_tree_exists_and_is_linked():
    for name in ("architecture.md", "deployment.md", "benchmarks.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), name
    readme = (REPO_ROOT / "README.md").read_text()
    for name in ("docs/architecture.md", "docs/deployment.md",
                 "docs/benchmarks.md"):
        assert name in readme, f"README does not link {name}"


def test_checker_detects_breakage(tmp_path):
    checker = _load_checker()
    (tmp_path / "a.md").write_text(
        "see [missing](nowhere.md) and [ok](b.md) and "
        "[web](https://example.com) and [anchor](#sec)")
    (tmp_path / "b.md").write_text("fine")
    broken = checker.broken_links(tmp_path)
    assert [(f.name, t) for f, t in broken] == [("a.md", "nowhere.md")]


def test_every_backticked_repro_name_resolves():
    checker = _load_checker()
    stale = checker.unresolved_names(REPO_ROOT)
    assert stale == [], (
        "stale repro names: "
        + ", ".join(f"{f.relative_to(REPO_ROOT)} -> {n}"
                    for f, n in stale))


def test_checker_detects_stale_names(tmp_path):
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "a.md").write_text(
        "`repro.relational.predicate.col`, `repro.relational.sql`, "
        "`repro.core.context.ReactorContext.select()`, "
        # Bare calls: defined under src/, a builtin, a deleted name.
        "`f()`, `len(rows)`, `recover_serial(image)`, "
        # Qualified: a module resolves by getattr, others are skipped.
        "`gc.freeze()`, `gc.frozen()`, `db.anything()`")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "m.py").write_text(
        '"""See :class:`~repro.relational.query.Query`."""\n'
        "# `repro.not_checked` (a comment, not a docstring)\n"
        "def f():\n"
        '    """Calls :meth:`repro.core.context.ReactorContext.sql`."""\n')
    stale = checker.unresolved_names(tmp_path)
    assert [(f.name, n) for f, n in stale] == [
        ("a.md", "repro.relational.sql"),
        ("m.py", "repro.relational.query.Query"),
        ("m.py", "repro.core.context.ReactorContext.sql"),
        ("a.md", "recover_serial()"),
        ("a.md", "gc.frozen()"),
    ]


def test_every_cited_path_exists():
    checker = _load_checker()
    assert checker.cited_paths(REPO_ROOT)
    missing = checker.missing_paths(REPO_ROOT)
    assert missing == [], (
        "cited paths that do not exist: "
        + ", ".join(f"{f.relative_to(REPO_ROOT)} -> {p}"
                    for f, p in missing))


def test_checker_detects_missing_paths(tmp_path):
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "class TestA:\n    def test_b(self):\n        pass\n\n\n"
        "def test_c():\n    pass\n")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_kept.py").write_text("")
    (tmp_path / "docs" / "a.md").write_text(
        "`benchmarks/bench_kept.py --tiny`, `docs/`, "
        "`benchmarks/bench_ablation_gone.py`, "
        # Tests: a class, a method, a function; then a deleted one.
        "`tests/test_a.py::TestA`, `tests/test_a.py::TestA::test_b`, "
        "`tests/test_a.py::test_c`, `tests/test_a.py::test_gone`, "
        "`tests/test_a.py::TestA::test_c`, "
        # Placeholders and globs are skipped; an attribute written
        # as a path is no file.
        "`benchmarks/results/BENCH_<name>.json`, `tests/test_*.py`, "
        "`benchmarks/bench_kept.emit_json`")
    (tmp_path / "README.md").write_text("see `examples/gone.py:12`")
    missing = checker.missing_paths(tmp_path)
    assert [(f.name, p) for f, p in missing] == [
        ("a.md", "benchmarks/bench_ablation_gone.py"),
        ("a.md", "tests/test_a.py::test_gone"),
        ("a.md", "tests/test_a.py::TestA::test_c"),
        ("a.md", "benchmarks/bench_kept.emit_json"),
        ("README.md", "examples/gone.py"),
    ]


def test_every_deployment_example_loads():
    checker = _load_checker()
    assert checker.deployment_examples(REPO_ROOT)
    invalid = checker.invalid_deployments(REPO_ROOT)
    assert invalid == [], (
        "deployment examples that do not load: "
        + ", ".join(f"{f.relative_to(REPO_ROOT)} -> {e}"
                    for f, e in invalid))


def test_checker_detects_invalid_deployments(tmp_path):
    checker = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "a.md").write_text(
        '```json\n{"name": "ok", "containers": [{"executors": 1}]}\n```\n'
        '```json\n{"name": "typo", "containers": [{"executors": 1}],\n'
        ' "cc_scheme": "clairvoyant"}\n```\n'
        # Fragments and other objects are not deployments.
        '```json\n"durability": {"enabled": true}\n```\n'
        '```json\n{"segments": []}\n```\n')
    invalid = checker.invalid_deployments(tmp_path)
    assert [(f.name, e.split(":")[0]) for f, e in invalid] == [
        ("a.md", "typo")]
    assert "unknown cc_scheme 'clairvoyant'" in invalid[0][1]


def test_metric_table_matches_the_catalog():
    checker = _load_checker()
    assert checker.metric_table_drift(REPO_ROOT) == []


def test_checker_detects_metric_table_drift(tmp_path):
    """A row for a metric the catalog lacks and a row with the wrong
    kind are each flagged; a missing row is too."""
    checker = _load_checker()
    real = (REPO_ROOT / "docs" / "observability.md").read_text()
    edited = real.replace(
        "| `log_fsyncs_total` | counter |",
        "| `log_fsyncs_total` | gauge |").replace(
        "| `txn_aborts_total` | counter | Root transactions reported "
        "aborted. |\n", "").replace(
        "| metric | kind | meaning |\n|---|---|---|\n",
        "| metric | kind | meaning |\n|---|---|---|\n"
        "| `log_flushes_total` | counter | Gone. |\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "observability.md").write_text(edited)
    assert checker.metric_table_drift(tmp_path) == [
        ("log_flushes_total", "counter", None),
        ("log_fsyncs_total", "gauge", "counter"),
        ("txn_aborts_total", None, "counter"),
    ]
