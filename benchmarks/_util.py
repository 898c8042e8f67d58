"""Shared helpers for the wall-clock benchmark scripts.

Every ``bench_*.py`` next to this file is a script with one entry
point, ``main()``, and one shape: measure, print the report (persisted
under ``benchmarks/results/`` as well), assert the script's acceptance
conditions, and optionally write machine-readable JSON.
:func:`bench_args` is the argument parser they share and
:func:`finish` the report -> check -> JSON tail, so the acceptance
conditions run in every mode: a ``--tiny`` CI run fails on a broken
invariant, not only on a baseline delta.  (Everything measured in
virtual time — the paper's figures and tables and the ablations — is
not a script here: ``python -m repro.experiments`` runs and checks
it.)

Machine-readable output: :func:`emit_json` writes a
``BENCH_<name>.json`` file next to the text report so CI jobs and
downstream tooling can consume results without parsing tables.  Every
JSON file carries a ``meta`` block recording the git SHA the numbers
were produced from and the benchmark's configuration dict, so archived
results stay attributable.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"


def _drain_telemetry() -> list[dict[str, Any]]:
    """Per-measurement telemetry summaries accumulated by the bench
    harness (lazy import: _util must stay importable without src on
    the path for pure-report tooling)."""
    try:
        from repro.bench.harness import drain_telemetry_summaries
    except ImportError:
        return []
    return drain_telemetry_summaries()


def _ensure_results_dir() -> None:
    # parents=True: survives a fresh checkout where even the parent is
    # missing (e.g. running a single benchmark file from elsewhere).
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)


def git_sha() -> str:
    """The repository HEAD the benchmark ran at, or ``"unknown"``.

    In CI the SHA comes from ``GITHUB_SHA`` — deterministic and free
    of git subprocess calls (actions/checkout detaches HEAD, and a
    shallow checkout may not even have the ref state a subprocess
    would need).
    """
    env_sha = os.environ.get("GITHUB_SHA", "").strip()
    if env_sha:
        return env_sha
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent, capture_output=True, text=True,
            timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def bench_args(description: str, argv: list[str] | None = None,
               backends: tuple[str, ...] = ()) -> argparse.Namespace:
    """Parse the flags of a bench script that has a CI-sized grid:
    ``--tiny`` (the sizes the committed baselines were measured at),
    ``--json`` (also write ``BENCH_<name>.json``) and, for a script
    that runs on more than one execution backend, ``--backend`` (the
    first of ``backends`` is the default)."""
    parser = argparse.ArgumentParser(
        description=description,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tiny", action="store_true",
                        help="the small grid CI runs and gates")
    parser.add_argument("--json", action="store_true",
                        help="also write results/BENCH_<name>.json")
    if backends:
        parser.add_argument("--backend", choices=backends,
                            default=backends[0],
                            help="execution backend to measure on")
    return parser.parse_args(argv)


def finish(name: str, payload: Any, report, check,
           args: argparse.Namespace | None = None,
           config: dict[str, Any] | None = None,
           backend: str | None = None) -> None:
    """The tail of every ``main()``: print ``report(payload)`` and
    persist it as ``results/<name>.txt``, assert ``check(payload)``,
    then — when ``args`` asked for ``--json`` — write the payload with
    its ``config`` / ``backend`` provenance (see :func:`emit_json`)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        report(payload)
    text = buffer.getvalue()
    print(text)
    _ensure_results_dir()
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    check(payload)
    if args is not None and args.json:
        print(f"wrote {emit_json(name, payload, config, backend)}")


def emit_json(name: str, payload: Any,
              config: dict[str, Any] | None = None,
              backend: str | None = None) -> Path:
    """Persist ``payload`` as ``benchmarks/results/BENCH_<name>.json``.

    A ``meta`` block (git SHA + the benchmark's ``config`` dict) is
    recorded alongside dict payloads so every archived result is
    attributable to the code and parameters that produced it.
    ``backend`` records the execution backend when the benchmark ran
    on one (omitted → ``"sim"``, the only backend pre-existing
    benchmarks use).
    """
    _ensure_results_dir()
    if isinstance(payload, dict):
        payload = {
            **payload,
            "meta": {
                "benchmark": name,
                "git_sha": git_sha(),
                "backend": backend or "sim",
                "config": dict(config or {}),
            },
        }
        if "telemetry" not in payload:
            summaries = _drain_telemetry()
            if summaries:
                # One block per measurement since the last emit:
                # commit/abort latency percentiles straight from the
                # telemetry registry.  Report-only — the perf gate
                # reads the "runs" rows, never this key.
                payload["telemetry"] = summaries
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True)
                    + "\n")
    return path

