#!/usr/bin/env python3
"""CI regression gate over the wall-clock benches' machine-readable
outputs.

Compares fresh ``BENCH_<name>.json`` files (written by a
``benchmarks/bench_*.py --tiny --json`` run) against committed
baselines in ``benchmarks/results/baselines/``.  Every run row inside
a payload's ``runs`` list is keyed by its identifying fields
(workload, mode, scheme, backend, ...) and its metrics are diffed
against the baseline row with the same key:

* the baseline's ``"gate"`` block names the gated metric and its
  band — ``{"gate": {"metric": "txns_per_kop", "tolerance": 0.5}}``:
  a drop of more than ``tolerance`` fails.  Wall-clock numbers are
  noisy, so every committed gate is wide; a baseline without a block
  fails.  (The virtual-time ablations are not gated here: each pins
  its rows in its own ``check``, see ``repro.experiments.common``.)
* ``latency_us`` / ``p50_us`` / ``p99_us`` / ``abort_rate`` are
  reported for context, never gated.
* a current payload's top-level ``"telemetry"`` block (per-measurement
  commit/abort latency percentiles from the telemetry registry) is
  rendered as a report-only table — also never gated, and absent
  blocks (older baselines, telemetry disabled) are simply skipped.
* a baseline key missing from the current output fails too (coverage
  must not silently shrink); new keys are reported as additions.

The per-bench delta table is printed and, when ``GITHUB_STEP_SUMMARY``
is set, appended to the CI job summary as markdown.

Usage::

    python tools/bench_compare.py harness_speed
    python tools/bench_compare.py --update ...   # refresh baselines

Exit status: 0 when every gate holds, 1 on any regression or missing
baseline, gate block or row.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CURRENT = REPO / "benchmarks" / "results"
DEFAULT_BASELINE = DEFAULT_CURRENT / "baselines"

#: Fields that *identify* a run row (configuration axes).  Everything
#: else is an output — counters move with the measurement and must
#: never leak into the key, or an in-band change would read as a
#: vanished baseline.
ID_KEYS = ("workload", "mode", "scheme", "backend", "containers")
#: Context metrics shown in the table; rows without a metric render
#: blank.
REPORT_METRICS = ("latency_us", "p50_us", "p99_us", "abort_rate")


def gate_of(payload: dict) -> tuple[str, float] | None:
    """The (metric, tolerance) of a baseline's ``"gate"`` block, or
    ``None`` without one: the committed baseline defines the contract
    a fresh run is held to."""
    gate = payload.get("gate")
    return (gate["metric"], float(gate["tolerance"])) if gate else None


def row_key(run: dict) -> str:
    """A stable identity for one run row: its configuration axes."""
    parts = []
    for key in ID_KEYS:
        if key in run:
            parts.append(f"{key}={run[key]}")
    return " ".join(parts)


def rows_of(payload: dict) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for run in payload.get("runs", []):
        out[row_key(run)] = run
    return out


def load_payload(path: Path) -> dict:
    with path.open() as handle:
        return json.load(handle)


def pct(delta: float, base: float) -> str:
    if base == 0:
        return "n/a"
    return f"{delta / base * +100:+.1f}%"


def compare_bench(name: str, baseline_dir: Path,
                  current_dir: Path) -> tuple[list[str], list[str]]:
    """Returns (markdown table lines, failure messages)."""
    lines: list[str] = []
    failures: list[str] = []
    base_path = baseline_dir / f"BENCH_{name}.json"
    cur_path = current_dir / f"BENCH_{name}.json"
    if not base_path.exists():
        failures.append(f"{name}: no committed baseline at "
                        f"{base_path}")
        return lines, failures
    if not cur_path.exists():
        failures.append(f"{name}: benchmark produced no {cur_path}")
        return lines, failures
    base_payload = load_payload(base_path)
    gate = gate_of(base_payload)
    if gate is None:
        failures.append(f"{name}: baseline {base_path} has no gate block")
        return lines, failures
    gate_metric, tolerance = gate
    base_rows = rows_of(base_payload)
    cur_rows = rows_of(load_payload(cur_path))

    lines.append(f"### {name}")
    lines.append("")
    lines.append(f"| run | {gate_metric} base | now | Δ | "
                 + " | ".join(REPORT_METRICS) + " | verdict |")
    lines.append("|---|---|---|---|"
                 + "---|" * len(REPORT_METRICS) + "---|")
    for key in sorted(base_rows):
        base = base_rows[key]
        cur = cur_rows.get(key)
        if cur is None:
            failures.append(f"{name}: baseline run vanished: {key}")
            lines.append(f"| `{key}` | {base.get(gate_metric)} | "
                         f"MISSING | | "
                         + " | ".join("" for __ in REPORT_METRICS)
                         + " | :x: missing |")
            continue
        base_tput = float(base.get(gate_metric, 0.0))
        cur_tput = float(cur.get(gate_metric, 0.0))
        delta = cur_tput - base_tput
        regressed = base_tput > 0 and \
            cur_tput < base_tput * (1.0 - tolerance)
        if regressed:
            failures.append(
                f"{name}: {gate_metric} regressed "
                f"{pct(delta, base_tput)} (> {tolerance:.0%} band) "
                f"on: {key}")
        context = []
        for metric in REPORT_METRICS:
            b, c = base.get(metric), cur.get(metric)
            if b is None or c is None:
                context.append("")
            else:
                context.append(f"{c} ({pct(c - b, b or 1)})")
        verdict = ":x: regressed" if regressed else ":white_check_mark:"
        lines.append(
            f"| `{key}` | {base_tput:.1f} | {cur_tput:.1f} | "
            f"{pct(delta, base_tput)} | " + " | ".join(context)
            + f" | {verdict} |")
    for key in sorted(set(cur_rows) - set(base_rows)):
        lines.append(f"| `{key}` | — | "
                     f"{cur_rows[key].get(gate_metric)} | new | "
                     + " | ".join("" for __ in REPORT_METRICS)
                     + " | :new: |")
    lines.append("")
    lines.extend(telemetry_lines(name, load_payload(cur_path)))
    return lines, failures


def telemetry_lines(name: str, payload: dict) -> list[str]:
    """Report-only latency-percentile table from a payload's
    ``telemetry`` block (one row per measurement).  Never gated;
    payloads without the block yield no lines."""
    blocks = payload.get("telemetry")
    if not isinstance(blocks, list) or not blocks:
        return []
    lines = [f"#### {name}: telemetry latency percentiles "
             f"(report-only)", "",
             "| measurement | commits | aborts | commit p50 (µs) | "
             "commit p99 (µs) | commit p999 (µs) | abort p99 (µs) |",
             "|---|---|---|---|---|---|---|"]
    for index, block in enumerate(blocks):
        if not isinstance(block, dict):
            continue
        commit = block.get("txn_commit_latency_us") or {}
        abort = block.get("txn_abort_latency_us") or {}
        lines.append(
            f"| {index} | {block.get('commits', '—')} | "
            f"{block.get('aborts', '—')} | "
            f"{commit.get('p50', '—')} | {commit.get('p99', '—')} | "
            f"{commit.get('p999', '—')} | {abort.get('p99', '—')} |")
    lines.append("")
    return lines


def update_baselines(names: list[str], baseline_dir: Path,
                     current_dir: Path) -> None:
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        src = current_dir / f"BENCH_{name}.json"
        if not src.exists():
            raise SystemExit(f"cannot update baseline: {src} missing "
                             f"(run the benchmark with --tiny --json "
                             f"first)")
        shutil.copy2(src, baseline_dir / src.name)
        print(f"baseline updated: {baseline_dir / src.name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("names", nargs="+",
                        help="bench names (BENCH_<name>.json)")
    parser.add_argument("--baseline-dir", type=Path,
                        default=DEFAULT_BASELINE)
    parser.add_argument("--current-dir", type=Path,
                        default=DEFAULT_CURRENT)
    parser.add_argument("--update", action="store_true",
                        help="copy current results over the "
                             "baselines instead of comparing")
    args = parser.parse_args(argv)

    if args.update:
        update_baselines(args.names, args.baseline_dir,
                         args.current_dir)
        return 0

    all_lines = ["## Bench regression gate", ""]
    all_failures: list[str] = []
    for name in args.names:
        lines, failures = compare_bench(
            name, args.baseline_dir, args.current_dir)
        all_lines.extend(lines)
        all_failures.extend(failures)

    if all_failures:
        all_lines.append("**FAILED:**")
        all_lines.extend(f"- {f}" for f in all_failures)
    else:
        all_lines.append("All gated metrics within their bands.")
    report = "\n".join(all_lines)
    print(report)

    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write(report + "\n")

    if all_failures:
        for failure in all_failures:
            print(f"::error::{failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
