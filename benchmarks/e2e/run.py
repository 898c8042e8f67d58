#!/usr/bin/env python3
"""The end-to-end benchmark: four pinned, seeded workloads.

One workload (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload sb_served --seed 42 \
        --seconds 10 --trace 0

prints every metric by name with its unit, a ``detail`` line (quartiles,
min/max and sample counts per metric, machine meta) and, last, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes ``results/trace_<workload>.json``).

All workloads (no ``--workload``): one subprocess per workload — which
isolates RSS, GC and profiler state — and the collected results in
``--out`` (default ``results/latest.json``).  ``--trace`` adds the
traced run; ``--quick`` is the smoke-test size.

``--manifest`` prints ``BENCHMARK.json`` as ``metrics.py`` and
``workloads.py`` declare it (the smoke test keeps the file in step).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

try:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    import repro  # noqa: F401 - the program under test
except ImportError:
    sys.exit("benchmarks/e2e/run.py: src/repro is not importable from "
             f"{HERE.parents[1]}; run it from a full checkout")

import inputs
import measure
from harness import Slice, machine_meta, pin_to_one_cpu
from metrics import (
    END_TO_END,
    END_TO_END_NAMES,
    PER_LAYER,
    PER_LAYER_NAMES,
    UNITS,
)
from workloads import CODEC, WORKLOADS

#: Measured seconds per run: ``run_seconds`` in ``BENCHMARK.json``
#: and the default of ``--seconds``.
DEFAULT_SECONDS = 10
QUICK_SECONDS = 0.4
#: ``--quick`` shrinks the SmallBank database too: building 10,000
#: reactors costs more than all of a smoke run's phases together.
QUICK_CUSTOMERS = 1000


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             f"(default {DEFAULT_SECONDS:g})")
    parser.add_argument("--repeats", type=int,
                        help="fresh databases per untraced run (default "
                             f"and fewest {measure.MIN_REPEATS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size: 1 repeat, 0.2 s phases")
    parser.add_argument("--out", type=Path,
                        default=RESULTS / "latest.json")
    parser.add_argument("--manifest", action="store_true",
                        help="print BENCHMARK.json and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # see fresh_setup
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < measure.MIN_REPEATS:
        parser.error(f"--repeats must be at least {measure.MIN_REPEATS}")
    return args


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better,
             "bound": bound}
            for name, unit, better, bound, __ in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, __, __ in PER_LAYER],
    }


def fresh_setup(args: argparse.Namespace) -> Slice:
    """The workload's set-up, timed in a process of its own
    (``--setup-only``, which prints what ``measure.timed_setup`` saw):
    every set-up then starts from the same untouched heap."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         args.workload, "--setup-only",
         *(["--quick"] if args.quick else [])],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONHASHSEED": "0"})
    return Slice(*json.loads(done.stdout.splitlines()[-1]))


def run_one(args: argparse.Namespace) -> int:
    """Measure one workload in this process."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes, and with them dict layouts, differ from
        # process to process; fixed, runs repeat within about 1 %.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = dataclasses.replace(workload,
                                       customers=QUICK_CUSTOMERS)
    cpu = pin_to_one_cpu()
    if args.setup_only:
        print(json.dumps(measure.timed_setup(workload)))
        return 0
    sizes = measure.QUICK_SIZES if args.quick else measure.DEFAULT_SIZES
    if args.repeats:
        sizes = sizes._replace(repeats=args.repeats)
    seconds = args.seconds or (QUICK_SECONDS if args.quick
                               else DEFAULT_SECONDS)
    specs = inputs.generate(
        workload.kind, args.seed,
        inputs.POOL[workload.kind] // (10 if args.quick else 1),
        workload.customers)
    if args.trace:
        result = measure.run_traced(workload, specs, args.seed,
                                    seconds, sizes)
        RESULTS.mkdir(exist_ok=True)
        trace_path = RESULTS / f"trace_{workload.name}.json"
        trace_path.write_text(json.dumps(result.pop("trace"), indent=1))
        names = PER_LAYER_NAMES
    else:
        result = measure.run_untraced(workload, specs, args.seed,
                                      seconds, sizes,
                                      lambda: fresh_setup(args))
        names = END_TO_END_NAMES

    metrics = result["metrics"]
    print(f"# {workload.name}  seed={args.seed}  seconds={seconds:g}  "
          f"trace={args.trace}")
    for name in names:
        m = metrics[name]
        spread = f"  [{m['q1']:.6g} .. {m['q3']:.6g}] n={m['n']}" \
            if m["n"] > 1 else ""
        print(f"{name:42s} {m['value']:14.6g} {UNITS[name]}{spread}")
    for failure in result["failures"]:
        print(f"INCORRECT: {failure}")
    correct = not result["failures"] and result["failed"] == 0
    result["meta"] = {**machine_meta(cpu, CODEC), "seed": args.seed,
                      "seconds": seconds, "sizes": sizes._asdict(),
                      "workload": workload.name, "trace": args.trace}
    print("detail " + json.dumps(result))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": UNITS[name]} for name in names},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own subprocess; results in ``--out``."""
    passthrough = ["--seed", str(args.seed)]
    if args.seconds:
        passthrough += ["--seconds", str(args.seconds)]
    if args.repeats:
        passthrough += ["--repeats", str(args.repeats)]
    if args.quick:
        passthrough.append("--quick")
    collected: dict = {"meta": None, "workloads": {}}
    per_process = ("workload", "trace", "pinned_cpu")
    status = 0
    for name in WORKLOADS:
        entry = collected["workloads"][name] = {}
        for trace in (0, 1) if args.trace else (0,):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 name, "--trace", str(trace), *passthrough],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONHASHSEED": "0"})
            lines = done.stdout.splitlines()
            table = [ln for ln in lines if not ln.startswith(
                ("detail ", "{"))]
            print("\n".join(table), flush=True)
            if not lines or not lines[-1].startswith("{"):
                print(done.stderr, file=sys.stderr)
                return 1
            status |= done.returncode
            detail = json.loads(lines[-2].removeprefix("detail "))
            # Machine, seed and sizes are the run's; the rest stays
            # with the subprocess it describes.
            collected["meta"] = {k: v for k, v in detail["meta"].items()
                                 if k not in per_process}
            entry["per_layer" if trace else "end_to_end"] = detail
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(collected, indent=1) + "\n")
    print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    arguments = parse_args()
    if arguments.manifest:
        print(json.dumps(manifest(), indent=2))
        sys.exit(0)
    sys.exit(run_one(arguments) if arguments.workload
             else run_all(arguments))
