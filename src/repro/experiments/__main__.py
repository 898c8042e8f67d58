"""Run paper experiments and ablations from the command line.

Usage::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments fig05 fig19     # run selected ones
    python -m repro.experiments all             # run everything
    python -m repro.experiments --quick --check all

Each experiment prints the series/rows of its paper figure, table or
ablation with default (paper-shaped, moderately sized) parameters.
``--quick`` runs the module's scaled-down ``QUICK`` parameters instead
(the whole set in about three minutes); ``--check`` asserts each
module's ``check`` on its results (the paper's shape, an ablation's
acceptance conditions and, at ``QUICK``, its throughput pins) and
makes the exit status non-zero when one does not hold — together they
are what CI runs on every push.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from repro import experiments

EXPERIMENTS = [name for name in experiments.__all__
               if name != "common"]


def run_one(name: str, quick: bool):
    module = getattr(experiments, name)
    print(f"\n######## {name} "
          f"({module.__doc__.strip().splitlines()[0]})")
    start = time.time()
    results = module.run(**(module.QUICK if quick else {}))
    module.report(results)
    print(f"-- {name} finished in {time.time() - start:.1f}s "
          "wall clock")
    return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures and tables and "
                    "the ablations.")
    parser.add_argument("names", nargs="*", metavar="experiment",
                        help="experiment names, or 'all'")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down parameters (each module's "
                             "QUICK)")
    parser.add_argument("--check", action="store_true",
                        help="assert each module's check() on its "
                             "results")
    args = parser.parse_args(argv)
    if not args.names:
        print(__doc__)
        print("available experiments:")
        for name in EXPERIMENTS:
            doc = getattr(experiments, name).__doc__ or ""
            print(f"  {name:16s} {doc.strip().splitlines()[0]}")
        return 0
    names = EXPERIMENTS if args.names == ["all"] else args.names
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; known: {EXPERIMENTS}")
        return 1
    failed = []
    for name in names:
        results = run_one(name, args.quick)
        if args.check:
            try:
                getattr(experiments, name).check(results)
            except AssertionError:
                traceback.print_exc()
                print(f"-- {name}: shape check FAILED")
                failed.append(name)
    if failed:
        print(f"\nshape checks failed: {failed}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
