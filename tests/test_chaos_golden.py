"""Golden tiny chaos report: one tree against a committed file.

No golden history covers online migration, but the chaos campaign
does: its tiny 25-episode run at master seed 7 applies ``migrate`` and
``rebalance`` faults among the others, and every episode's history is
digested into the report.  This file pins that report byte for byte
against ``tests/golden/chaos_tiny.json``, so a change to migration's
mechanics (drain polling, rebalance choices) or to any other fault's
path shows as a diff.

A change that is *meant* to move the report regenerates the file and
says so::

    PYTHONPATH=src python tests/test_chaos_golden.py --regen
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "chaos_tiny.json"
ARGS = ["--episodes", "25", "--tiny", "--master-seed", "7", "--json"]


def chaos_report() -> str:
    """The ``--json`` report of the pinned tiny campaign."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "chaos_campaign.py"),
         *ARGS],
        capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_tiny_chaos_report_matches_golden():
    assert chaos_report() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: test_chaos_golden.py --regen")
    GOLDEN.write_text(chaos_report())
    print(f"wrote {GOLDEN}")
