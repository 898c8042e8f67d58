#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both values, the ratio
B / A *with its base*, the wider of the two runs' own spreads
(interquartile distance of the per-repeat values over the reported
value), and a verdict —

* ``worse``: B's value is worse than A's by more than the metric's
  bound (for ``fail_share``: B's failed/attempted rose by more than
  0.001);
* ``unresolved``: not worse, but the spread is wider than the bound,
  so "unchanged" cannot be claimed either;
* ``ok``: within the bound, and the spread is narrower than it.

Exit status 1 when any row is ``worse``.  Two files are one pair; a
claim about two commits needs at least ten alternating pairs (see the
README).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import END_TO_END, UNITS

FAIL_SHARE_RISE = 0.001


def _spread(metric: dict) -> float:
    return (metric["q3"] - metric["q1"]) / metric["value"]


def compare(a: dict, b: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, ratio, spread, bound, verdict)``
    for every workload of ``a``."""
    rows = []
    for workload, in_a in a["workloads"].items():
        end_a = in_a["end_to_end"]
        end_b = b["workloads"][workload]["end_to_end"]
        for name, __, better, bound, __ in END_TO_END:
            m_a, m_b = end_a["metrics"][name], end_b["metrics"][name]
            ratio = m_b["value"] / m_a["value"]
            worsening = ratio - 1 if better == "lower" else 1 - ratio
            spread = max(_spread(m_a), _spread(m_b))
            verdict = "worse" if worsening > bound else \
                "unresolved" if spread > bound else "ok"
            rows.append((workload, name, m_a["value"], m_b["value"],
                         ratio, spread, bound, verdict))
        share_a = end_a["failed"] / end_a["attempted"]
        share_b = end_b["failed"] / end_b["attempted"]
        rows.append((workload, "fail_share", share_a, share_b, None,
                     0.0, FAIL_SHARE_RISE,
                     "worse" if share_b - share_a > FAIL_SHARE_RISE
                     else "ok"))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(a, b)
    print(f"{'workload':18s} {'metric':12s} {'A':>11s} {'B':>11s}  "
          f"{'B/A (base: A)':28s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, name, m_a, m_b, ratio, spread, bound, verdict in rows:
        unit = UNITS.get(name, "ratio")
        base = "" if ratio is None else \
            f"{ratio:.3f}x of {m_a:.5g} {unit}"
        print(f"{workload:18s} {name:12s} {m_a:11.5g} {m_b:11.5g}  "
              f"{base:28s} {spread:7.3f} {bound:6.3f}  {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
