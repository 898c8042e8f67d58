"""One module per paper table/figure and per ablation;
``docs/benchmarks.md`` has the index.

Each module exposes ``run(...)`` (returns plain data, parameterized so
callers can trade precision for wall-clock time), ``report(results)``
(prints the same rows/series the paper's figure or table shows),
``check(results)`` (asserts the paper's shape, or an ablation's
acceptance conditions, on what ``run`` returned) and ``QUICK`` (the
scaled-down ``run`` parameters ``check`` is asserted at on every
push).  ``python -m repro.experiments`` is the
one way to run them.

Public exports are the experiment submodules themselves (``fig05``
through ``fig19``, ``table1``, ``appf2`` / ``appf3``, and the seven
``abl_*`` ablations: CC schemes, replication, migration, MVCC,
durability, the safety condition and the ``cr``/``cs`` asymmetry)
plus :mod:`~repro.experiments.common`, the shared database/deployment
builders and run-row helpers they use.
"""

from repro.experiments import (  # noqa: F401
    abl_cc_schemes,
    abl_cr_asymmetry,
    abl_durability,
    abl_migration,
    abl_mvcc,
    abl_replication,
    abl_safety,
    appf2,
    appf3,
    common,
    fig05,
    fig06,
    fig07_08,
    fig09_10,
    fig11,
    fig12,
    fig13_14,
    fig15_16,
    fig17_18,
    fig19,
    table1,
)

__all__ = [
    "common",
    "fig05",
    "fig06",
    "fig07_08",
    "fig09_10",
    "fig11",
    "fig12",
    "fig13_14",
    "fig15_16",
    "fig17_18",
    "fig19",
    "table1",
    "appf2",
    "appf3",
    "abl_cr_asymmetry",
    "abl_safety",
    "abl_cc_schemes",
    "abl_replication",
    "abl_migration",
    "abl_mvcc",
    "abl_durability",
]
