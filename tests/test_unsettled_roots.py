"""Every completion path settles its root.

``ReactorDatabase.unsettled_roots`` holds each submitted root until it
settles: ``_submit`` adds it, the executor's ``_settle`` (commit,
abort, deferred commit) and ``refuse_root`` (a failed container at
submit, a parked root replayed onto a dead container, a queue drained
by ``kill_primary``) remove it.  Online migration's drain barrier
scans it, so a root left behind would block every later migration of
a reactor it touched, and a root removed twice raises.  Golden's
``observe`` asserts the registry empty after every pinned case; this
holds it empty after every episode of the tiny chaos campaign at
master seed 7, whose faults take the abort, refusal, failover,
migration park and replay paths.
"""

from __future__ import annotations

from repro.chaos import CampaignConfig, run_campaign
from repro.chaos import episode
from repro.core.database import ReactorDatabase


def test_tiny_chaos_campaign_leaves_no_unsettled_root(monkeypatch):
    built: list[ReactorDatabase] = []

    class Kept(ReactorDatabase):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(episode, "ReactorDatabase", Kept)
    report = run_campaign(CampaignConfig(
        episodes=25, master_seed=7, tiny=True))
    assert report.passed == 25
    assert len(built) == 25
    for database in built:
        assert not database.unsettled_roots, database.deployment.name

    def total(metric: str) -> int:
        return sum(database.telemetry.registry.value(metric)
                   for database in built)

    # The campaign did take the paths this is about.
    assert total("migration_completed_total") > 0
    assert total("migration_roots_parked_total") > 0
    assert total("replication_failover_aborts_total") > 0
    assert total("txn_aborts_total") > 0
