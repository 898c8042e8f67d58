"""A root that never ran is reported done exactly once, at every site
that refuses one.

Three sites refuse a root before it runs: a submit to a failed
container, a root parked by a migration that replays onto a
destination that failed in the meantime, and a root still queued on a
container when it is killed.  Each reports through
``ReactorDatabase.refuse_root``: ``on_done`` fires once, uncommitted,
the root counts as one abort and as one failover abort, and it leaves
the database's unsettled-root registry.
"""

from __future__ import annotations

import pytest

from repro.core.database import ReactorDatabase
from repro.core.deployment import shared_nothing
from repro.replication import ReplicationConfig
from repro.workloads import smallbank as sb

N = 4


def _homed_on(database, cid):
    return next(name for name in database.reactor_names()
                if database.reactor(name).container.container_id == cid)


def failed_container_at_submit(database, submit):
    database.replication.kill_primary(0)
    return submit(_homed_on(database, 0))


def migration_replay_onto_dead_container(database, submit):
    name = _homed_on(database, 0)
    migration = database.migrate(name, 1)
    # Fires at the routing flip, before the parked root replays.
    migration.on_done = lambda __: database.replication.kill_primary(1)
    return submit(name)


def queued_when_killed(database, submit):
    root = submit(_homed_on(database, 0))
    database.replication.kill_primary(0)
    return root


def refuse(database, site):
    """Run ``site`` with one root; return the root, every ``on_done``
    call, and how far the abort and failover-abort counters moved."""
    registry = database.telemetry.registry

    def counters():
        return (registry.value("txn_aborts_total"),
                registry.value("replication_failover_aborts_total"))

    calls = []

    def submit(name):
        return database.submit(
            name, "deposit_checking", 1.0,
            on_done=lambda *outcome: calls.append(outcome))

    before = counters()
    root = site(database, submit)
    database.scheduler.run()
    moved = tuple(b - a for a, b in zip(before, counters()))
    return root, calls, moved


@pytest.mark.parametrize("site", [failed_container_at_submit,
                                  migration_replay_onto_dead_container,
                                  queued_when_killed])
def test_a_failure_refusal_is_reported_once(site):
    database = ReactorDatabase(
        shared_nothing(2, replication=ReplicationConfig(
            replicas_per_container=1, mode="sync")),
        sb.declarations(N))
    sb.load(database, N)
    root, calls, moved = refuse(database, site)
    assert len(calls) == 1
    called_root, committed, reason, result = calls[0]
    assert called_root is root and not committed and result is None
    assert reason.endswith(" failed")
    assert moved == (1, 1)
    assert root.finished
    assert not database.unsettled_roots
