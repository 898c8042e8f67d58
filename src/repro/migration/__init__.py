"""Online reactor migration and load rebalancing.

This layer makes reactor *placement over time* a live operation rather
than a start-time choice: a :class:`MigrationManager` (attached to
every :class:`~repro.core.database.ReactorDatabase`) moves a reactor —
records, partial indexes, routing entry — between containers while the
system serves traffic (park new work / drain in-flight transactions /
copy state through the redo-record machinery / atomically flip routing
/ replay the parked work), keeping replication consistent by re-homing
the reactor's replica shards.  ``rebalance()`` moves the hottest
reactors off overloaded containers; a caller that wants it periodic
schedules it in virtual time (``db.scheduler.at(t, db.rebalance)``).
The mechanics are constants of :mod:`repro.migration.manager`, not
deployment options.

Public exports: :class:`MigrationManager` and its :class:`Migration`
handle.  The usual entry points are ``db.migrate(reactor, dst)`` and
``db.rebalance()``; the manager books its counters as the
``migration_*`` metrics of ``db.telemetry.registry``, and each
finished migration is a :class:`Migration` in
``db.migration.events``.  Black-box certification of completed
migrations lives in :func:`repro.formal.audit.certify_migration`.
"""

from repro.migration.manager import Migration, MigrationManager

__all__ = ["MigrationManager", "Migration"]
