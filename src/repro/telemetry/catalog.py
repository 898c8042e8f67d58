"""The metric catalog: every registerable metric name, typed.

Registration validates against this table — a misspelled metric name
is a hard error at registration time, not a silently empty series —
and ``tools/check_trace.py`` lints exported snapshots against it, so
the catalog is the single source of truth for what this system can
report.

Kinds:

* ``counter`` — monotonically increasing event count, owned by the
  instrumented code (``inc``);
* ``gauge`` — a point-in-time level; most gauges here are
  *collector-backed* (a callable reads a subsystem's live stat object
  on demand), so each number is booked once and the registry is the
  one place it is read;
* ``histogram`` — log-bucketed distribution reporting p50/p99/p999.
"""

from __future__ import annotations

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: name -> (kind, help).
CATALOG: dict[str, tuple[str, str]] = {
    # Root-transaction outcomes and latency distributions.
    "txn_commits_total":
        (COUNTER, "Root transactions reported committed."),
    "txn_aborts_total":
        (COUNTER, "Root transactions reported aborted."),
    "txn_commit_latency_us":
        (HISTOGRAM, "Submit-to-acknowledgement latency of committed "
                    "roots (virtual microseconds)."),
    "txn_abort_latency_us":
        (HISTOGRAM, "Submit-to-report latency of aborted roots "
                    "(virtual microseconds)."),
    # Concurrency control (merged across containers and replicas).
    "cc_validations_total":
        (GAUGE, "Commit-time validations attempted."),
    "cc_validation_failures_total":
        (GAUGE, "Validations that failed (OCC conflicts)."),
    "cc_aborts_total":
        (GAUGE, "Abort events by reason (label: reason)."),
    # Multi-version storage engine.
    "storage_live_versions":
        (GAUGE, "Superseded versions currently retained on chains."),
    "storage_versions_created_total":
        (GAUGE, "Versions created by installs."),
    "storage_versions_gced_total":
        (GAUGE, "Versions pruned by GC."),
    "storage_snapshot_roots_total":
        (GAUGE, "Read-only roots served from pinned snapshots."),
    "storage_snapshot_reads_total":
        (GAUGE, "Individual reads served from snapshots."),
    "storage_pinned_snapshots":
        (GAUGE, "Snapshots currently pinned by in-flight roots."),
    "storage_read_only_aborts_total":
        (GAUGE, "Read-only roots that aborted (0 under snapshot "
                "reads)."),
    # Group-commit durability (label: container).
    "log_flush_records":
        (HISTOGRAM, "Records made durable per flush epoch."),
    "log_flush_bytes":
        (HISTOGRAM, "Bytes made durable per flush epoch."),
    "log_fsyncs_total":
        (GAUGE, "Fsyncs issued by a container's log device."),
    "log_records_flushed_total":
        (GAUGE, "Records made durable on a container."),
    "log_bytes_flushed_total":
        (GAUGE, "Bytes made durable on a container."),
    "log_early_flushes_total":
        (GAUGE, "Epochs flushed early on the batch-bytes threshold."),
    "log_device_busy_us":
        (GAUGE, "Virtual time a container's log device was busy."),
    "log_durable_tid":
        (GAUGE, "Highest commit TID known durable on a container."),
    "log_unflushed_records":
        (GAUGE, "Appended records not yet durable (crash-loss "
                "window)."),
    "durability_acked_commits_total":
        (GAUGE, "Commits acknowledged to clients."),
    "durability_checkpoints_total":
        (GAUGE, "Checkpoints taken."),
    "durability_checkpoint_segments":
        (GAUGE, "Segments in the live checkpoint manifest."),
    "durability_records_truncated_total":
        (GAUGE, "WAL records truncated below checkpoints."),
    # Replication.
    "replication_lag_us":
        (HISTOGRAM, "Commit-to-replica-apply lag of shipped records "
                    "(virtual microseconds)."),
    "replication_records_shipped_total":
        (GAUGE, "Redo records entered into the ship channels."),
    "replication_records_applied_total":
        (GAUGE, "Redo records applied on replicas."),
    "replication_acked_records_total":
        (GAUGE, "Records acknowledged by all replicas (sync)."),
    "replication_sync_commit_waits_total":
        (GAUGE, "Commits that waited on a sync replica ack."),
    "replication_sync_ack_wait_us":
        (GAUGE, "Total virtual time spent in sync ack waits."),
    "replication_reads_routed_total":
        (GAUGE, "Read-only roots routed to replica shadows."),
    "replication_failover_aborts_total":
        (GAUGE, "Roots/commits aborted because a container failed."),
    # Online migration.
    "migration_started_total": (GAUGE, "Migrations started."),
    "migration_completed_total": (GAUGE, "Migrations completed."),
    "migration_cancelled_total": (GAUGE, "Migrations cancelled."),
    "migration_rows_copied_total":
        (GAUGE, "Rows copied by completed migrations."),
    "migration_roots_parked_total":
        (GAUGE, "Root invocations parked during migrations."),
    "migration_subcalls_parked_total":
        (GAUGE, "Sub-calls parked during migrations."),
    "migration_rebalance_checks_total":
        (GAUGE, "Elastic rebalance checks run."),
    "migration_rebalance_moves_total":
        (GAUGE, "Migrations started by the rebalancer."),
    # Runtime levels (label: core).
    "executor_queue_depth":
        (GAUGE, "Requests waiting in an executor's queue."),
    "executor_requests_total":
        (GAUGE, "Requests an executor has served."),
    "executor_busy_us":
        (GAUGE, "Cumulative busy virtual time of an executor core."),
    "scheduler_events_dispatched_total":
        (GAUGE, "Discrete events the simulation has dispatched."),
    "scheduler_pending_events":
        (GAUGE, "Events currently queued in the simulation heap."),
    # Networked serving layer (repro.serving).
    "serving_accepted_total":
        (COUNTER, "Wire requests admitted and submitted."),
    "serving_shed_total":
        (COUNTER, "Wire requests shed by admission control "
                  "(answered with a typed overloaded error)."),
    "serving_inflight":
        (GAUGE, "Requests admitted but not yet answered."),
    "serving_connections_total":
        (COUNTER, "TCP connections accepted by the server."),
    "serving_sessions_total":
        (COUNTER, "Distinct logical sessions seen on connections."),
    "serving_wire_latency_us":
        (HISTOGRAM, "Receive-to-response wall latency of served "
                    "requests (microseconds)."),
    # Chaos campaigns (repro.chaos; campaign-level registry).
    "chaos_episodes_total":
        (COUNTER, "Chaos episodes run by a campaign."),
    "chaos_episode_failures_total":
        (COUNTER, "Episodes that failed certification or liveness."),
    "chaos_faults_injected_total":
        (COUNTER, "Fault actions applied (label: kind)."),
    "chaos_faults_skipped_total":
        (COUNTER, "Fault actions skipped — preconditions no longer "
                  "held at fire time (label: kind)."),
    "chaos_shrink_episodes_total":
        (COUNTER, "Episodes re-run by the delta-debugging shrinker."),
    "chaos_repro_files_total":
        (COUNTER, "Minimized repro files produced by a campaign."),
}


def kind_of(name: str) -> str | None:
    entry = CATALOG.get(name)
    return entry[0] if entry else None


def help_of(name: str) -> str:
    entry = CATALOG.get(name)
    return entry[1] if entry else ""


__all__ = ["CATALOG", "COUNTER", "GAUGE", "HISTOGRAM", "kind_of",
           "help_of"]
