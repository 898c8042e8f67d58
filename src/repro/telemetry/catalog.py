"""The metric catalog: every registerable metric name, typed.

Registration validates against this table — a misspelled metric name
is a hard error at registration time, not a silently empty series —
and ``tools/check_trace.py`` lints exported snapshots against it, so
the catalog is the single source of truth for what this system can
report.  What each metric means is documented once, in the metric
table of ``docs/observability.md``; ``tools/check_docs_links.py``
fails when that table's ``(name, kind)`` rows differ from this one.

Kinds:

* ``counter`` — monotonically increasing event count, owned and
  booked by the instrumented code (``counter.value += n``);
* ``gauge`` — a point-in-time level, or a count read on demand
  through a collector (a callable the owner registers);
* ``histogram`` — log-bucketed distribution reporting p50/p99/p999.
"""

from __future__ import annotations

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: name -> kind.
CATALOG: dict[str, str] = {
    # Root-transaction outcomes and latency distributions.
    "txn_commits_total": COUNTER,
    "txn_aborts_total": COUNTER,
    "txn_commit_latency_us": HISTOGRAM,
    "txn_abort_latency_us": HISTOGRAM,
    # Concurrency control (merged across containers and replicas).
    "cc_validations_total": GAUGE,
    "cc_validation_failures_total": GAUGE,
    "cc_aborts_total": GAUGE,
    # Multi-version storage engine.
    "storage_live_versions": GAUGE,
    "storage_versions_created_total": GAUGE,
    "storage_versions_gced_total": GAUGE,
    "storage_snapshot_roots_total": GAUGE,
    "storage_snapshot_reads_total": GAUGE,
    "storage_pinned_snapshots": GAUGE,
    "storage_read_only_aborts_total": GAUGE,
    # Group-commit durability (label: container).
    "log_flush_records": HISTOGRAM,
    "log_flush_bytes": HISTOGRAM,
    "log_fsyncs_total": COUNTER,
    "log_records_flushed_total": COUNTER,
    "log_bytes_flushed_total": COUNTER,
    "log_early_flushes_total": COUNTER,
    "log_device_busy_us": COUNTER,
    "log_durable_tid": GAUGE,
    "log_unflushed_records": GAUGE,
    "durability_acked_commits_total": COUNTER,
    "durability_checkpoints_total": COUNTER,
    "durability_checkpoint_segments": GAUGE,
    "durability_records_truncated_total": COUNTER,
    # Replication.
    "replication_lag_us": HISTOGRAM,
    "replication_records_shipped_total": COUNTER,
    "replication_records_applied_total": COUNTER,
    "replication_acked_records_total": COUNTER,
    "replication_sync_commit_waits_total": COUNTER,
    "replication_sync_ack_wait_us": COUNTER,
    "replication_reads_routed_total": COUNTER,
    "replication_failover_aborts_total": COUNTER,
    # Online migration.
    "migration_started_total": COUNTER,
    "migration_completed_total": COUNTER,
    "migration_cancelled_total": COUNTER,
    "migration_rows_copied_total": COUNTER,
    "migration_roots_parked_total": COUNTER,
    "migration_subcalls_parked_total": COUNTER,
    "migration_rebalance_checks_total": COUNTER,
    "migration_rebalance_moves_total": COUNTER,
    # Runtime levels (label: core).
    "executor_queue_depth": GAUGE,
    "executor_requests_total": GAUGE,
    "executor_busy_us": GAUGE,
    "scheduler_events_dispatched_total": GAUGE,
    "scheduler_pending_events": GAUGE,
    # Networked serving layer (repro.serving).
    "serving_accepted_total": COUNTER,
    "serving_shed_total": COUNTER,
    "serving_inflight": GAUGE,
    "serving_connections_total": COUNTER,
    "serving_sessions_total": COUNTER,
    "serving_wire_latency_us": HISTOGRAM,
    # Chaos campaigns (repro.chaos; campaign-level registry).
    "chaos_episodes_total": COUNTER,
    "chaos_episode_failures_total": COUNTER,
    "chaos_faults_injected_total": COUNTER,
    "chaos_faults_skipped_total": COUNTER,
    "chaos_shrink_episodes_total": COUNTER,
    "chaos_repro_files_total": COUNTER,
}


__all__ = ["CATALOG", "COUNTER", "GAUGE", "HISTOGRAM"]
