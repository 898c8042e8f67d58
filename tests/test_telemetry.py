"""The unified telemetry subsystem (repro.telemetry).

Covers the metrics registry (catalog enforcement, histogram
percentiles, label rendering, Prometheus text), the deterministic
tracer (same seed => byte-identical Chrome export), the sampled-off
path (no tracer, metrics kept), the bench-summary embedding, and the
trace validator (tools/check_trace.py).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.harness import drain_telemetry_summaries, run_measurement
from repro.concurrency.base import ABORT_REASONS, CCStats
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.durability.config import DurabilityConfig
from repro.errors import DeploymentError, SimulationError
from repro.replication.config import ReplicationConfig
from repro.telemetry import MetricsRegistry, TelemetryConfig
from repro.telemetry.catalog import CATALOG
from repro.telemetry.config import full_tracing
from repro.workloads import smallbank as sb

TOOLS = Path(__file__).parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name,
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_trace = load_tool("check_trace")
trace_export = load_tool("trace_export")

N = 12


@pytest.fixture(autouse=True)
def _drain_bench_log():
    """Keep the module-level bench telemetry log from leaking between
    tests (and into any benchmark collected in the same process)."""
    yield
    drain_telemetry_summaries()


def build_db(telemetry: TelemetryConfig | None = None,
             durability: DurabilityConfig | None = None,
             replication: ReplicationConfig | None = None
             ) -> ReactorDatabase:
    deployment = shared_nothing(3, mpl=4, placement=RangePlacement(4),
                                durability=durability,
                                replication=replication)
    if telemetry is not None:
        deployment.telemetry = telemetry
    database = ReactorDatabase(deployment, sb.declarations(N))
    sb.load(database, N)
    return database


def drive(database: ReactorDatabase, seed: int = 42,
          measure_us: float = 6_000.0):
    return run_measurement(database, 3,
                           sb.SmallbankWorkload(N).factory_for,
                           warmup_us=1_000.0, measure_us=measure_us,
                           n_epochs=2, seed=seed)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

class TestMetricsRegistry:
    def test_counter_counts_and_is_shared(self):
        registry = MetricsRegistry()
        counter = registry.counter("txn_commits_total")
        counter.inc()
        counter.inc(2)
        assert registry.value("txn_commits_total") == 3
        assert registry.counter("txn_commits_total") is counter

    def test_gauge_set_and_collector(self):
        registry = MetricsRegistry()
        registry.gauge("scheduler_pending_events").set(7)
        assert registry.value("scheduler_pending_events") == 7
        backing = {"v": 1}
        registry.gauge_fn("scheduler_pending_events",
                          lambda: backing["v"])
        backing["v"] = 42
        assert registry.value("scheduler_pending_events") == 42
        # Re-registration re-points the collector (idempotent: what
        # promotion/log replacement relies on).
        registry.gauge_fn("scheduler_pending_events", lambda: -1)
        assert registry.value("scheduler_pending_events") == -1

    def test_unknown_metric_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(SimulationError):
            registry.counter("not_in_the_catalog_total")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(SimulationError):
            # Cataloged as a counter, requested as a gauge.
            registry.gauge("txn_commits_total")

    def test_histogram_percentiles_nearest_rank(self):
        registry = MetricsRegistry()
        hist = registry.histogram("txn_commit_latency_us")
        for value in (1.0, 2.0, 3.0, 100.0):
            hist.observe(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == 106.0
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        # Nearest rank 2 of 4 at q=0.5 -> the 2.0 observation's
        # bucket upper bound.
        assert summary["p50"] == 2.0
        # The top observation's bucket bound is 128, clamped to the
        # exact max.
        assert summary["p99"] == 100.0
        assert summary["p999"] == 100.0

    def test_empty_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("txn_abort_latency_us")
        assert hist.percentile(0.99) == 0.0
        assert hist.summary()["count"] == 0

    def test_snapshot_label_rendering(self):
        registry = MetricsRegistry()
        registry.counter("log_fsyncs_total", container=0).value = 5
        registry.counter("log_fsyncs_total", container=1).value = 9
        snap = registry.snapshot()
        assert snap['log_fsyncs_total{container="0"}'] == 5
        assert snap['log_fsyncs_total{container="1"}'] == 9

    def test_value_of_unregistered_is_zero(self):
        assert MetricsRegistry().value("txn_commits_total") == 0

    def test_no_dead_catalog_entries(self):
        """Every cataloged metric outside the serving and chaos layers
        is registered by a durable, sync-replicated database that ran
        a transaction and a migration: a catalog row whose
        registration was deleted fails here."""
        database = build_db(
            durability=DurabilityConfig(enabled=True, mode="group"),
            replication=ReplicationConfig(replicas_per_container=1,
                                          mode="sync"))
        database.run(sb.reactor_name(0), "deposit_checking", 1.0)
        database.migrate(sb.reactor_name(0), 2)
        database.scheduler.run()
        registered = {key.split("{")[0] for key in
                      database.telemetry.registry.snapshot()}
        expected = {name for name in CATALOG
                    if not name.startswith(("serving_", "chaos_"))}
        assert expected - registered == set()

    def test_cc_gauges_sum_their_own_field_without_merging(
            self, monkeypatch):
        """Four containers, one ``sync`` replica each: every ``cc_*``
        gauge reads what one merged ``CCStats`` over all eight sources
        would, and neither ``snapshot()`` nor ``abort_counts()`` merges
        anything to get there."""
        deployment = shared_nothing(
            4, mpl=4, placement=RangePlacement(N // 4),
            replication=ReplicationConfig(1, "sync"))
        database = ReactorDatabase(deployment, sb.declarations(N))
        sb.load(database, N)
        drive(database)
        sources = [c.concurrency.stats for c in database.containers] + [
            replica.concurrency.stats
            for group in database.replication.replicas.values()
            for replica in group]
        assert len(sources) == 8
        merged = CCStats()
        for stats in sources:
            merged.merge(stats)
        assert merged.validations > 0
        merges = []
        merge = CCStats.merge
        monkeypatch.setattr(
            CCStats, "merge",
            lambda self, other: merges.append(1) or merge(self, other))
        registry = database.telemetry.registry
        snapshot = registry.snapshot()
        aborts = database.abort_counts()
        assert merges == []
        assert snapshot["cc_validations_total"] == merged.validations
        assert snapshot["cc_validation_failures_total"] == \
            merged.validation_failures
        by_reason = {reason: getattr(merged, field)
                     for reason, field in ABORT_REASONS.items()}
        assert {reason: snapshot[f'cc_aborts_total{{reason="{reason}"}}']
                for reason in ABORT_REASONS} == by_reason
        assert aborts == {
            "scheme": "occ",
            "validations": merged.validations,
            "validation_failures": merged.validation_failures,
            "by_reason": by_reason,
            "total_aborts": sum(by_reason.values()),
        }


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

class TestTelemetryConfig:
    def test_defaults(self):
        config = TelemetryConfig()
        assert config.trace_sample == 64
        assert not config.trace_system

    def test_environment_is_ignored(self, monkeypatch):
        """What a test or benchmark measures depends on its config
        alone: the two variables that used to override the defaults
        are exported and change nothing."""
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        monkeypatch.setenv("REPRO_TRACE", "all")
        assert TelemetryConfig() == TelemetryConfig(
            trace_sample=64, trace_system=False)

    def test_roundtrip(self):
        config = TelemetryConfig(trace_sample=8, trace_system=True)
        assert TelemetryConfig.from_dict(config.to_dict()) == config

    def test_full_tracing(self):
        config = full_tracing()
        assert config.trace_sample == 1 and config.trace_system

    @pytest.mark.parametrize("trace_sample", [2.7, True, "8"])
    def test_trace_sample_is_validated_not_coerced(self, trace_sample):
        """Built in code (a config file's values are type-checked by
        ``from_dict``), ``2.7`` used to be truncated to 2 and ``True``
        read as 1; neither is an int, so both are refused, naming the
        key."""
        with pytest.raises(DeploymentError, match="trace_sample"):
            TelemetryConfig(trace_sample=trace_sample)


# ----------------------------------------------------------------------
# Deterministic tracing
# ----------------------------------------------------------------------

class TestTraceDeterminism:
    def test_same_seed_byte_identical(self):
        exports = []
        for __ in range(2):
            database = build_db(telemetry=full_tracing())
            drive(database, seed=7)
            exports.append(database.telemetry.export_chrome_json())
        assert exports[0] == exports[1]
        assert '"ph": "X"' in exports[0]

    def test_sampling_is_by_txn_id(self):
        database = build_db(telemetry=TelemetryConfig(trace_sample=4))
        drive(database)
        roots = [span for span in database.telemetry.tracer.spans
                 if span.name == "txn"]
        assert roots
        assert all(span.tid % 4 == 0 for span in roots)

    def test_span_tree_shape(self):
        database = build_db(telemetry=full_tracing(),
                            durability=DurabilityConfig(enabled=True,
                                                        mode="group"))
        drive(database)
        spans = database.telemetry.tracer.spans
        names = {span.name for span in spans}
        assert {"txn", "scheduling", "commit", "cc:validate",
                "cc:install", "log:epoch"} <= names
        # Multi-reactor transfers produce sub-calls and future waits.
        assert any(name.startswith("subcall:") for name in names)
        assert any(name.startswith("wait:") for name in names)
        # Group durability defers acks behind the epoch flush.
        assert "durability:ack_wait" in names

    def test_migration_spans(self):
        database = build_db(telemetry=full_tracing())
        database.scheduler.at(
            2_000.0,
            lambda: database.migrate(sb.reactor_name(0), 2))
        drive(database)
        names = {span.name for span in
                 database.telemetry.tracer.spans}
        assert {"migration:drain", "migration:copy_flip"} <= names
        assert database.telemetry.registry.value(
            "migration_completed_total") == 1

    def test_replication_spans_and_lag_histogram(self):
        database = build_db(
            telemetry=full_tracing(),
            replication=ReplicationConfig(replicas_per_container=1,
                                          mode="async"))
        drive(database)
        names = {span.name for span in
                 database.telemetry.tracer.spans}
        assert "rep:ship_apply" in names
        summary = database.telemetry.bench_summary()
        assert summary["replication_lag_us"]["count"] > 0

    def test_exported_trace_validates(self):
        database = build_db(telemetry=full_tracing(),
                            durability=DurabilityConfig(enabled=True,
                                                        mode="group"))
        drive(database)
        payload = json.loads(database.telemetry.export_chrome_json())
        assert check_trace.check_payload(payload) == []

    def test_validator_catches_breakage(self):
        database = build_db(telemetry=full_tracing())
        drive(database)
        payload = database.telemetry.export_chrome()
        good = [e for e in payload["traceEvents"]
                if e.get("ph") == "X"]
        # Orphaned parent reference.
        broken = json.loads(json.dumps(payload))
        for event in broken["traceEvents"]:
            if event.get("ph") == "X":
                event["args"]["parent_span_id"] = 10**9
                break
        assert check_trace.check_payload(broken)
        # Unsorted timestamps.
        broken = json.loads(json.dumps(payload))
        events = [e for e in broken["traceEvents"]
                  if e.get("ph") == "X"]
        events[0]["ts"] = events[-1]["ts"] + 1_000.0
        assert check_trace.check_payload(broken)
        # Unknown metric name.
        broken = json.loads(json.dumps(payload))
        broken["metrics"]["bogus_metric_total"] = 1
        assert any("catalog" in problem for problem in
                   check_trace.check_payload(broken))
        assert good  # the untouched export had spans to break

    def test_trace_export_tool_deterministic(self):
        a = trace_export.export_trace(seed=3, measure_us=4_000.0)
        b = trace_export.export_trace(seed=3, measure_us=4_000.0)
        assert a == b
        payload = json.loads(a)
        assert check_trace.check_payload(payload) == []
        assert payload["metadata"]["trace_sample"] == 1


# ----------------------------------------------------------------------
# Sampled-off path
# ----------------------------------------------------------------------

class TestDisabledPath:
    def test_tracing_off_keeps_metrics(self):
        database = build_db(telemetry=TelemetryConfig(trace_sample=0))
        drive(database)
        telemetry = database.telemetry
        assert telemetry.tracer is None
        assert not telemetry.system_tracing
        summary = telemetry.bench_summary()
        assert summary["commits"] > 0
        assert summary["txn_commit_latency_us"]["count"] == \
            summary["commits"]

    def test_legacy_shapes_survive_disable(self):
        """The registry and the two dict shapes the e2e benchmark
        reads report identical numbers whether tracing is on or
        sampled off (collectors are pure pull)."""
        snapshots = []
        for trace_sample in (64, 0):
            database = build_db(
                telemetry=TelemetryConfig(trace_sample=trace_sample),
                durability=DurabilityConfig(enabled=True,
                                            mode="group"),
                replication=ReplicationConfig(
                    replicas_per_container=1, mode="async"))
            drive(database)
            snapshots.append({
                "registry": database.telemetry.registry.snapshot(),
                "aborts": database.abort_counts(),
                "durability": database.durability_stats(),
            })
        assert snapshots[0] == snapshots[1]
        aborts = snapshots[0]["aborts"]
        assert set(aborts["by_reason"]) == set(ABORT_REASONS)
        assert aborts["validations"] > 0
        registry = snapshots[0]["registry"]
        assert {"storage_live_versions", "storage_versions_created_total",
                "storage_versions_gced_total",
                "storage_read_only_aborts_total"} <= set(registry)
        assert registry["replication_records_shipped_total"] > 0
        assert registry["replication_lag_us"]["count"] > 0
        durability = snapshots[0]["durability"]
        flusher = durability["flushers"][0]
        assert flusher["fsyncs"] > 0
        assert flusher["records_per_fsync"] > 0


# ----------------------------------------------------------------------
# Bench embedding & reporting
# ----------------------------------------------------------------------

class TestBenchIntegration:
    def test_measurement_carries_summary_and_log_drains(self):
        drain_telemetry_summaries()
        database = build_db()
        result = drive(database)
        assert result.telemetry["commits"] == result.telemetry[
            "txn_commit_latency_us"]["count"]
        drained = drain_telemetry_summaries()
        assert drained == [result.telemetry]
        assert drain_telemetry_summaries() == []

    def test_bench_compare_renders_percentiles(self):
        bench_compare = load_tool("bench_compare")
        payload = {"runs": [], "telemetry": [
            {"commits": 10, "aborts": 1,
             "txn_commit_latency_us": {"count": 10, "p50": 8.0,
                                       "p99": 64.0, "p999": 64.0},
             "txn_abort_latency_us": {"count": 1, "p99": 4.0}},
        ]}
        lines = bench_compare.telemetry_lines("demo", payload)
        assert any("report-only" in line for line in lines)
        assert any("| 0 | 10 | 1 | 8.0 | 64.0 | 64.0 | 4.0 |" == line
                   for line in lines)
        assert bench_compare.telemetry_lines("demo", {"runs": []}) \
            == []


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

class TestExport:
    def test_chrome_payload_structure(self):
        database = build_db(telemetry=full_tracing())
        drive(database)
        payload = database.telemetry.export_chrome()
        events = payload["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert any(m["args"]["name"] == "transactions"
                   for m in metadata)
        xs = [e for e in events if e["ph"] == "X"]
        assert xs == sorted(xs, key=lambda e: e["ts"])
        assert payload["metadata"]["dropped_spans"] == 0
        assert payload["displayTimeUnit"] == "ms"
        assert "txn_commits_total" in payload["metrics"]
