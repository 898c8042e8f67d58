"""Every metric the benchmark reports: name, unit, direction, and — the
part ``BENCHMARK.json`` has no field for — the layer it belongs to and
the end-to-end metric it is expected to move, on which workload.

``BENCHMARK.json`` repeats the names, units and directions; the smoke
test keeps the two in step.
"""

from __future__ import annotations

from layer_profile import LAYERS

#: (name, unit, better, bound, meaning).  ``bound`` is the share of the
#: parent's median by which the metric may worsen before it counts as a
#: regression.  Times are the reference machine's (``harness.py``:
#: each slice's wall time times the machine's speed meanwhile, as the
#: probe read it), which equals wall time on this box when nothing
#: slows it.  The timed bounds sit at the contract's ceiling of 0.25:
#: a bound has to clear three times the ten-seed interquartile spread
#: on every workload, while the host is busy too (README, "Bounds").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "build + bulk load (+ server start + connect) in a process that "
     "has built nothing before; median of six"),
    ("txn_per_s", "txn/s", "higher", 0.25,
     "capacity phase: (committed + user-aborted) roots per second; "
     "CC aborts earn nothing"),
    ("lat_p50_us", "us", "lower", 0.25,
     "latency phase median: closed loop, one request in flight (a "
     "solo call; a round trip on the served workloads)"),
    ("lat_p75_us", "us", "lower", 0.25,
     "latency phase upper quartile: the highest percentile that "
     "repeats on every workload (p90, p95 and p99 are report-only: "
     "loadgen.lat_p9x_us)"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss after the first repeat's set-up and warm-up, a fixed "
     "amount of work"),
)

SMALLBANK_PROCS = ("balance", "deposit_checking", "transact_saving",
                   "write_check", "amalgamate", "transfer")
TPCC_PROCS = ("new_order", "payment", "order_status", "delivery",
              "stock_level")

_SERVED = "sb_served*"
_EMBEDDED = "sb_embedded, tpcc_embedded"

#: (name, unit, better, layer, moves).  A metric reads 0 on a workload
#: where its layer does no work (serving metrics on embedded
#: workloads, durability on SmallBank, the other benchmark's
#: procedures).
PER_LAYER = (
    # Timed calls into public functions.
    ("serving.rtt_p50_us", "us", "lower", "serving",
     f"lat_p50_us on {_SERVED}"),
    ("serving.rtt_p95_us", "us", "lower", "serving",
     f"lat_p75_us on {_SERVED}"),
    ("serving.server.residence_us", "us", "lower", "serving.server",
     f"lat_p50_us on {_SERVED} (mean of serving_wire_latency_us)"),
    ("core.solo_p50_us", "us", "lower", "core",
     "lat_p50_us everywhere (the engine's share of a round trip)"),
    ("serving.server.overhead_us", "us", "lower", "serving.server",
     f"lat_p50_us on {_SERVED}: residence - solo"),
    ("client.outside_server_us", "us", "lower", "client",
     f"lat_p50_us on {_SERVED}: rtt - residence"),
    ("client.submit_call_us", "us", "lower", "client",
     f"txn_per_s on {_SERVED} (caller-thread cost of a submit)"),
    ("serving.ping_rtt_p50_us", "us", "lower", "serving",
     f"lat_p50_us on {_SERVED}: the wire floor (no-op procedure)"),
    ("runtime.noop_solo_p50_us", "us", "lower", "runtime",
     "lat_p50_us everywhere: the empty-transaction floor"),
    ("serving.protocol.encode_request_us", "us", "lower",
     "serving.protocol", f"txn_per_s, lat_p50_us on {_SERVED}"),
    ("serving.protocol.decode_request_us", "us", "lower",
     "serving.protocol", f"txn_per_s, lat_p50_us on {_SERVED}"),
    ("serving.protocol.encode_response_us", "us", "lower",
     "serving.protocol", f"txn_per_s, lat_p50_us on {_SERVED}"),
    ("serving.protocol.decode_response_us", "us", "lower",
     "serving.protocol", f"txn_per_s, lat_p50_us on {_SERVED}"),
    ("serving.protocol.decode_coalesced_us", "us", "lower",
     "serving.protocol",
     f"txn_per_s on {_SERVED} (per frame, 16 frames per feed)"),
    ("serving.protocol.request_bytes", "bytes", "lower",
     "serving.protocol", f"txn_per_s on {_SERVED}"),
    ("serving.protocol.response_bytes", "bytes", "lower",
     "serving.protocol", f"txn_per_s on {_SERVED}"),
    *((f"workloads.{proc}.solo_p50_us", "us", "lower", "workloads",
       "lat_p50_us on sb_*; which procedure a change moved")
      for proc in SMALLBANK_PROCS),
    *((f"workloads.{proc}.solo_p50_us", "us", "lower", "workloads",
       "lat_p75_us on tpcc_embedded (set by new_order; delivery is "
       "the slowest 4 %)")
      for proc in TPCC_PROCS),
    ("core.load_rows_per_s", "rows/s", "higher", "core", "setup_s"),
    ("formal.certify_txn_per_s", "txn/s", "higher", "formal",
     "none (cost of the check phase's certify_all; ROADMAP item 4a)"),
    # Public counters.
    ("concurrency.cc_abort_share", "ratio", "lower", "concurrency",
     "txn_per_s on tpcc_embedded (wasted work; ~0 on sb_*)"),
    ("concurrency.validations_per_txn", "count", "lower",
     "concurrency", f"txn_per_s on {_EMBEDDED}"),
    ("concurrency.validation_fail_share", "ratio", "lower",
     "concurrency", "txn_per_s on tpcc_embedded"),
    ("workloads.user_abort_share", "ratio", "lower", "workloads",
     "none: an input property, must not move"),
    ("sim.events_per_txn", "count", "lower", "sim",
     f"txn_per_s on {_EMBEDDED}"),
    ("runtime.executor_requests_per_txn", "count", "lower", "runtime",
     f"txn_per_s on {_EMBEDDED}"),
    ("durability.fsyncs_per_commit", "count", "lower", "durability",
     "txn_per_s on tpcc_embedded only"),
    ("durability.records_per_fsync", "count", "higher", "durability",
     "txn_per_s on tpcc_embedded only"),
    ("durability.log_bytes_per_commit", "bytes", "lower",
     "durability", "txn_per_s on tpcc_embedded only"),
    ("serving.server.shed_share", "ratio", "lower", "serving.server",
     "fail share (must stay 0 at these rates)"),
    ("loadgen.fail_share", "ratio", "lower", "loadgen",
     "the run's failed/attempted; any rise above 0.001 is a "
     "regression"),
    ("loadgen.max_send_lag_us", "us", "lower", "loadgen",
     f"lat_p75_us on {_SERVED} (how late the generator ran)"),
    ("loadgen.achieved_rate_share", "ratio", "higher", "loadgen",
     f"none: offered rate actually sent on {_SERVED}"),
    ("loadgen.lat_p50_us", "us", "lower", "loadgen",
     f"report-only: on {_SERVED} the open loop (Poisson 1,000 req/s, "
     "from intended send time), which idle wake-ups make too "
     "unsteady to gate; the solo calls on embedded"),
    ("loadgen.lat_p75_us", "us", "lower", "loadgen",
     "report-only, as loadgen.lat_p50_us"),
    ("loadgen.lat_p90_us", "us", "lower", "loadgen",
     "report-only tail of the same sample (ten-seed spread up to "
     "0.23 on sb_served_threads)"),
    ("loadgen.lat_p95_us", "us", "lower", "loadgen",
     "report-only tail"),
    ("loadgen.lat_p99_us", "us", "lower", "loadgen",
     "report-only tail"),
    ("loadgen.over_5ms_share", "ratio", "lower", "loadgen",
     "report-only tail: where a rare stall of the program shows"),
    ("machine.calib_kops", "kops/s", "higher", "machine",
     "everything: interpreter speed, for reading across machines"),
    # The traced run.
    *((f"{layer}.self_us_per_txn", "us", "lower", layer,
       "txn_per_s where the layer works (1e6 / sum of layers)")
      for layer in LAYERS),
    *((f"{layer}.calls_per_txn", "count", "lower", layer,
       "txn_per_s where the layer works")
      for layer in LAYERS),
    ("wait.self_us_per_txn", "us", "lower", "wait",
     f"txn_per_s on {_SERVED}: wall time no thread was running"),
    ("wait.calls_per_txn", "count", "lower", "wait",
     f"txn_per_s on {_SERVED}: blocking calls, i.e. thread hand-offs"),
    ("sim.run_calls_per_txn", "count", "lower", "sim",
     "txn_per_s on sb_served (inverse: requests per pump)"),
    ("trace.overhead_ratio", "ratio", "lower", "trace",
     "none: untraced / traced txn_per_s"),
    ("trace.unattributed_share", "ratio", "lower", "trace",
     "none: traced wall time no declared layer accounts for"),
)

END_TO_END_NAMES = tuple(row[0] for row in END_TO_END)
PER_LAYER_NAMES = tuple(row[0] for row in PER_LAYER)
UNITS = {row[0]: row[1] for row in (*END_TO_END, *PER_LAYER)}
