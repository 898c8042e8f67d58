"""One workload, measured: the untraced run that yields the end-to-end
metrics and the traced run that yields the per-layer ones.

Every number is obtained from outside the program: by timing calls
into public functions, by reading public stats
(``db.telemetry.registry``, ``db.abort_counts()``,
``db.durability_stats()``), or by profiling the run from
:mod:`layer_profile`.  Nothing here patches or subclasses repo code.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Any, Callable, NamedTuple

from repro.bench.metrics import percentile
from repro.client import LocalClient
from repro.serving import protocol
from repro.workloads import tpcc

import check
from harness import (
    Driver,
    Slice,
    Spans,
    SpeedProbe,
    Tally,
    counters,
    delta,
    latencies_us,
    rate,
    sliced,
    summarize,
)
from inputs import TPCC_WAREHOUSES, Spec, arrival_gaps, cycle_from
from layer_profile import LAYERS, LayerProfiler
from metrics import PER_LAYER_NAMES, SMALLBANK_PROCS, TPCC_PROCS
from workloads import CODEC, OPEN_LOOP_RATE, Workload, build_noop, served


class Sizes(NamedTuple):
    repeats: int   # fresh databases per untraced run
    setups: int    # set-ups timed in fresh processes, per repeat
    warmup: int    # untimed transactions before the timed phases
    check: int     # transactions in the gate's serial slice


#: Fewest repeats a timed run may have: a median needs three.
MIN_REPEATS = 3

DEFAULT_SIZES = Sizes(repeats=MIN_REPEATS, setups=2, warmup=1000,
                      check=1000)
QUICK_SIZES = Sizes(repeats=1, setups=1, warmup=200, check=50)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p(pct: float) -> Callable[[list[Slice]], float]:
    """The ``pct``-th percentile of the whole latency sample."""
    return lambda slices: percentile(latencies_us(slices), pct)


def _speed(slices: list[Slice]) -> float:
    """The machine's mean speed over ``slices``."""
    return statistics.mean(s.speed for s in slices)


# ----------------------------------------------------------------------
# One repeat: what both runs are made of
# ----------------------------------------------------------------------

class _Run:
    """What the pieces of one run share: the workload and its inputs,
    the outcome tally, the speed probe and the arrival times."""

    def __init__(self, workload: Workload, specs: list[Spec], seed: int,
                 phase_s: float, sizes: Sizes) -> None:
        self.workload = workload
        self.specs = specs
        self.phase_s = phase_s
        self.sizes = sizes
        self.tally = Tally()
        self.probe = SpeedProbe()
        self.gaps = arrival_gaps(seed, OPEN_LOOP_RATE)

    def phase(self, run_slice: Callable[[float], Any],
              seconds: float | None = None) -> list[Slice]:
        return sliced(self.probe, seconds or self.phase_s, run_slice)


def _capacity_slice(workload: Workload, database: Any, driver: Driver,
                    feed: Any) -> Callable[[float], Spans]:
    """The capacity phase for some seconds, with the CC aborts the
    public counters saw meanwhile noted on its spans."""
    def run_slice(seconds: float) -> Spans:
        aborted = counters(database)["cc_aborts"]
        spans = workload.capacity_phase(driver, feed, seconds)
        spans.cc_aborted = counters(database)["cc_aborts"] - aborted
        return spans
    return run_slice


def _residence(database: Any) -> tuple[float, float]:
    """Microseconds and requests in the server's public residence
    histogram; zeros on a database that is not served."""
    seen = database.telemetry.registry.value("serving_wire_latency_us")
    return (seen["sum"], seen["count"]) if seen else (0.0, 0.0)


def _one_repeat(run: _Run, index: int, open_loop: bool = False
                ) -> dict[str, Any]:
    """A fresh database: warm-up, latency phase, capacity phase, the
    timed ones as slices between probe readings.  The latency phase
    is a closed loop with one request in flight — a solo call, over
    the wire a round trip — and a served workload's is read against
    the server's own residence histogram.  With ``open_loop`` a served
    workload then takes Poisson arrivals for a phase.

    Every repeat warms up on the same inputs (so an embedded
    workload's counters must agree across repeats) and then measures
    its own stretch of them, ``index`` of ``sizes.repeats``: the
    median over repeats is then also one over inputs."""
    workload, specs = run.workload, run.specs
    out: dict[str, Any] = {}
    before = run.probe()
    start = time.perf_counter()
    database = workload.build()
    built = Slice(time.perf_counter() - start, (before, run.probe()))
    try:
        with workload.opened(database) as client:
            out["load_rows_per_s"] = sum(
                len(table) for name in database.reactor_names()
                for table in database.reactor(name).catalog) \
                / (built.work * built.speed)
            driver = Driver(client, run.tally)
            workload.warm_up(driver, cycle_from(specs, 0),
                             run.sizes.warmup)
            out["warm_counts"] = counters(database)
            out["warm_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            feed = cycle_from(
                specs, len(specs) * index // run.sizes.repeats)
            resided = _residence(database)
            out["latency"] = run.phase(
                lambda s: driver.solo(feed, s, phase="latency")[0])
            out["residence_us"] = _speed(out["latency"]) * _ratio(*(
                after - before for after, before
                in zip(_residence(database), resided)))
            if open_loop:
                out["open_loop"] = run.phase(
                    lambda s: driver.open_loop(feed, run.gaps, s))
            before_capacity = counters(database)
            out["capacity"] = run.phase(
                _capacity_slice(workload, database, driver, feed))
            out["totals"] = counters(database)
            out["during"] = delta(out["totals"], before_capacity)
        if workload.kind == "tpcc":
            tpcc.check_database(database, TPCC_WAREHOUSES)
    finally:
        database.close()
    return out


# ----------------------------------------------------------------------
# The untraced run: end-to-end metrics
# ----------------------------------------------------------------------

def timed_setup(workload: Workload) -> Slice:
    """One set-up — build, bulk load and, when served, server start
    and connect — timed between probe readings.  For a process that
    has built nothing yet: on a heap an earlier database has used and
    freed, new objects land scattered and the same set-up takes
    anything from 1.0 to 1.8 times as long, whatever the machine
    does (README, "Run shape")."""
    probe = SpeedProbe()

    def reading() -> float:
        return statistics.mean(probe() for __ in range(5))

    before = reading()
    start = time.perf_counter()
    database = workload.build()
    try:
        with workload.opened(database):
            seconds = time.perf_counter() - start
            return Slice(seconds, (before, reading()))
    finally:
        database.close()


def run_untraced(workload: Workload, specs: list[Spec], seed: int,
                 seconds: float, sizes: Sizes,
                 fresh_setup: Callable[[], Slice]) -> dict[str, Any]:
    """``sizes.repeats`` fresh databases, each: warm-up, latency
    phase, capacity phase; before each, ``sizes.setups`` set-ups
    timed by ``fresh_setup`` (:func:`timed_setup` in a process of its
    own).  Every timed metric is in the reference machine's time:
    the median over the set-ups, the median over repeats of the
    statistic over a repeat's slices."""
    run = _Run(workload, specs, seed, seconds / (2 * sizes.repeats),
               sizes)
    setups, repeats = [], []
    for index in range(sizes.repeats):
        setups += [fresh_setup() for __ in range(sizes.setups)]
        repeats.append(_one_repeat(run, index))
    probe, tally = run.probe, run.tally
    exit_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def metric(phase: str, stat: Callable) -> dict[str, Any]:
        return summarize([stat(r[phase]) for r in repeats])

    detail = {
        "setup_s": summarize([s.work * s.speed for s in setups]),
        "txn_per_s": metric("capacity", rate),
        "lat_p50_us": metric("latency", _p(50)),
        "lat_p75_us": metric("latency", _p(75)),
        # Phases are time-boxed, so how far memory grows during them
        # depends on how far the machine got; the first warm-up is a
        # fixed amount of work.
        "peak_rss_mb": summarize([repeats[0]["warm_rss_mb"]]),
    }

    failures = []
    warm_counts = repeats[0]["warm_counts"]
    if not workload.served and any(
            r["warm_counts"] != warm_counts for r in repeats):
        failures.append("commit/abort/validation/fsync counts differ "
                        "across repeats of an embedded workload")
    gate = check.run_gate(workload, specs, sizes.check, sizes.warmup,
                          None if workload.served else warm_counts)
    failures.extend(gate["failures"])
    return {
        "metrics": detail,
        "attempted": tally.attempted + gate["attempted"],
        "failed": tally.failed + gate["failed"],
        "outcomes": dict(tally.kinds),
        "failures": failures,
        "setup_speeds": [s.speed for s in setups],
        "repeats": [{
            phase: {"slices": len(r[phase]),
                    "speed": _speed(r[phase])}
            for phase in ("latency", "capacity")}
            for r in repeats],
        "exit_rss_mb": exit_rss_mb,
        "calib_kops": probe.kops,
    }


# ----------------------------------------------------------------------
# The traced run: per-layer metrics
# ----------------------------------------------------------------------

def _path_values(run: _Run, repeat: dict[str, Any]) -> dict[str, float]:
    """What one repeat of the workload's own path says about the
    layers: timed round trips, public counters, the generator's own
    record."""
    values = {"core.load_rows_per_s": repeat["load_rows_per_s"]}
    latency = repeat["latency"]
    if run.workload.served:
        values["serving.rtt_p50_us"] = _p(50)(latency)
        values["serving.rtt_p95_us"] = _p(95)(latency)
        values["client.submit_call_us"] = percentile(
            [us * s.speed for s in latency
             for us in s.work.submit_call_us()], 50)
        values["serving.server.residence_us"] = repeat["residence_us"]
    # The generator's own record: of Poisson arrivals where the
    # workload has a wire to send them over, else of the solo calls.
    if "open_loop" in repeat:
        latency = repeat["open_loop"]
        values["loadgen.max_send_lag_us"] = max(
            s.work.max_send_lag_us() * s.speed for s in latency)
        # Arrivals follow the wall clock, not the machine's speed.
        values["loadgen.achieved_rate_share"] = \
            sum(len(s.work) for s in latency) \
            / sum(s.work.wall_s for s in latency) / OPEN_LOOP_RATE
    latencies = latencies_us(latency)
    for pct in (50, 75, 90, 95, 99):
        values[f"loadgen.lat_p{pct}_us"] = percentile(latencies, pct)
    values["loadgen.over_5ms_share"] = \
        sum(us > 5000 for us in latencies) / len(latencies)
    during, totals = repeat["during"], repeat["totals"]
    roots = sum(len(s.work) for s in repeat["capacity"])
    values.update({
        "concurrency.cc_abort_share":
            _ratio(during["cc_aborts"], roots),
        "concurrency.validations_per_txn":
            _ratio(during["validations"], roots),
        "concurrency.validation_fail_share":
            _ratio(during["validation_failures"],
                   during["validations"]),
        "workloads.user_abort_share":
            _ratio(during["user_aborts"], roots),
        "sim.events_per_txn": _ratio(during["events"], roots),
        "runtime.executor_requests_per_txn":
            _ratio(during["executor_requests"], roots),
        "durability.fsyncs_per_commit":
            _ratio(during["fsyncs"], during["commits"]),
        "durability.records_per_fsync":
            _ratio(during["log_records"], during["fsyncs"]),
        "durability.log_bytes_per_commit":
            _ratio(during["log_bytes"], during["commits"]),
        "serving.server.shed_share":
            _ratio(totals["shed"], totals["shed"] + totals["accepted"]),
    })
    return values


def _engine_probes(run: _Run) -> tuple[dict[str, float], list]:
    """The engine alone on the same inputs: solo calls on an embedded
    twin of the workload's database, overall and per procedure.  Also
    returns the ``(spec, outcome)`` pairs of the calls."""
    twin = run.workload.build()
    try:
        driver = Driver(LocalClient(twin), run.tally)
        feed = cycle_from(run.specs, 0)
        driver.windows(feed, run.workload.window,
                       count=run.sizes.warmup, phase="warmup")
        slices = run.phase(lambda s: driver.solo(feed, s))
    finally:
        twin.close()
    timed = [Slice(s.work[0], s.kops) for s in slices]
    answered = [pair for s in slices for pair in s.work[1]]
    by_proc: dict[str, list[float]] = {}
    for (spec, __), us in zip(answered, latencies_us(timed)):
        by_proc.setdefault(spec[1], []).append(us)
    values = {f"workloads.{proc}.solo_p50_us":
              percentile(by_proc.get(proc, ()), 50)
              for proc in (*SMALLBANK_PROCS, *TPCC_PROCS)}
    values["core.solo_p50_us"] = _p(50)(timed)
    return values, answered


def _codec_probe(specs: list[Spec], answered: list) -> dict[str, float]:
    """``encode_frame`` / ``FrameDecoder.feed`` driven directly over
    the workload's real messages; microseconds per message."""
    requests = [protocol.request(i, 0, r, p, tuple(a))
                for i, (r, p, a) in enumerate(specs[:512])]
    responses = [protocol.response(i, 0, o.committed, result=o.result,
                                   reason=o.reason)
                 for i, (__, o) in enumerate(answered[:512])]

    def per_message_us(fn: Any, items: list) -> float:
        rounds = []
        for __ in range(5):
            start = time.perf_counter()
            for item in items:
                fn(item)
            rounds.append((time.perf_counter() - start) / len(items))
        return statistics.median(rounds) * 1e6

    def encode(message: dict) -> bytes:
        return protocol.encode_frame(message, CODEC)

    out = {}
    for kind, messages in (("request", requests),
                           ("response", responses)):
        frames = [encode(m) for m in messages]
        decoder = protocol.FrameDecoder(CODEC)
        out[f"serving.protocol.encode_{kind}_us"] = \
            per_message_us(encode, messages)
        out[f"serving.protocol.decode_{kind}_us"] = \
            per_message_us(decoder.feed, frames)
        out[f"serving.protocol.{kind}_bytes"] = \
            sum(map(len, frames)) / len(frames)
    bursts = [b"".join(frames[i:i + 16])
              for i in range(0, len(frames), 16)]
    out["serving.protocol.decode_coalesced_us"] = \
        per_message_us(decoder.feed, bursts) / 16
    return out


def _noop_floors(run: _Run) -> dict[str, float]:
    """The empty-transaction floor and, when served, the wire floor."""
    feed = cycle_from([("noop0", "noop", []), ("noop1", "noop", [])], 0)

    def solo_p50(client: Any) -> float:
        driver = Driver(client, run.tally)
        return _p(50)(run.phase(
            lambda s: driver.solo(feed, s)[0], run.phase_s / 4))

    out = {}
    database = build_noop(run.workload.backend)
    try:
        out["runtime.noop_solo_p50_us"] = solo_p50(LocalClient(database))
        if run.workload.served:
            with served(database) as client:
                out["serving.ping_rtt_p50_us"] = solo_p50(client)
    finally:
        database.close()
    return out


def _user_cpu_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def _traced_capacity(run: _Run) -> tuple[dict, Slice, float]:
    """The capacity phase on a fresh database with every thread under
    the profiler.  The database is not warmed up (its container
    threads would carry the warm-up into the profile); the process
    is warm from the untraced phases before it."""
    workload = run.workload
    profiler = LayerProfiler()
    profiler.install()
    database = workload.build()
    try:
        with workload.opened(database) as client:
            capacity = _capacity_slice(
                workload, database, Driver(client, run.tally),
                cycle_from(run.specs, run.sizes.warmup))
            before = run.probe()
            user_s = _user_cpu_s()
            profiler.enable()
            spans = capacity(run.phase_s)
            profiler.disable()
            user_s = _user_cpu_s() - user_s
            traced = Slice(spans, (before, run.probe()))
    finally:
        database.close()
    return profiler.report(len(spans)), traced, user_s


def _layer_values(report: dict, traced: Slice, user_s: float,
                  untraced_rate: float) -> dict[str, float]:
    """The profile as metrics, closed against the traced wall time."""
    spans = traced.work
    per_txn = 1e6 / len(spans) * traced.speed
    wall_us = spans.wall_s * per_txn
    values = {}
    for layer in LAYERS:
        profiled = report["layers"][layer]
        values[f"{layer}.self_us_per_txn"] = \
            profiled["self_us_per_txn"] * traced.speed
        values[f"{layer}.calls_per_txn"] = profiled["calls_per_txn"]
    # Wall time the process's own code was not running: blocked, idle,
    # or inside the kernel (socket, futex and epoll system calls).
    wait_us = max(0.0, spans.wall_s - user_s) * per_txn
    attributed_us = wait_us + sum(
        values[f"{layer}.self_us_per_txn"] for layer in LAYERS)
    values["wait.self_us_per_txn"] = wait_us
    values["wait.calls_per_txn"] = report["blocking_calls_per_txn"]
    values["sim.run_calls_per_txn"] = report["sim_run_calls_per_txn"]
    values["trace.overhead_ratio"] = untraced_rate / rate([traced])
    values["trace.unattributed_share"] = \
        abs(wall_us - attributed_us) / wall_us
    return values


def run_traced(workload: Workload, specs: list[Spec], seed: int,
               seconds: float, sizes: Sizes) -> dict[str, Any]:
    """One repeat of the workload's path (with the open-loop phase
    when served), the layer probes, then the profiled capacity phase.
    Returns the per-layer values and the trace payload."""
    run = _Run(workload, specs, seed, seconds / 6, sizes)
    repeat = _one_repeat(run, 0, open_loop=workload.served)
    engine_values, answered = _engine_probes(run)
    noop_values = _noop_floors(run)
    values = dict.fromkeys(PER_LAYER_NAMES, 0.0)
    values.update(_path_values(run, repeat))
    values.update(engine_values)
    values.update(noop_values)
    if workload.served:
        # The attribution of a round trip; sums to rtt_p50 by
        # construction.
        values["serving.server.overhead_us"] = \
            values["serving.server.residence_us"] \
            - values["core.solo_p50_us"]
        values["client.outside_server_us"] = \
            values["serving.rtt_p50_us"] \
            - values["serving.server.residence_us"]
        values.update(_codec_probe(specs, answered))

    report, traced, user_s = _traced_capacity(run)
    spans = traced.work
    values.update(_layer_values(
        report, traced, user_s, rate(repeat["capacity"])))

    gate = check.run_gate(workload, specs, sizes.check, sizes.warmup,
                          None)
    values["formal.certify_txn_per_s"] = gate["certify_txn_per_s"]
    values["machine.calib_kops"] = statistics.median(run.probe.kops)
    attempted = run.tally.attempted + gate["attempted"]
    failed = run.tally.failed + gate["failed"]
    values["loadgen.fail_share"] = failed / attempted
    return {
        "metrics": {name: summarize([value])
                    for name, value in values.items()},
        "attempted": attempted,
        "failed": failed,
        "outcomes": dict(run.tally.kinds),
        "failures": gate["failures"],
        "trace": {
            "workload": workload.name,
            "traced_wall_us_per_txn": spans.wall_s * 1e6 / len(spans),
            "traced_user_cpu_us_per_txn": user_s * 1e6 / len(spans),
            **report,
            "spans": spans.to_rows(),
        },
    }
