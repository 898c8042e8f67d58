"""Open-loop tail latency of the networked serving layer.

Every other benchmark is closed loop: captive workers wait for each
transaction before issuing the next, so a slow server throttles its
own measurement (coordinated omission) and tails look flat.  This one
serves a SmallBank database over real TCP (``repro.serving``),
connects a ``TcpClient``, and drives *open-loop* Poisson arrivals at
fixed target rates — latency is recorded from each request's
**intended** send time, so backlog shows up in the percentiles instead
of disappearing into a stalled sender (see ``docs/serving.md``).

Two phases:

* ``open_loop`` — one row per arrival rate with p50/p99/p999
  wall-clock latency, achieved throughput, and shed fraction.  At the
  lowest rate nothing may be shed (the server is unloaded; a shed
  there is a bug, and ``check`` asserts it).
* ``saturate`` — a deliberately tiny admission bound (``max_inflight``)
  under a burst far above it: every refusal must be the *typed*
  ``Overloaded`` answer with a positive retry-after hint, never a
  hang or disconnect.

Numbers are wall-clock and machine-bound, so the committed baseline is
compared report-only in CI (``tools/bench_compare.py serving_latency``
with the gate echoed as a notice, like ``backend_scaleup``); the
``arrival_rate`` key identifies rows.

Run as a script: ``python bench_serving_latency.py [--tiny] [--json]
[--backend sim|threads]``.
"""

import time

from _util import bench_args, finish

from repro.bench.report import print_table
from repro.client import TcpClient
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.serving import ArrivalSchedule, run_open_loop, serve_in_thread
from repro.workloads import smallbank

SB_CUSTOMERS = 32

#: Target arrival rates (requests/second) per mode — the acceptance
#: criterion wants p50/p99/p999 at >= 3 rates.
RATES = {"full": (200.0, 500.0, 1000.0), "tiny": (100.0, 200.0, 400.0)}
#: Open-loop run length per rate, seconds of intended arrivals.
DURATIONS = {"full": 2.0, "tiny": 0.5}

#: Saturation phase: a tiny admission bound under a burst well above
#: it must shed with typed answers.
SATURATE_MAX_INFLIGHT = 2
SATURATE_RATE = 20_000.0
SATURATE_COUNT = {"full": 400, "tiny": 120}

SEED = 42

CONFIG = {
    "smallbank_customers": SB_CUSTOMERS,
    "rates": {k: list(v) for k, v in RATES.items()},
    "durations_s": DURATIONS,
    "saturate_max_inflight": SATURATE_MAX_INFLIGHT,
    "saturate_rate": SATURATE_RATE,
    "seed": SEED,
}


def _build(backend: str) -> ReactorDatabase:
    deployment = shared_nothing(
        2, mpl=8, cc_scheme="occ",
        placement=RangePlacement(SB_CUSTOMERS // 2), backend=backend)
    database = ReactorDatabase(
        deployment, smallbank.declarations(SB_CUSTOMERS))
    smallbank.load(database, SB_CUSTOMERS)
    return database


def _spec_for(index: int):
    """Commutative deposits spread across customers: no aborts, so
    the latency distribution is pure serving behavior."""
    return (smallbank.reactor_name(index % SB_CUSTOMERS),
            "deposit_checking", (1.0,))


def measure_rate(backend: str, rate: float, mode: str) -> dict:
    database = _build(backend)
    server = serve_in_thread(database)
    client = TcpClient(server.host, server.port).connect()
    count = max(20, int(rate * DURATIONS[mode]))
    schedule = ArrivalSchedule.poisson(rate, count, seed=SEED)
    start = time.perf_counter()
    result = run_open_loop(client, schedule, _spec_for)
    wall = time.perf_counter() - start
    client.close()
    server.stop()
    database.close()
    return {
        "workload": "smallbank",
        "backend": backend,
        "mode": mode,
        "phase": "open_loop",
        "wall_seconds": round(wall, 4),
        **result.summary(),
    }


def measure_saturation(backend: str, mode: str) -> dict:
    database = _build(backend)
    server = serve_in_thread(database,
                             max_inflight=SATURATE_MAX_INFLIGHT)
    client = TcpClient(server.host, server.port).connect()
    count = SATURATE_COUNT[mode]
    schedule = ArrivalSchedule.fixed(SATURATE_RATE, count)
    result = run_open_loop(client, schedule, _spec_for)
    client.close()
    server.stop()
    database.close()
    return {
        "workload": "smallbank",
        "backend": backend,
        "mode": mode,
        "phase": "saturate",
        "max_inflight": SATURATE_MAX_INFLIGHT,
        **result.summary(),
    }


def build_payload(backend: str, mode: str) -> dict:
    rows = [measure_rate(backend, rate, mode)
            for rate in RATES[mode]]
    rows.append(measure_saturation(backend, mode))
    return {
        "runs": rows,
        #: Report-only in CI (wall numbers are machine-bound): the
        #: band only orders the textual report, as backend_scaleup.
        "gate": {"metric": "throughput_tps", "tolerance": 0.5},
    }


def check(payload: dict) -> None:
    """Cross-machine invariants (the shape, not the numbers): an
    unloaded server sheds nothing; a saturated admission bound sheds
    with typed, hinted answers; percentiles are ordered."""
    open_rows = [r for r in payload["runs"]
                 if r["phase"] == "open_loop"]
    saturate = [r for r in payload["runs"]
                if r["phase"] == "saturate"]
    lowest = min(open_rows, key=lambda r: r["arrival_rate"])
    assert lowest["shed"] == 0, (
        f"unloaded server shed {lowest['shed']} requests at "
        f"{lowest['arrival_rate']} req/s")
    for row in open_rows:
        assert row["committed"] > 0, row
        assert row["p50_us"] <= row["p99_us"] <= row["p999_us"], row
    for row in saturate:
        assert row["shed"] > 0, (
            f"burst at {SATURATE_RATE} req/s against "
            f"max_inflight={SATURATE_MAX_INFLIGHT} shed nothing")
        assert row["committed"] > 0, row


HEADERS = ["phase", "rate req/s", "offered", "committed", "shed",
           "p50 us", "p99 us", "p999 us", "send lag us"]


def _report(payload):
    rows = []
    for run in payload["runs"]:
        rows.append([
            run["phase"], run["arrival_rate"], run["offered"],
            run["committed"], run["shed"], run["p50_us"],
            run["p99_us"], run["p999_us"], run["max_send_lag_us"],
        ])
    print_table(
        "Serving latency: open-loop wall-clock percentiles from "
        "intended send times (coordinated-omission-aware)",
        HEADERS, rows)


def main(argv: list[str] | None = None) -> None:
    args = bench_args(__doc__, argv, backends=("sim", "threads"))
    mode = "tiny" if args.tiny else "full"
    finish("serving_latency", build_payload(args.backend, mode),
           _report, check, args, config={**CONFIG, "mode": mode},
           backend=args.backend)


if __name__ == "__main__":
    main()
