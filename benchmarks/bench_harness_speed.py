"""Wall-clock microbenchmark: harness transactions per second.

Every other benchmark in this suite measures *simulated* time; this one
measures the cost of the harness itself — how many transactions per
wall-clock second the Python interpreter pushes through the executor /
concurrency-control inner loops.  It is the regression gate for the
hot-path work of ROADMAP item 5: interpreter-speed changes that no
sim-time number can see (allocation diets, batching, ``__slots__``)
show up here and nowhere else.

Methodology:

* a small grid of workload x scheme points (SmallBank mix, read-heavy
  YCSB, TPC-C new-order), each run ``REPEATS`` times on a freshly
  built database with a fixed seed; the per-point wall time is the
  **median** of the repeats (transaction counts are deterministic, so
  only the denominator is noisy);
* ``wall_txns_per_sec`` = transactions processed / wall seconds of the
  measurement drive (database build and load are excluded);
* because absolute wall numbers do not transfer between machines, each
  run also reports ``txns_per_kop`` — wall throughput divided by a
  calibration loop's interpreter speed.  Machine speed drifts on
  shared runners on a scale of *seconds*, so the calibration is
  sampled immediately before and after **every repeat** (the larger
  of the two adjacent samples normalizes that repeat) and the
  per-point ``txns_per_kop`` is the **best** repeat — the cleanest
  observation of what the code can do on this machine.  The
  normalized metric is what the CI gate compares.

Run as a script: ``python bench_harness_speed.py [--tiny] [--json]``.
The CI job runs the tiny grid and gates it with
``tools/bench_compare.py harness_speed`` (the payload's ``gate`` block
widens the tolerance band — wall clock is noisy in a way virtual time
is not).
"""

import statistics
import time

from _util import bench_args, finish

from repro.bench.harness import run_measurement
from repro.bench.report import print_table
from repro.core.database import ReactorDatabase
from repro.core.deployment import (
    RangePlacement,
    shared_everything_with_affinity,
    shared_nothing,
)
from repro.experiments.common import (
    cc_config,
    summary_payload,
    tpcc_deployment,
)
from repro.workloads import smallbank, tpcc, ycsb

REPEATS = 3

SB_CUSTOMERS = 40
SB_WORKERS = 4
YCSB_KEYS = 64
YCSB_CONTAINERS = 4
YCSB_WORKERS = 8
YCSB_THETA = 0.6
YCSB_READ_FRACTION = 0.5
TPCC_WAREHOUSES = 2
TPCC_WORKERS = 4

#: (workload, scheme) grid — a scheme label may carry a
#: ``+snapshot_reads`` suffix; measure_us per mode keeps the full run
#: meaningful and the tiny run CI-cheap.
POINTS = (
    ("smallbank", "occ"),
    ("smallbank", "2pl_nowait"),
    ("smallbank", "occ+snapshot_reads"),
    ("ycsb", "occ"),
    ("ycsb", "occ+snapshot_reads"),
    ("tpcc-neworder", "occ"),
    # Scan-dominated: each stock-level reads ~100+ stock rows, so the
    # vectorized multi-key read path (vs a per-key lookup loop) is
    # what this point measures.
    ("tpcc-stocklevel", "occ"),
    ("tpcc-stocklevel", "occ+snapshot_reads"),
)
MEASURE_US = {"full": 60_000.0, "tiny": 15_000.0}

CONFIG = {
    "points": [list(p) for p in POINTS],
    "repeats": REPEATS,
    "smallbank_customers": SB_CUSTOMERS,
    "ycsb_keys": YCSB_KEYS,
    "ycsb_theta": YCSB_THETA,
    "ycsb_read_fraction": YCSB_READ_FRACTION,
    "tpcc_warehouses": TPCC_WAREHOUSES,
}


# ----------------------------------------------------------------------
# Machine calibration
# ----------------------------------------------------------------------

class _Probe:
    __slots__ = ("a", "b")

    def __init__(self) -> None:
        self.a = 0
        self.b = {}

    def bump(self, key, value):
        self.a += value
        self.b[key] = value
        return self.a


def _calibration_pass(n: int) -> float:
    """One timed pass of the interpreter-work proxy loop.

    The mix (attribute access, dict churn, tuple allocation, method
    and function calls) approximates what the harness hot path spends
    its time on, so normalizing by it transfers wall numbers between
    machines and Python versions to first order.
    """
    probe = _Probe()
    bump = probe.bump
    acc = 0
    start = time.perf_counter()
    for i in range(n):
        key = (i & 1023, "k")
        acc = bump(key, i) + len(probe.b)
        if len(probe.b) > 1024:
            probe.b.clear()
    elapsed = time.perf_counter() - start
    assert acc >= 0
    return n / elapsed / 1_000.0  # kilo-ops per second


#: Loop length of one adjacent calibration sample (~tens of ms): long
#: enough to average out scheduling jitter, short enough that the
#: sample reads the same machine state as the repeat it brackets.
CALIB_N = 100_000


def calibration_kops(n: int = 200_000, passes: int = 3) -> float:
    """Interpreter speed in kops/s: best of ``passes`` timed loops."""
    return max(_calibration_pass(n) for __ in range(passes))


# ----------------------------------------------------------------------
# Workload construction (one fresh database per repeat)
# ----------------------------------------------------------------------

def _run_smallbank(scheme: str, measure_us: float):
    deployment = shared_everything_with_affinity(4, **cc_config(scheme))
    database = ReactorDatabase(
        deployment, smallbank.declarations(SB_CUSTOMERS))
    smallbank.load(database, SB_CUSTOMERS)
    workload = smallbank.SmallbankWorkload(SB_CUSTOMERS)
    return database, workload.factory_for, SB_WORKERS


def _run_ycsb(scheme: str, measure_us: float):
    deployment = shared_nothing(
        YCSB_CONTAINERS, mpl=4, **cc_config(scheme),
        placement=RangePlacement(YCSB_KEYS // YCSB_CONTAINERS))
    decls = [(ycsb.key_name(i), ycsb.KEY_REACTOR)
             for i in range(YCSB_KEYS)]
    database = ReactorDatabase(deployment, decls)
    for i in range(YCSB_KEYS):
        name = ycsb.key_name(i)
        database.load(name, "kv",
                      [{"key": name, "value": "x" * ycsb.RECORD_SIZE}])
    workload = ycsb.YcsbWorkload(
        1, theta=YCSB_THETA, n_containers=YCSB_CONTAINERS,
        n_keys=YCSB_KEYS, read_fraction=YCSB_READ_FRACTION)
    return database, workload.factory_for, YCSB_WORKERS


def _tpcc_database(scheme: str) -> ReactorDatabase:
    cc = cc_config(scheme)
    deployment = tpcc_deployment("shared-nothing-async",
                                 TPCC_WAREHOUSES, mpl=4,
                                 cc_scheme=cc["cc_scheme"])
    deployment.snapshot_reads = cc["snapshot_reads"]
    database = ReactorDatabase(deployment,
                               tpcc.declarations(TPCC_WAREHOUSES))
    tpcc.load(database, TPCC_WAREHOUSES)
    return database


def _run_tpcc(scheme: str, measure_us: float):
    database = _tpcc_database(scheme)
    workload = tpcc.TpccWorkload(
        n_warehouses=TPCC_WAREHOUSES, mix=tpcc.NEW_ORDER_ONLY,
        remote_item_prob=0.1, invalid_item_prob=0.0)
    return database, workload.factory_for, TPCC_WORKERS


def _run_tpcc_stock(scheme: str, measure_us: float):
    database = _tpcc_database(scheme)
    workload = tpcc.TpccWorkload(
        n_warehouses=TPCC_WAREHOUSES, mix=(("stock_level", 1.0),))
    return database, workload.factory_for, TPCC_WORKERS


_BUILDERS = {
    "smallbank": _run_smallbank,
    "ycsb": _run_ycsb,
    "tpcc-neworder": _run_tpcc,
    "tpcc-stocklevel": _run_tpcc_stock,
}


def measure_point(workload: str, scheme: str, measure_us: float):
    """``REPEATS`` interleaved (calibrate, measure, calibrate) runs.

    Each repeat is normalized by the larger of its two *adjacent*
    calibration samples — a global calibration taken minutes away
    reads a different machine than the one the repeat actually ran
    on.  The reported ``txns_per_kop`` is the best repeat.
    """
    wall_times = []
    normalized = []
    txns = 0
    summary = None
    calib_after = _calibration_pass(CALIB_N)
    for __ in range(REPEATS):
        database, factory_for, workers = _BUILDERS[workload](
            scheme, measure_us)
        calib_before = max(calib_after, _calibration_pass(CALIB_N))
        start = time.perf_counter()
        result = run_measurement(database, workers, factory_for,
                                 warmup_us=5_000.0,
                                 measure_us=measure_us, n_epochs=4)
        wall = time.perf_counter() - start
        calib_after = _calibration_pass(CALIB_N)
        wall_times.append(wall)
        txns = len(result.raw_stats)
        summary = result.summary
        calib = max(calib_before, calib_after)
        normalized.append(txns / wall / calib)
    wall = statistics.median(wall_times)
    return {
        "workload": workload,
        "scheme": scheme,
        "wall_seconds": round(wall, 4),
        "wall_seconds_all": [round(t, 4) for t in wall_times],
        "txns": txns,
        "wall_txns_per_sec": round(txns / wall, 1),
        "txns_per_kop": round(max(normalized), 4),
        "txns_per_kop_all": [round(v, 4) for v in normalized],
        **summary_payload(summary),
    }


def run_grid(mode: str) -> list[dict]:
    measure_us = MEASURE_US[mode]
    rows = []
    for workload, scheme in POINTS:
        row = measure_point(workload, scheme, measure_us)
        row["mode"] = mode
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Reporting and entry points
# ----------------------------------------------------------------------

HEADERS = ["workload", "scheme", "wall txn/s", "txns/kop",
           "wall [s]", "txns", "sim tput", "abort %"]


def _rows(payload):
    out = []
    for run in payload["runs"]:
        out.append([
            run["workload"], run["scheme"],
            run["wall_txns_per_sec"],
            run["txns_per_kop"],
            run["wall_seconds"],
            run["txns"],
            round(run["throughput_tps"], 1),
            round(run["abort_rate"] * 100, 2),
        ])
    return out


def _report(payload):
    print_table(
        "Harness speed: wall-clock transactions/second across "
        "workload x scheme (median of %d)" % REPEATS,
        HEADERS, _rows(payload))
    print(f"calibration: {payload['calibration_kops']:.1f} kops/s")


def build_payload(mode: str) -> dict:
    calib = calibration_kops()
    rows = run_grid(mode)
    return {
        "runs": rows,
        "calibration_kops": round(calib, 1),
        #: bench_compare reads this: gate the normalized wall metric
        #: with a band wide enough for scheduler noise on CI runners.
        "gate": {"metric": "txns_per_kop", "tolerance": 0.5},
    }


def check(payload: dict) -> None:
    """Every point makes progress; the speed itself is gated against
    the committed baseline by ``tools/bench_compare.py``."""
    assert all(r["committed"] > 0 for r in payload["runs"])


def main(argv: list[str] | None = None) -> None:
    args = bench_args(__doc__, argv)
    mode = "tiny" if args.tiny else "full"
    finish("harness_speed", build_payload(mode), _report, check, args,
           config={**CONFIG, "mode": mode})


if __name__ == "__main__":
    main()
