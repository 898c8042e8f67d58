"""Crash recovery — group commit, kill mid-epoch, certified restart.

ReactDB's prototype (like the paper's) keeps everything in memory; the
paper points at log-based recovery plus distributed checkpoints as the
intended durability design.  This example exercises the implemented
version end to end:

1. boot a shared-nothing bank with **epoch-based group commit**
   (``durability_mode: group`` — commits acknowledge when their
   epoch's batched log flush lands, one fsync amortized over the whole
   epoch);
2. run a contended transfer workload, take an **incremental
   checkpoint** (dirty keys only, WAL truncated behind it);
3. **kill the database mid-epoch** — in-flight transactions and an
   unflushed epoch tail are simply gone, exactly like a power cut;
4. run **parallel partitioned recovery** (per-reactor log partitions
   replayed concurrently) onto a *different* architecture — logical
   reactor state survives physical re-architecture;
5. have ``certify_crash_recovery`` check the restart black-box style:
   no acknowledged commit lost, nothing unacknowledged resurrected,
   recovered state equal to an independent replay.

Run:  python examples/crash_recovery.py
"""

import random

from repro import DurabilityConfig, shared_everything_with_affinity, \
    shared_nothing
from repro.core.database import ReactorDatabase
from repro.durability import recover
from repro.formal import certify_crash_recovery
from repro.workloads import smallbank as sb

N = 10


def build_bank():
    deployment = shared_nothing(
        4, durability=DurabilityConfig(enabled=True, mode="group"))
    database = ReactorDatabase(deployment, sb.declarations(N))
    sb.load(database, N)
    return database


def run_workload(database, count, seed, batch=5):
    """Submit transfers in concurrent batches — group commit batches
    the commits of an epoch into one flush, which only shows when
    clients overlap."""
    rng = random.Random(seed)
    outcomes = []

    def on_done(root, committed, reason, result):
        outcomes.append(committed)

    pending = 0
    for i in range(count):
        variant = sb.VARIANTS[i % len(sb.VARIANTS)]
        src = sb.reactor_name(rng.randrange(N))
        dst = sb.reactor_name(
            (int(src[4:]) + 1 + rng.randrange(N - 1)) % N)
        reactor, proc, args = sb.multi_transfer_spec(
            variant, src, [dst], rng.uniform(1.0, 20.0))
        database.submit(reactor, proc, *args, on_done=on_done)
        pending += 1
        if pending == batch:
            database.scheduler.run()
            pending = 0
    database.scheduler.run()
    return sum(1 for ok in outcomes if ok)


def main():
    print("1. booting shared-nothing bank with group-commit "
          "durability")
    database = build_bank()
    durability = database.durability

    committed = run_workload(database, 30, seed=1)
    stats = database.durability_stats()
    fsyncs = sum(f["fsyncs"] for f in stats["flushers"].values())
    records = sum(f["records_flushed"]
                  for f in stats["flushers"].values())
    print(f"   {committed} transactions committed, {records} redo "
          f"records made durable by {fsyncs} fsyncs "
          f"({records / max(fsyncs, 1):.1f} records/fsync)")

    print("2. incremental checkpoint + WAL truncation")
    segment = durability.incremental_checkpoint()
    print(f"   segment #{segment.seq} ({segment.kind}), manifest now "
          f"{len(durability.manifest.segments)} segment(s)")

    committed = run_workload(database, 25, seed=2)
    tail = sum(len(log) for log in durability.logs.values())
    print(f"   {committed} more transactions committed "
          f"({tail} redo records since the checkpoint)")

    print("3. CRASH — mid-epoch, with transactions in flight.")
    # Submit work and cut the power before the epoch flush lands.
    for i in range(4):
        database.submit(sb.reactor_name(i), "deposit_checking", 1.0)
    database.scheduler.run(until=database.scheduler.now + 25.0)
    image = durability.crash()
    unflushed = sum(f.unflushed_records()
                    for f in durability.flushers.values())
    print(f"   crash image: "
          f"{sum(len(r) for r in image.logs.values())} durable "
          f"records, {unflushed} unflushed (lost with the epoch), "
          f"{len(image.acked_sites)} acked commit sites to account "
          f"for")

    print("4. parallel partitioned recovery onto "
          "shared-everything-with-affinity")
    report = recover(
        shared_everything_with_affinity(4), sb.declarations(N),
        image.manifest, image.to_logs())
    recovered = report.database
    print(f"   {report.partitions} reactor partitions, "
          f"{report.rows_loaded} checkpoint rows + "
          f"{report.entries_replayed} redo entries replayed in "
          f"{report.recovery_us:.1f} virtual us across "
          f"{len(report.per_executor_us)} executors")

    print("5. black-box crash-recovery certificate")
    cert = certify_crash_recovery(database, image, recovered)
    assert cert["ok"], cert
    assert cert["zero_acked_loss"], cert
    assert cert["state_ok"], cert
    print(f"   certificate: ok  (no acked-commit loss across "
          f"{cert['acked_checked']} acked writes, no resurrection, "
          f"state-replay equivalent)")

    total = sb.total_money(recovered, N)
    print(f"   total money after recovery: {total:,.2f}")

    recovered.run(sb.reactor_name(0), "deposit_checking", 1.0)
    print("6. recovered database accepts new transactions.  done.")


if __name__ == "__main__":
    main()
