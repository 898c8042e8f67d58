"""Replication and failover — availability as a config edit.

The same banking application that ran single-copy in the other
examples gains log-shipping replicas by changing only the deployment:
every container ships its redo records to a replica, commits wait for
the replica's ack (``sync`` mode), and Balance reads are served from
the replica's cores.  Mid-run the primary of container 0 is killed and
its replica promoted; the formal audit then certifies that the
promoted replica is prefix-consistent with the dead primary's commit
order and that no committed transaction was lost.

Run:  python examples/replication_failover.py
"""

from repro import ReplicationConfig, TransactionAbort, shared_nothing
from repro.core.database import ReactorDatabase
from repro.formal.audit import certify_replication
from repro.workloads import smallbank as sb

N = 10


def main():
    deployment = shared_nothing(
        2, replication=ReplicationConfig(
            replicas_per_container=1, mode="sync",
            read_from_replicas=True))
    print("1. booting shared-nothing bank, 1 sync replica per "
          "container (a JSON config edit away from single-copy)")
    database = ReactorDatabase(deployment, sb.declarations(N))
    sb.load(database, N)

    print("2. running transfers with a mid-run crash of container 0")
    outcomes = []

    def on_done(root, committed, reason, result):
        outcomes.append(committed)

    def submit_batch(count, start):
        for i in range(start, start + count):
            src = sb.reactor_name(i % N)
            dst = sb.reactor_name((i + 3) % N)
            database.submit(src, "transfer", src, dst, 5.0,
                            on_done=on_done)

    submit_batch(20, start=0)
    database.scheduler.run()  # first batch fully replicated
    # CRASH scheduled into the middle of the second batch's work.
    database.scheduler.at(database.scheduler.now + 50.0,
                          database.replication.kill_and_promote, 0)
    submit_batch(20, start=20)
    database.scheduler.run()
    committed = sum(outcomes)
    print(f"   {committed}/{len(outcomes)} transfers committed "
          f"({len(outcomes) - committed} aborted around the crash)")

    event = database.replication.stats.failovers[0]
    print(f"3. container {event.container_id} failed; replica "
          f"{event.replica_id} promoted after applying "
          f"{event.applied_records} redo records")

    print("4. auditing the promoted replica against the primary's "
          "commit order")
    report = certify_replication(database)
    assert report["ok"], report
    assert all(f["zero_committed_loss"] for f in report["failovers"])
    print("   prefix-consistent, commit order intact, "
          "no committed data lost")

    total = sum(database.run(sb.reactor_name(i), "balance")
                for i in range(N))
    assert total == 2 * sb.INITIAL_BALANCE * N, \
        "transfers must conserve money across the failover"
    routed = database.telemetry.registry.value(
        "replication_reads_routed_total")
    print(f"   total money conserved: {total:,.2f} "
          f"(reads served from replicas: {routed})")

    print("5. promoted container keeps serving writes")
    try:
        database.run(sb.reactor_name(0), "deposit_checking", 1.0)
    except TransactionAbort as abort:  # pragma: no cover
        raise AssertionError(f"promoted container rejected a write: "
                             f"{abort}")
    print("   promoted replica accepts new transactions.  done.")


if __name__ == "__main__":
    main()
