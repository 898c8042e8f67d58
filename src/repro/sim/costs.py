"""Cost parameters for the simulated machine.

Every time-consuming action in ReactDB charges virtual CPU according to
a :class:`CostParameters` instance.  The parameter names follow the
paper's computational cost model (Section 2.4):

* ``cs`` — the cost, paid by the caller, to *send* a sub-transaction
  invocation to a reactor hosted by another transaction executor.  On
  real hardware this is an atomic enqueue on the target's request queue,
  hence cheap.
* ``cr`` — the cost, paid by the caller, to *receive* a result from a
  remote sub-transaction it blocked on.  On real hardware this is a
  thread switch across cores, hence several times more expensive than
  ``cs``.  This asymmetry is what separates *partially-async* from
  *fully-async* program formulations in Figure 5, and we reproduce it
  explicitly.
* ``cr_ready`` — consuming a future whose result already arrived costs
  only a flag check, no thread switch.

Per-operation data costs (``read_cost`` etc.) model index lookups and
tuple copies; ``cold_access_factor`` models the cache-miss penalty of
touching a reactor whose working set lives in another core's cache
(the affinity effects of Section 4.3 and Appendix F).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class CostParameters:
    """All virtual-time costs, in microseconds.

    Instances are immutable; use ``dataclasses.replace`` to derive
    variants (e.g., for ablations that equalize ``cs``/``cr``).
    """

    # Cross-executor communication (the paper's Cs / Cr).
    cs: float = 1.5
    cr: float = 4.5
    cr_ready: float = 0.15
    transport_delay: float = 0.5

    # Client (worker) <-> executor round trip: the "containerization
    # overhead" of Appendix F.3 (worker thread switch costs).
    client_send: float = 1.0
    executor_wake: float = 2.0
    client_receive: float = 3.0
    input_gen: float = 1.5

    # Data operations inside a reactor.
    read_cost: float = 0.5
    write_cost: float = 0.6
    insert_cost: float = 0.8
    delete_cost: float = 0.6
    scan_row_cost: float = 0.18
    proc_base_cost: float = 0.3

    # Commit path.
    occ_validate_per_read: float = 0.04
    occ_install_per_write: float = 0.08
    occ_commit_base: float = 1.0
    tpc_prepare_per_container: float = 1.2
    abort_cost: float = 0.5

    # Replication (log shipping to replica containers): one-way network
    # delay to ship a redo record, per-write apply cost on the replica,
    # and the ack path a sync commit waits on.
    repl_ship_delay: float = 2.0
    repl_apply_per_write: float = 0.12
    repl_ack_delay: float = 2.0

    # Durability (repro.durability group commit): one log-device sync
    # (``fsync_cost``, serialized per container — a container has one
    # log disk), the group-commit epoch length, and the batch-size
    # threshold that flushes an epoch early.  The interval and byte
    # threshold are flush-*policy* knobs expressed in the cost set so
    # deployments tune them alongside the prices they amortize; they
    # are not CPU costs, so :meth:`container_scaled` leaves them be.
    fsync_cost: float = 30.0
    flush_interval_us: float = 50.0
    flush_batch_bytes: int = 32768

    # Crash recovery (repro.durability.recovery.recover): per-row
    # checkpoint load and per-redo-entry replay prices, so recovery
    # time is a measurable virtual-time quantity in the bench harness.
    recovery_load_per_row: float = 0.4
    recovery_replay_per_entry: float = 0.25

    # Online reactor migration (repro.migration): fixed setup cost of a
    # state copy, per-copied-row snapshot+install cost, the atomic
    # routing flip, and the per-transaction dispatch cost of replaying
    # work that queued at the destination during the migration.
    mig_copy_base: float = 6.0
    mig_copy_per_row: float = 0.15
    mig_flip_cost: float = 1.0
    mig_replay_per_txn: float = 0.5

    # Cache-affinity modelling: operations on a reactor whose data was
    # last touched by a different core are penalized by this factor for
    # the duration of the transaction (the reactor then becomes warm on
    # the new core).
    cold_access_factor: float = 2.3

    # Computational kernels (sim_risk, stock replenishment delays).
    rand_cost: float = 0.006

    def container_scaled(self, factor: float) -> "CostParameters":
        """Scale only the costs one container pays *locally* — CPU,
        data operations, commit work, its log device and recovery /
        migration prices — leaving network delays
        (``transport_delay``, the client round trip, the replication
        ship/ack path) untouched.

        This is the asymmetric-slowdown knob fault campaigns use: one
        container runs on a slow machine while cross-container timing
        assumptions stay comparable, which is exactly the skew that
        shakes out hidden ordering assumptions in commit/ack paths.
        """
        fields = {
            name: getattr(self, name) * factor
            for name in (
                "cs", "cr", "cr_ready", "executor_wake", "input_gen",
                "read_cost", "write_cost", "insert_cost",
                "delete_cost", "scan_row_cost", "proc_base_cost",
                "occ_validate_per_read", "occ_install_per_write",
                "occ_commit_base", "tpc_prepare_per_container",
                "abort_cost", "rand_cost", "fsync_cost",
                "recovery_load_per_row", "recovery_replay_per_entry",
                "mig_copy_base", "mig_copy_per_row", "mig_flip_cost",
                "mig_replay_per_txn",
            )
        }
        return replace(self, **fields)

    def with_symmetric_communication(self) -> "CostParameters":
        """Ablation variant where receiving is as cheap as sending.

        Used by ``repro.experiments.abl_cr_asymmetry`` to test the
        paper's claim that the partially-async vs fully-async gap is
        caused by the receive-path thread switch.
        """
        return replace(self, cr=self.cs, cr_ready=min(self.cr_ready, self.cs))
