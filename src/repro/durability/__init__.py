"""Durability: group commit, incremental checkpoints, crash recovery.

The paper's prototype has no durability and points at log-based
recovery (SiloR-style) plus distributed checkpoints as the intended
design.  This package implements that future-work feature over the
simulated ReactDB — and makes *when a commit is durable* a deployment
knob:

* per-container logical redo logs keyed by commit TID
  (:mod:`repro.durability.wal`), flushed through epoch-based group
  commit pipelines (:mod:`repro.durability.group_commit`) under a
  ``durability_mode`` of ``sync`` (force-at-commit), ``group``
  (epoch-batched acknowledgement) or ``async`` (background flushing) —
  see :class:`~repro.durability.config.DurabilityConfig`;
* quiescent checkpoints in one format, a chained
  :class:`~repro.durability.checkpoint.CheckpointManifest`: a full
  base segment (:func:`~repro.durability.checkpoint.take_checkpoint`
  alone returns one) followed by *incremental* dirty-key segments,
  with WAL truncation watermarks that respect pinned snapshots,
  replica positions, and migrations;
* one recovery call, :func:`~repro.durability.recovery.recover`:
  checkpoint restore + TID-ordered replay over per-reactor log
  partitions, in parallel on the target's executors (or serially on
  one), from live logs or from a kill-at-arbitrary-epoch
  :class:`~repro.durability.recovery.CrashImage`.  Recovery may target
  a different deployment than the crashed database — architecture
  virtualization extends to recovery.
"""

from repro.durability.checkpoint import (
    CheckpointManifest,
    CheckpointSegment,
    take_checkpoint,
)
from repro.durability.config import (
    DURABILITY_MODES,
    NO_DURABILITY,
    DurabilityConfig,
)
from repro.durability.group_commit import LogFlusher
from repro.durability.recovery import (
    CrashImage,
    DurabilityManager,
    RecoveryReport,
    enable_durability,
    recover,
)
from repro.durability.wal import (
    DELETE,
    INSERT,
    UPDATE,
    RedoEntry,
    RedoLog,
    RedoRecord,
    apply_entry_to,
    apply_record_to,
    unseal,
)

__all__ = [
    "RedoLog",
    "RedoRecord",
    "RedoEntry",
    "unseal",
    "INSERT",
    "UPDATE",
    "DELETE",
    "CheckpointManifest",
    "CheckpointSegment",
    "take_checkpoint",
    "DurabilityConfig",
    "DURABILITY_MODES",
    "NO_DURABILITY",
    "DurabilityManager",
    "CrashImage",
    "LogFlusher",
    "RecoveryReport",
    "enable_durability",
    "recover",
    "apply_record_to",
    "apply_entry_to",
]
