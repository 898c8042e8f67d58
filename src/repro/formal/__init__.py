"""Executable formalization of Section 2.3 (conflict-serializability).

Definitions 2.1-2.6 and Theorem 2.7 as code: reactor-model histories,
their projection into the classic transactional model, and
serialization-graph acyclicity checks under both conflict notions.
Property-based tests verify the theorem on randomized histories.

Public exports: history building blocks (:class:`Op`, ``read`` /
``write`` / ``commit`` / ``abort``,
:class:`ReactorHistory`,
:class:`ClassicHistory`, ``project``), the serializability checks
(``is_serializable_reactor`` / ``is_serializable_classic`` /
``serialization_order`` / ``theorem_2_7_holds``) and the runtime
audits (:class:`HistoryRecorder` with ``attach_recorder`` /
``detach_recorder``, plus the black-box certificates
``certify_replication``, ``certify_migration``,
``certify_snapshot_isolation`` and ``certify_crash_recovery``).
"""

from repro.formal.audit import (
    HistoryRecorder,
    attach_recorder,
    certify_all,
    certify_crash_recovery,
    certify_migration,
    certify_replication,
    certify_snapshot_isolation,
    detach_recorder,
    recording,
)
from repro.formal.history import ReactorHistory, history_of
from repro.formal.ops import (
    Op,
    Terminal,
    abort,
    commit,
    read,
    write,
)
from repro.formal.projection import (
    ClassicHistory,
    ClassicOp,
    project,
    project_op,
)
from repro.formal.serializability import (
    has_cycle,
    is_serializable_classic,
    is_serializable_reactor,
    serialization_order,
    theorem_2_7_holds,
)

__all__ = [
    "Op",
    "Terminal",
    "read",
    "write",
    "commit",
    "abort",
    "ReactorHistory",
    "history_of",
    "ClassicOp",
    "ClassicHistory",
    "project",
    "project_op",
    "has_cycle",
    "serialization_order",
    "is_serializable_reactor",
    "is_serializable_classic",
    "theorem_2_7_holds",
    "HistoryRecorder",
    "attach_recorder",
    "detach_recorder",
    "recording",
    "certify_all",
    "certify_replication",
    "certify_migration",
    "certify_snapshot_isolation",
    "certify_crash_recovery",
]
