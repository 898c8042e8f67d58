"""Reactor types and instances.

A *reactor* (relational actor, Section 2.2.1) is an application-defined
logical actor that encapsulates state abstracted as relations.  A
:class:`ReactorType` declares the relation schemas (via a schema
creation function) and the procedures invocable on reactors of that
type.  A :class:`Reactor` is a named instance holding a private
:class:`~repro.relational.catalog.Catalog`; reactors are purely logical
entities addressable by name for the lifetime of the application — the
developer cannot create or destroy them at runtime.

Procedures are registered with the :meth:`ReactorType.procedure`
decorator and are written as Python functions or generators taking a
context as first argument::

    account = ReactorType("Account", schema_fn=make_account_schema)

    @account.procedure
    def deposit(ctx, amount):
        ctx.update("checking", pk=(ctx.my_name(),),
                   set={"balance": ...})
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.errors import ReactorError, UnknownProcedureError
from repro.relational.catalog import Catalog
from repro.relational.schema import TableSchema

SchemaFn = Callable[[], Iterable[TableSchema]]
Procedure = Callable[..., Any]


class ReactorType:
    """A reactor type: schema creation function plus procedures."""

    def __init__(self, name: str, schema_fn: SchemaFn) -> None:
        self.name = name
        self.schema_fn = schema_fn
        #: ``schema_fn()``'s (immutable) schemas, created at the first
        #: instantiation and shared by every reactor of the type.
        self._schemas: tuple[TableSchema, ...] | None = None
        self.procedures: dict[str, Procedure] = {}
        #: Procedures declared read-only: their root transactions are
        #: eligible for read-replica routing (repro.replication) and
        #: the runtime refuses their writes.
        self.read_only_procedures: set[str] = set()

    def procedure(self, fn: Procedure | None = None, *,
                  read_only: bool = False):
        """Register ``fn`` as a procedure of this reactor type.

        Usable bare (``@rtype.procedure``) or with options
        (``@rtype.procedure(read_only=True)``); the function keeps
        working as a plain Python callable for unit testing.
        """
        def register(func: Procedure) -> Procedure:
            if func.__name__ in self.procedures:
                raise ReactorError(
                    f"procedure {func.__name__!r} already registered "
                    f"on reactor type {self.name!r}"
                )
            self.procedures[func.__name__] = func
            if read_only:
                self.read_only_procedures.add(func.__name__)
            return func

        if fn is not None:
            return register(fn)
        return register

    def get_procedure(self, name: str) -> Procedure:
        try:
            return self.procedures[name]
        except KeyError:
            known = ", ".join(sorted(self.procedures)) or "<none>"
            raise UnknownProcedureError(
                f"reactor type {self.name!r} has no procedure {name!r}; "
                f"known: {known}"
            ) from None

    def build_catalog(self) -> Catalog:
        """Instantiate the private tables for one reactor instance."""
        if self._schemas is None:
            self._schemas = tuple(self.schema_fn())
        return Catalog(self._schemas)

    def __repr__(self) -> str:
        return f"ReactorType({self.name!r})"


class Reactor:
    """A named reactor instance with private relational state.

    Placement attributes (``container``, ``pinned_executor``) are
    assigned by the deployment at bootstrap; ``core_heat`` tracks how
    recently each simulated core touched this reactor's data, driving
    the cache-affinity cost model (``docs/architecture.md``,
    ``repro.sim``).

    Online migration (:mod:`repro.migration`) moves a reactor between
    containers mid-run by building a *successor* instance at the
    destination and atomically flipping the routing entry.  The
    routing-epoch attributes track that lifecycle: ``epoch`` counts how
    many times the logical reactor has been re-homed, ``migrating``
    marks the serving instance while its migration drains, and a
    ``retired`` instance points at its successor through
    ``migrated_to`` (the migration certificate reads both).  No task
    can reach a retired instance: the drain barrier and the parked
    queue keep every request on the instance that serves it.
    """

    __slots__ = ("name", "rtype", "catalog", "container",
                 "pinned_executor", "affinity_executor", "core_heat",
                 "_active_subtxn", "epoch", "migrating", "retired",
                 "migrated_to", "inflight_roots")

    #: Cache-warmth retained per intervening transaction on another
    #: core: with round-robin over k executors a reactor returns to a
    #: core with warmth DECAY^(k-1), reproducing the *progressive*
    #: locality loss of Appendix F.2.
    HEAT_DECAY = 0.8

    def __init__(self, name: str, rtype: ReactorType) -> None:
        self.name = name
        self.rtype = rtype
        self.catalog = rtype.build_catalog()
        for table in self.catalog:
            table.owner = name
        self.container: Any = None
        self.pinned_executor: Any = None
        #: Preferred executor for *root* transactions under affinity
        #: routing (sub-calls in shared-everything stay inline).
        self.affinity_executor: Any = None
        #: core id -> warmth in [0, 1]; decays as other cores touch
        #: this reactor's data.
        self.core_heat: dict[int, float] = {}
        # root txn id -> sub-transaction id currently active here;
        # enforces the dynamic safety condition of Section 2.2.4.
        self._active_subtxn: dict[int, int] = {}
        #: Routing epoch: 0 at bootstrap, +1 per completed migration of
        #: the logical reactor this instance continues.
        self.epoch = 0
        #: Set while an online migration of this instance drains.
        self.migrating = False
        #: Set once a migration flipped routing away from this
        #: instance; ``migrated_to`` is the successor at the new home.
        self.retired = False
        self.migrated_to: Any = None
        #: Root txn ids that touched this instance and have not yet
        #: completed — the drain barrier of online migration.  A dict
        #: used as a set (``[txn_id] = None``, ``pop(txn_id, None)``):
        #: an empty dict is 64 B, an empty set 216 B, once per reactor.
        #: Entries arrive on the reactor's container thread and leave
        #: on the root's home thread, so it stays one dict (single
        #: operations are atomic on free-threaded builds), never a
        #: counter.
        self.inflight_roots: dict[int, None] = {}

    def touch(self, core_id: int) -> float:
        """Record a transaction touching this reactor from ``core_id``.

        Returns the warmth of that core in [0, 1] *before* the touch:
        1.0 means the working set is fully cached there (no penalty),
        0.0 fully cold.  Other cores' warmth decays by
        :data:`HEAT_DECAY`; the touching core becomes fully warm.
        """
        warmth = self.core_heat.get(core_id, 0.0)
        if self.core_heat:
            for core in list(self.core_heat):
                self.core_heat[core] *= self.HEAT_DECAY
        self.core_heat[core_id] = 1.0
        return warmth

    def mark_cold(self) -> None:
        """Forget all cache warmth (testing / cache-flush modeling)."""
        self.core_heat.clear()

    # -- dynamic intra-transaction safety (Section 2.2.4) --------------

    def try_enter(self, root_id: int, subtxn_id: int) -> bool:
        """Register a sub-transaction as active on this reactor.

        Returns ``False`` when a *different* sub-transaction of the same
        root transaction is already active — the dangerous structure the
        runtime must abort.
        """
        current = self._active_subtxn.get(root_id)
        if current is not None and current != subtxn_id:
            return False
        self._active_subtxn[root_id] = subtxn_id
        return True

    def exit(self, root_id: int, subtxn_id: int) -> None:
        if self._active_subtxn.get(root_id) == subtxn_id:
            del self._active_subtxn[root_id]

    def active_count(self) -> int:
        return len(self._active_subtxn)

    def table(self, name: str):
        return self.catalog.table(name)

    def __repr__(self) -> str:
        return f"Reactor({self.name!r}, type={self.rtype.name!r})"
