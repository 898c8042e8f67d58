"""Transaction executors: the compute resources of ReactDB.

A transaction executor (paper Section 3.1) abstracts one core pinned
thread pool with a request queue.  Requests are asynchronous procedure
calls — root transactions routed by the database's transaction router
and sub-transactions arriving from other executors.

Each request is one :class:`Task`: it waits in the request queue and
then runs there, driving its procedure as a generator over the
discrete-event scheduler:

* at most one task consumes CPU at any instant (the executor is pinned
  to one simulated hardware thread);
* a task that blocks on a remote future releases the core and the
  executor cooperatively switches to the next ready task or admits a
  new request — the paper's cooperative multitasking with thread
  handoff (Section 3.2.3).  A dispatch is posted only when the core is
  free and a woken task or a request waits for it.  Admission is
  unbounded: the deployment's ``mpl`` is recorded in the config but
  not enforced here (ROADMAP open question);
* a call to a reactor served by this same executor is executed inline
  (synchronously), avoiding migration-of-control overhead; calls to
  reactors on other executors are dispatched with send cost ``Cs`` and
  their results consumed with receive cost ``Cr``.

Latency of root transactions is broken down into the paper's Figure 6
categories as charges and waits are attributed (see
:mod:`repro.runtime.transaction`).
"""

from __future__ import annotations

from collections import deque
from types import GeneratorType
from typing import Any, Callable

from repro.concurrency import coordinator
from repro.errors import (
    CCAbort,
    DangerousStructureAbort,
    ReactorError,
    SimulationError,
    TransactionAbort,
    UnknownProcedureError,
    UnknownReactorError,
    UserAbort,
)
from repro.runtime.effects import CallEffect, ChargeEffect, GetEffect
from repro.runtime.futures import SimFuture
from repro.runtime.transaction import RootTransaction

_NOTHING = object()


class Frame:
    """One procedure activation on a reactor within a task."""

    __slots__ = ("gen", "reactor", "subtxn_id", "pending", "entered",
                 "inline_future")

    def __init__(self, gen: Any, reactor: Any, subtxn_id: int,
                 entered: bool) -> None:
        self.gen = gen
        self.reactor = reactor
        self.subtxn_id = subtxn_id
        self.pending: list[SimFuture] = []
        self.entered = entered
        #: For inline child frames: the future the parent received.
        self.inline_future: SimFuture | None = None


class Task:
    """One request — a root transaction (``subtxn_id`` 0) or a
    sub-transaction call — queued on an executor and then executed
    there."""

    __slots__ = ("root", "reactor", "proc_name", "args", "kwargs",
                 "subtxn_id", "result_future", "on_root_done", "frames",
                 "executor", "pending_charge", "block_start",
                 "block_category", "wake_future")

    def __init__(self, root: RootTransaction, reactor: Any,
                 proc_name: str, args: tuple, kwargs: dict,
                 subtxn_id: int = 0,
                 result_future: SimFuture | None = None,
                 on_root_done: Callable[..., None] | None = None) -> None:
        self.root = root
        self.reactor = reactor
        self.proc_name = proc_name
        self.args = args
        self.kwargs = kwargs
        self.subtxn_id = subtxn_id
        self.result_future = result_future
        self.on_root_done = on_root_done
        self.frames: list[Frame] = []
        #: The executor running it, set when it starts.
        self.executor: TransactionExecutor | None = None
        #: Simulated CPU accrued by data operations since last flush.
        self.pending_charge = 0.0
        self.block_start = 0.0
        self.block_category = "async_execution"
        self.wake_future: SimFuture | None = None


def _frame_body(proc: Callable, ctx: Any, args: tuple,
                kwargs: dict, frame: Frame):
    """Driver generator around a procedure.

    Forwards the procedure's effects and, when it finishes, implicitly
    synchronizes on every future it left outstanding: a transaction or
    sub-transaction completes only when all its nested sub-transactions
    complete (paper Section 2.2.3).
    """
    error = None
    try:
        result = proc(ctx, *args, **kwargs)
        # Generator procedures — and plain ones that *return* a
        # generator — are driven to completion; GeneratorType cannot
        # be subclassed, so the identity test is isinstance exactly.
        if type(result) is GeneratorType:
            result = yield from result
    except Exception as exc:
        error = exc
    # Every outstanding sub-transaction finishes before this frame
    # does, whether it returned, raised or met a failed sibling first
    # — otherwise an orphaned execution would race the rollback, or
    # open a session on a root that already completed.  The first
    # error wins; later ones are subsumed by the abort it starts.
    for future in list(frame.pending):
        if not future.consumed:
            try:
                yield GetEffect(future, implicit=True)
            except Exception as exc:
                if error is None:
                    error = exc
    if error is not None:
        try:
            raise error
        finally:
            # Its traceback holds this frame, so the frame must let go
            # of the error: a cycle would pin the root until collected.
            error = None
    return result


class TransactionExecutor:
    """One simulated core's worth of transaction processing."""

    __slots__ = ("executor_id", "core_id", "container", "scheduler",
                 "costs", "queue", "ready", "running",
                 "_dispatch_scheduled", "busy_time", "requests_served",
                 "_shadow_of", "_cid", "_future_cls", "_context_cls")

    def __init__(self, executor_id: int, core_id: int, container: Any,
                 scheduler: Any, costs: Any) -> None:
        self.executor_id = executor_id
        self.core_id = core_id
        self.container = container
        #: The execution backend (see :mod:`repro.runtime.backend`);
        #: the attribute keeps its historical name because the whole
        #: runtime schedules through it.
        self.scheduler = scheduler
        #: Backend-chosen future type (thread-safe under ``threads``).
        self._future_cls = scheduler.future_class
        self._cid = container.container_id
        # Deferred import (core.context yields runtime effect objects,
        # so a module-scope import would be circular), resolved once
        # per executor rather than guarded per frame.
        from repro.core.context import ReactorContext
        self._context_cls = ReactorContext
        self.costs = costs
        self.queue: deque[Task] = deque()
        self.ready: deque[Task] = deque()
        self.running: Task | None = None
        self._dispatch_scheduled = False
        #: Cumulative busy virtual time, for utilization reporting.
        self.busy_time = 0.0
        self.requests_served = 0
        #: Replica containers expose ``shadow`` (a class-level method);
        #: bound once so the call hot path skips a getattr per effect.
        self._shadow_of = getattr(container, "shadow", None)

    # ------------------------------------------------------------------
    # Request intake and dispatch
    # ------------------------------------------------------------------

    def submit(self, task: Task) -> None:
        """Enqueue a request.  Under ``threads`` a cross-container
        request is submitted on the caller's thread (see
        :meth:`_release` for why no wake-up is lost)."""
        if self.container.failed and task.result_future is not None:
            # Sub-call arriving at a crashed container: fail the
            # future so the caller aborts instead of waiting forever.
            task.result_future.fail(
                TransactionAbort(
                    f"container {self.container.container_id} failed"))
            return
        self.queue.append(task)
        self._kick()

    def _kick(self) -> None:
        # post() targets this executor's container context: on the sim
        # backend that is soon(); on the threads backend it routes the
        # dispatch onto this container's worker thread even when the
        # kick came from another thread (cross-container submit).  The
        # _dispatch_scheduled flag is a best-effort dampener — a racy
        # double-post only runs _dispatch twice, which is idempotent.
        if self.running is None and not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.scheduler.post(self._cid, self._dispatch)

    def _release(self) -> None:
        """Free the core; dispatch only if a woken task or a request
        waits for it.

        Order matters under ``threads``: a cross-container ``submit``
        appends to ``queue`` on its own thread and then reads
        ``running``, while this clears ``running`` and then reads
        ``queue`` — so at least one of the two sees the other and
        posts the dispatch."""
        self.running = None
        if self.ready or self.queue:
            self._kick()

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        if self.running is not None:
            return
        if self.ready:
            self._resume_woken(self.ready.popleft())
        elif self.queue:
            self._start(self.queue.popleft())

    # ------------------------------------------------------------------
    # Task lifecycle
    # ------------------------------------------------------------------

    def _start(self, task: Task) -> None:
        self.requests_served += 1
        root = task.root
        reactor = task.reactor
        task.executor = self

        # Dynamic intra-transaction safety (Section 2.2.4): refuse a
        # sub-transaction when another sub-transaction of the same root
        # is active on this reactor.
        if not reactor.try_enter(root.txn_id, task.subtxn_id):
            abort = DangerousStructureAbort(
                f"sub-transaction {task.subtxn_id} of txn "
                f"{root.txn_id} raced another sub-transaction on "
                f"reactor {reactor.name!r}"
            )
            if task.result_future is not None:
                task.result_future.fail(abort)
                self._release()
                return
            raise abort  # a root can never race itself

        self.running = task
        self._touch_reactor(task, reactor)
        self._push_frame(task, reactor, task.subtxn_id, entered=True,
                         proc_name=task.proc_name, args=task.args,
                         kwargs=task.kwargs)
        # Root admissions pay the executor wake-up (thread switch from
        # the request queue), part of the containerization overhead.
        if task.subtxn_id == 0:
            trace = root.trace
            if trace is not None:
                trace.close_child("sched", self.scheduler.now,
                                  {"core": self.core_id})
            self._busy(task, self.costs.executor_wake, "commit",
                       self._step, task, _NOTHING, None)
        else:
            self._step(task, _NOTHING, None)

    def _push_frame(self, task: Task, reactor: Any, subtxn_id: int,
                    entered: bool, proc_name: str, args: tuple,
                    kwargs: dict) -> Frame:
        # Known: a root's name is checked at submit, a call's at the call.
        proc = reactor.rtype.procedures[proc_name]
        frame = Frame(None, reactor, subtxn_id, entered)
        ctx = self._context_cls(reactor, task.root, task, self.costs)
        frame.gen = _frame_body(proc, ctx, args, kwargs, frame)
        task.frames.append(frame)
        task.pending_charge += self.costs.proc_base_cost
        return frame

    def _touch_reactor(self, task: Task, reactor: Any) -> None:
        """Cache-affinity bookkeeping: the first touch of a reactor in
        a transaction fixes the data-operation cost multiplier from
        the core's warmth (1.0 when fully warm, up to
        ``cold_access_factor`` when fully cold)."""
        root = task.root
        if reactor.name not in root.touched_reactors:
            warmth = reactor.touch(self.core_id)
            factor = 1.0 + (self.costs.cold_access_factor - 1.0) * \
                (1.0 - warmth)
            root.touched_reactors[reactor.name] = factor
            # Online migration drains on this map: the reactor cannot
            # be copied away while a root that touched it is in flight.
            reactor.inflight_roots[root.txn_id] = None
            root.reactor_refs.append(reactor)

    # ------------------------------------------------------------------
    # The trampoline
    # ------------------------------------------------------------------

    def _step(self, task: Task, send_value: Any,
              throw: BaseException | None) -> None:
        """Advance the top frame one effect; handle completion/abort."""
        gen = task.frames[-1].gen
        try:
            if throw is not None:
                effect = gen.throw(throw)
            elif send_value is _NOTHING:
                effect = next(gen)
            else:
                effect = gen.send(send_value)
        except StopIteration as stop:
            fn, outcome = self._frame_done, stop.value
        except SimulationError:
            raise  # a runtime bug, not an application condition
        except ReactorError as error:
            # Application-level failures (user aborts, missing records,
            # duplicate keys, unknown reactors...) abort the root
            # transaction.
            if isinstance(error, TransactionAbort):
                outcome = error
                # Only its message travels on; the traceback would pin
                # this frame — which holds the abort: a cycle — and
                # through it the task, the root and its sessions.
                outcome.__traceback__ = None
            else:
                outcome = UserAbort(f"{type(error).__name__}: {error}")
            fn = self._frame_aborted
        except Exception as error:  # noqa: BLE001
            # So does the procedure's own bug (``1 / 0``): let it out
            # of here and this executor never clears ``running`` —
            # this request and every later one go unanswered.
            outcome = UserAbort(
                f"procedure raised {type(error).__name__}: {error}")
            fn = self._frame_aborted
        else:
            fn, outcome = self._process_effect, effect
        if throw is not None:
            # Likewise when the frame swallowed the abort thrown in:
            # its traceback names that frame, whose locals reach the
            # failed future holding the abort.
            throw.__traceback__ = None
        # Convert accrued data-operation cost into busy time first.
        # Continuations are ``(fn, *args)`` pairs, never closures: the
        # trampoline runs once per effect, and allocating a lambda per
        # hop dominated its profile.
        pending = task.pending_charge
        if pending > 0.0:
            task.pending_charge = 0.0
            self._busy(task, pending, "exec", fn, task, outcome)
        else:
            fn(task, outcome)

    def _busy(self, task: Task, micros: float, category: str,
              fn: Callable[..., None], *args: Any) -> None:
        """Occupy this executor's core for ``micros``, then continue
        with ``fn(*args)``."""
        self.busy_time += micros
        if task.subtxn_id == 0:
            # RootTransaction.charge(), spelled out: this runs on
            # every hop of every root.
            task.root.breakdown[_BREAKDOWN[category]] += micros
        if micros > 0.0:
            # Backend hook: a virtual sleep on sim (byte-identical to
            # the historical after()), an inline continuation on the
            # threads backend where real CPU work subsumes the charge.
            self.scheduler.busy(micros, fn, *args)
        else:
            fn(*args)

    # ------------------------------------------------------------------
    # Effect handlers
    # ------------------------------------------------------------------

    def _process_effect(self, task: Task, effect: Any) -> None:
        if task.subtxn_id == 0:
            task.root.effect_seq += 1
        # Calls and gets dominate the yielded-effect mix (data
        # operations never yield); test for them first.
        if isinstance(effect, CallEffect):
            self._handle_call(task, effect)
        elif isinstance(effect, GetEffect):
            self._handle_get(task, effect)
        elif isinstance(effect, ChargeEffect):
            self._busy(task, effect.micros, effect.category,
                       self._step, task, None, None)
        else:
            self._step(task, None, SimulationError(
                f"procedure yielded a non-effect: {effect!r}"))

    def _handle_call(self, task: Task, call: CallEffect) -> None:
        database = self.container.database
        try:
            reactor = database.reactor(call.reactor_name)
            if call.proc_name not in reactor.rtype.procedures:
                reactor.rtype.get_procedure(call.proc_name)  # raises
        except (UnknownReactorError, UnknownProcedureError) as exc:
            self._step(task, None, exc)
            return
        # On a *serving* replica container, calls to reactors of the
        # same primary container resolve to the local shadows (the
        # whole read-only transaction stays on the replica's cores).
        # Calls that would *leave* a serving replica are refused: the
        # replica's shadows are a consistent prefix of its own primary
        # only, so mixing them with another container's live primary
        # could read a torn cross-container state no validation
        # detects.  So does the shadow of a reactor that migrated off
        # the primary: it stopped at the migration and is refused too.
        # A *promoted* replica is a primary: it must resolve
        # through the database registry like any other container, or a
        # later migration off it would keep routing writes into the
        # abandoned local copy.
        shadow_of = self._shadow_of
        if shadow_of is not None and self.container.role == "replica":
            shadow = None
            if reactor.container.container_id == self._cid:
                shadow = shadow_of(call.reactor_name)
            if shadow is not None:
                reactor = shadow
            else:
                self._step(task, None, UserAbort(
                    f"replica-served read-only transaction cannot "
                    f"call reactor {call.reactor_name!r} outside its "
                    f"container"))
                return
        current = task.frames[-1].reactor
        root = task.root

        if reactor is current:
            # Self-call: executed synchronously, same logical thread of
            # control, no new sub-transaction identity (Section 2.2.4).
            self._run_inline(task, reactor, call,
                             subtxn_id=task.frames[-1].subtxn_id,
                             entered=False)
            return

        # A sub-call to a reactor mid-migration, from a transaction
        # with no stake in the source copy (one that already touched it
        # keeps running there and drains), is parked: it replays on the
        # destination container after the routing flip, so the
        # transaction spans the migration and commits through 2PC like
        # any cross-container one.
        parked = reactor.migrating and \
            root.txn_id not in reactor.inflight_roots
        target = None if parked else self._sub_call_target(reactor)
        if target is self:
            subtxn_id = root.next_subtxn_id()
            if not reactor.try_enter(root.txn_id, subtxn_id):
                self._step(task, None, DangerousStructureAbort(
                    f"inline sub-transaction on reactor {reactor.name!r} "
                    f"raced txn {root.txn_id}"
                ))
                return
            self._run_inline(task, reactor, call, subtxn_id=subtxn_id,
                             entered=True)
            return

        # The sub-call leaves this executor: charge Cs and hand the
        # (pending) future back to the caller immediately.  A remote
        # call enters the active set *at invocation* (paper Section
        # 2.2.4: "invoked, but have not completed"), so a second
        # asynchronous sub-transaction racing the same reactor within
        # this root is refused even if their executions would not
        # physically overlap; a parked one enters it when it replays.
        subtxn_id = root.next_subtxn_id()
        if not parked and not reactor.try_enter(root.txn_id, subtxn_id):
            self._step(task, None, DangerousStructureAbort(
                f"asynchronous sub-transactions of txn {root.txn_id} "
                f"race on reactor {reactor.name!r}"
            ))
            return
        future = self._future_cls(remote=True, target_reactor=reactor.name)
        future.birth_seq = root.effect_seq
        task.frames[-1].pending.append(future)
        root.remote_calls += 1
        subtask = Task(root, reactor, call.proc_name, call.args,
                       call.kwargs, subtxn_id, future)
        trace = root.trace
        if trace is not None:
            span_args = {"proc": call.proc_name}
            if parked:
                span_args["parked"] = True
            trace.open_child(subtxn_id, f"subcall:{reactor.name}",
                             self.scheduler.now, span_args)
        if parked:
            database.migration.park_subcall(reactor.name, subtask)
        else:
            self.scheduler.after(
                self.costs.cs + self.costs.transport_delay,
                target.submit, subtask)
        self._busy(task, self.costs.cs, "cs",
                   self._step, task, future, None)

    def _sub_call_target(self, reactor: Any) -> "TransactionExecutor":
        """Which executor serves a sub-call on ``reactor``?

        Same-container reactors with no pinned executor are served
        inline (shared-everything: direct memory access, no migration
        of control).  Pinned reactors are served by their executor.
        """
        pinned = reactor.pinned_executor
        if pinned is not None:
            return pinned
        if reactor.container is self.container:
            return self
        return reactor.container.route(reactor)

    def _run_inline(self, task: Task, reactor: Any, call: CallEffect,
                    subtxn_id: int, entered: bool) -> None:
        future = self._future_cls(remote=False, target_reactor=reactor.name)
        future.birth_seq = task.root.effect_seq
        self._touch_reactor(task, reactor)
        frame = self._push_frame(task, reactor, subtxn_id, entered,
                                 call.proc_name, call.args, call.kwargs)
        frame.inline_future = future
        self._step(task, _NOTHING, None)

    def _handle_get(self, task: Task, get: GetEffect) -> None:
        future = get.future
        if future.resolved:
            cost = self.costs.cr_ready if future.remote else 0.0
            self._busy(task, cost, "cr", self._deliver, task, future)
            return
        # Block; release the executor to other tasks.
        task.block_start = self.scheduler.now
        root = task.root
        if task.subtxn_id == 0 and \
                root.effect_seq == future.birth_seq + 1:
            # The get immediately followed the call: this wait is the
            # synchronous execution of the sub-transaction.
            task.block_category = "sync_execution"
        else:
            task.block_category = "async_execution"
        # Backend hook: under threads the resolver may live on another
        # OS thread, so the wake-up is relayed onto this container's
        # work queue instead of running on the resolver's thread.
        self.scheduler.add_waiter(future, self._on_future_ready, task,
                                  container=self._cid)
        self._release()

    def _on_future_ready(self, task: Task, future: SimFuture) -> None:
        subtxn_id = task.subtxn_id
        if subtxn_id == 0:
            wait = self.scheduler.now - task.block_start
            task.root.charge(task.block_category, wait)
        trace = task.root.trace
        if trace is not None:
            parent = subtxn_id or None
            trace.span("wait:" + task.block_category,
                       task.block_start, self.scheduler.now,
                       {"on": future.target_reactor},
                       parent_key=parent)
        task.wake_future = future
        self.ready.append(task)
        self._kick()

    def _resume_woken(self, task: Task) -> None:
        future = task.wake_future
        task.wake_future = None
        self.running = task
        assert future is not None
        cost = self.costs.cr if future.remote else 0.0
        self._busy(task, cost, "cr", self._deliver, task, future)

    def _deliver(self, task: Task, future: SimFuture) -> None:
        # A failed sub-transaction's abort goes to the waiting frame
        # as is: raised here first, its traceback would hold this
        # frame, and with it the future that holds the abort.
        abort = future.error
        if isinstance(abort, TransactionAbort):
            future.consumed = True
            self._step(task, None, abort)
        else:
            self._step(task, future.result(), None)

    # ------------------------------------------------------------------
    # Frame completion / abort
    # ------------------------------------------------------------------

    def _frame_done(self, task: Task, result: Any) -> None:
        frame = task.frames.pop()
        if frame.entered:
            frame.reactor.exit(task.root.txn_id, frame.subtxn_id)
        if task.frames:
            # Inline child finished: resolve its future and hand it to
            # the parent synchronously.
            assert frame.inline_future is not None
            frame.inline_future.resolve(result)
            self._step(task, frame.inline_future, None)
            return
        if task.result_future is not None:
            # Remote sub-transaction finished on this executor.
            task.result_future.resolve(result)
            trace = task.root.trace
            if trace is not None:
                trace.close_child(task.subtxn_id, self.scheduler.now)
            self._finish_task(task)
            return
        self._commit_root(task, result)

    def _frame_aborted(self, task: Task, abort: TransactionAbort) -> None:
        frame = task.frames.pop()
        if frame.entered:
            frame.reactor.exit(task.root.txn_id, frame.subtxn_id)
        if task.frames:
            if frame.inline_future is not None:
                frame.inline_future.consumed = True
                frame.inline_future.fail(abort)
            self._step(task, None, abort)
            return
        if task.result_future is not None:
            task.result_future.fail(abort)
            trace = task.root.trace
            if trace is not None:
                trace.close_child(task.subtxn_id, self.scheduler.now,
                                  {"aborted": True})
            self._finish_task(task)
            return
        self._abort_root(task, abort)

    def _finish_task(self, task: Task, *outcome: Any) -> None:
        """Retire ``task``.  A root's task also answers its caller:
        ``outcome`` is ``(committed, reason, result)``."""
        if self.running is task:
            self._release()
        callback = task.on_root_done
        if callback is not None:
            self.scheduler.after(self.costs.transport_delay, callback,
                                 task.root, *outcome)

    # ------------------------------------------------------------------
    # Root commit / abort
    # ------------------------------------------------------------------

    def _commit_root(self, task: Task, result: Any) -> None:
        root = task.root
        # The participant set is final from here on (every frame has
        # returned): walk it once for pricing and hand the same list
        # to the commit itself.
        participants = root.participants()
        trace = root.trace
        if trace is not None:
            trace.open_child("commit", "commit", self.scheduler.now,
                             {"participants": len(participants)})
        # Every scheme prices its commit phase by the same
        # footprint-shaped formula (see the pricing note in
        # repro.concurrency.locking).  Snapshot sessions report zero
        # validation reads — their reads pin versions and are never
        # re-checked, so a snapshot-served read-only commit pays only
        # the base fee.
        reads = writes = 0
        for __, session in participants:
            reads += session.validation_read_count
            writes += session.write_count
        costs = self.costs
        cost = (costs.occ_commit_base
                + costs.occ_validate_per_read * reads
                + costs.occ_install_per_write * writes)
        if len(participants) > 1:
            cost += costs.tpc_prepare_per_container * \
                len(participants)
        # The commit stage is one guarded call over the participants,
        # continued straight from the commit's busy time: no hop.
        self._busy(task, cost, "commit", self.scheduler.guarded,
                   root.sessions, self._do_commit, task, result,
                   participants)

    def _do_commit(self, task: Task, result: Any,
                   participants: list) -> None:
        """The commit stage, run as one ``guarded`` call over the
        root's participants: a plain call on sim; under threads it
        holds the state lock plus every participant container's lock,
        so validate + install + publish — and either the answer of a
        commit acknowledged now or the arming of its deferred wait —
        are one atomic section against the other containers'
        executing transactions."""
        root = task.root
        database = self.container.database
        trace = root.trace
        # A transaction that touched no data commits trivially (e.g.
        # pure-compute procedures, empty transactions).
        committed, reason = True, None
        flushes, ack_delay = [], 0.0
        for manager, __ in participants:
            if manager.failed:
                # A participant container crashed under this
                # transaction (replication failover): its writes would
                # land in dead storage, so the commit must not be
                # reported.
                coordinator.abort(participants, reason=None)
                if database.replication is not None:
                    database.replication.failover_aborts.value += 1
                committed, reason = False, "container failed"
                break
        else:
            if participants:
                outcome = coordinator.commit(participants,
                                             self.scheduler.now)
                committed, reason = outcome.committed, outcome.reason
                root.commit_tid = outcome.commit_tid
                # Publish, once every participant has installed:
                # durability (append sequence, dirty keys, flush epochs
                # and the flushes the client waits for), then
                # replication, then the recorder.  Only durability's
                # logs make records.
                records = outcome.records
                if records:
                    flushes = database.durability.publish(root, records)
                    if database.replication is not None:
                        ack_delay = database.replication.ship(records)
                recorder = database.history_recorder
                if recorder is not None and committed:
                    recorder.record_install(root.txn_id,
                                            outcome.commit_tid,
                                            participants)
                if trace is not None:
                    # Commit-phase markers: the coordinator is pure
                    # logic and emits none, so they are synthesized
                    # from its outcome.
                    now = self.scheduler.now
                    if outcome.containers > 1:
                        trace.instant(
                            "2pc:prepare", now,
                            {"participants": outcome.containers},
                            parent_key="commit")
                    if committed:
                        trace.instant(
                            "cc:validate", now,
                            {"participants": outcome.containers},
                            parent_key="commit")
                        trace.instant("cc:install", now,
                                      {"tid": outcome.commit_tid,
                                       "writes": outcome.writes},
                                      parent_key="commit")
                    else:
                        trace.instant("cc:abort", now,
                                      {"reason": reason},
                                      parent_key="commit")
        if not flushes and ack_delay == 0.0:
            self._settle(root, committed, reason)
            self._finish_task(task, committed, reason,
                              result if committed else None)
            return
        # Deferred completion: the client sees the commit only after
        # every log flush landed *and* the replica ack window closed.
        # The executor core is released while waiting — another
        # admitted task may run, exactly like a block on a remote
        # future.
        if ack_delay > 0.0:
            root.charge("commit_input_gen", ack_delay)
        if self.running is task:
            self._release()
        scheduler = self.scheduler
        wait_start = scheduler.now
        if trace is not None:
            if ack_delay > 0.0:
                # The replica ack window is priced up-front, so the
                # span's extent is known now.
                trace.span("replication:ack_wait", wait_start,
                           wait_start + ack_delay, parent_key="commit")
            if flushes:
                trace.open_child("flush_wait", "durability:ack_wait",
                                 wait_start)
        # The one join: each flush counts 2 and the ack window 1, so
        # every flush has landed once fewer than 2 are left, and the
        # commit is answered at 0.  (Every decrement runs on this
        # container: flushes are relayed here, and threads refuses
        # replication.)
        waits = 2 * len(flushes) + (ack_delay > 0.0)

        def landed(weight: int, *__: Any) -> None:
            nonlocal waits
            waits -= weight
            if weight == 2 and waits < 2:
                # The last flush: charge only its wait beyond the
                # replica ack window (the waits overlap on the wall
                # clock).
                now = scheduler.now
                extra = (now - wait_start) - ack_delay
                if extra > 0.0:
                    root.charge("commit_input_gen", extra)
                if root.trace is not None:
                    root.trace.close_child("flush_wait", now)
            if waits == 0:
                self._finish_deferred_commit(task, result, participants)

        if ack_delay > 0.0:
            scheduler.after(ack_delay, landed, 1)
        for flush in flushes:
            # Relayed through the backend: the flusher resolves on the
            # client thread, but the join belongs to this executor.
            scheduler.add_waiter(flush, landed, 2, container=self._cid)

    def _finish_deferred_commit(self, task: Task, result: Any,
                                participants: list) -> None:
        """Deferred completion of a sync-replicated or group-commit
        durable transaction.

        If a participant container died during the wait window, the
        replication manager resolves the in-doubt outcome: when every
        failed participant's promoted successor holds this commit's
        record (the sync channel drain guarantees it once promotion
        ran), it is reported committed; otherwise conservatively as an
        abort rather than as a commit that failover could lose.
        """
        if any(manager.failed for manager, __ in participants):
            replication = self.container.database.replication
            if replication is None or \
                    not replication.commit_survived(task.root):
                if replication is not None:
                    replication.failover_aborts.value += 1
                self._complete_root(
                    task, False,
                    "container failed before replication ack", None)
                return
        self._complete_root(task, True, None, result)

    def _abort_root(self, task: Task, abort: TransactionAbort) -> None:
        root = task.root
        root.user_abort = not isinstance(
            abort, (DangerousStructureAbort, CCAbort))
        participants = root.participants()
        if participants:
            # CC-initiated aborts (lock conflicts, wounds...) were
            # already counted at their raise site; attribute only
            # application/safety aborts here.
            if isinstance(abort, CCAbort):
                reason = None
            elif isinstance(abort, DangerousStructureAbort):
                reason = "dangerous_structure"
            else:
                reason = "user"
            self.scheduler.guarded(root.sessions, coordinator.abort,
                                   participants, reason)
        # The root settles in a second guarded call once the abort's
        # cost has elapsed: settling in the first would report it that
        # much early, and move virtual time.
        self._busy(task, self.costs.abort_cost, "commit",
                   self._complete_root, task, False, str(abort), None)

    def _complete_root(self, task: Task, committed: bool,
                       reason: str | None, result: Any) -> None:
        """Settle a root in a guarded call of its own, then answer it:
        a deferred commit, or an abort once its cost has elapsed."""
        self.scheduler.guarded((), self._settle, task.root, committed,
                               reason)
        self._finish_task(task, committed, reason, result)

    def _settle(self, root: RootTransaction, committed: bool,
                reason: str | None) -> None:
        """The bookkeeping of a completed root.  Telemetry counters,
        durability ack sets, the snapshot-pin watermark and the
        history recorder are shared across containers: it runs inside
        ``scheduler.guarded`` (a plain call on sim, the state lock on
        threads)."""
        root.finished = True
        for reactor in root.reactor_refs:
            reactor.inflight_roots.pop(root.txn_id, None)
        database = self.container.database
        database.telemetry.note_root_done(root, committed, reason,
                                          self.scheduler.now)
        if database.durability is not None:
            # This is the acknowledgement instant: the set of commits
            # clients saw is what crash certification holds recovery
            # to (acked => durable for sync/group; async reports its
            # loss window instead).
            if committed:
                database.durability.note_acked(root)
            else:
                database.durability.note_unacked(root)
        # Release the root's pinned snapshot (if any) and count the
        # reads it served: the storage GC watermark advances with the
        # in-flight snapshot set, so the next install can prune
        # versions only this root could see.
        if root.snapshot_tid is not None:
            database.storage.unpin(root.txn_id, root.total_reads())
        if not committed and root.read_only:
            database.storage.note_read_only_abort()
        recorder = database.history_recorder
        if recorder is not None:
            if committed:
                recorder.record_commit(root.txn_id)
            else:
                recorder.record_abort(root.txn_id)


#: Charge-category -> Figure 6 breakdown bucket.
_BREAKDOWN = {
    "exec": "sync_execution",
    "cs": "cs",
    "cr": "cr",
    "commit": "commit_input_gen",
}
