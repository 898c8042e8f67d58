"""A deterministic call budget for the point-transaction path.

Counts Python ``call`` events whose code object lives under
``src/repro`` (via ``sys.setprofile``) over 200 seeded solo SmallBank
transactions and 200 no-op transactions, each submitted through a
:class:`~repro.client.local.LocalClient` and drained on its own, on a
2-container ``occ`` sim database.  Nothing here reads a clock: the
counts repeat exactly, so the ceilings cannot flake — and the next
wrapper layer someone adds to the path fails loudly here instead of
showing up as a few percent in a noisy wall-clock benchmark.

Calls per transaction, before (PR 12), after PR 13 bound the path
once (precompiled schemas and access paths, flat virtual-time hops,
one-pass commit), after PR 16 made the write set's journey one
pass (one install loop, one call per locked and per installed write,
no per-write redo-entry call), after PR 17 left one commit path
(``coordinator.commit`` called directly: no coordinator object, no
engine switch, no second participant sort), and after PR 18 priced the
commit inline (the per-scheme pricing hook had one body; the rest of
that PR's cut — the record-map interface under ``Table`` — was
attribute forks, not calls):

=====================  ======  ======  ======  ======  ======
                        PR 12   PR 13   PR 16   PR 17   PR 18
=====================  ======  ======  ======  ======  ======
SmallBank (std mix)    228.66  142.50  130.49  126.28  125.32
no-op                   84.25   62.26   62.26   62.26   61.26
=====================  ======  ======  ======  ======  ======

(``cProfile``, which also counts builtins — ``dict.get``, ``heappush``,
``isinstance`` ... — read 347.1 -> 221.5 and 128.4 -> 96.4 on the PR 13
runs.)  Completing a root now releases a snapshot pin only when the
root pinned one, one call less on both rows: 124.32 and 60.26.  OCC
validation as one pass with no side effects (see the sixth row) reads
123.02: 1.10 ``max_observed_tid`` calls gone (the TID floor is folded
into the read walk) and 0.20 ``sorted_intents`` (a read-only session
has no write set to sort).  Dropping backend admission swapped the
sim's admission-hook call per root for a guard call, so the ceilings
did not move.  One guard per commit reads 123.02 -> 122.09: a root
answered in its commit's event settles (``_settle``) inside that
commit's guard, so ``_complete_root`` and its guard call left that
path; the no-op row trades the same two for ``_settle`` and a guard
call and holds at 60.255.  Dropping the write-only ``now`` argument of
a future's ``resolve`` / ``fail`` reads 122.09 -> 121.65 (0.44 fewer
``now`` property calls); the guard hook becoming one call,
``guarded``, keeps one call per guarded section on both rows.  One
object per request (the queued request envelope folded into its
``Task``) and no dispatch posted while the executor has nothing to
dispatch read 121.65 -> 115.945 and 60.255 -> 56.255: 1.31 idle
``_dispatch`` events per SmallBank transaction (1.0 on the no-op row)
are gone with their ``_kick`` / ``post`` / event constructor calls,
and so are the envelope's constructor and the ``is_root`` property
calls.  Booking the commit and abort counters in place
(``counter.value += 1``, not ``counter.inc()``) reads 115.945 ->
114.945 and 56.255 -> 55.255.  Sorting the write set on a C key
(``_INTENT_ORDER``, an ``attrgetter``) instead of a Python key
function per intent reads 114.945 -> 114.51 (the multi-write
transactions' sort keys).  Registering a sub-transaction on its root
with one ``dict.setdefault`` and releasing it with one ``del``, in
place of ``Reactor.try_enter`` / ``Reactor.exit`` method calls, reads
114.51 -> 111.785 and 55.255 -> 53.255.  The ceilings are the exact
counts of this tree on 3.11 (3.12+ inlines one comprehension and reads
1.00 lower); they only ever go down.  Raise
one only with the number that justifies it in the PR description;
``python tests/test_point_path_budget.py 40`` prints the per-function
table to find where new calls came from.

The third row is the ``threads`` backend's hand-off: ``call`` events
under ``runtime/threads.py`` on the container worker threads
(``threading.setprofile``) over the same 200 SmallBank transactions,
each drained on its own.  33.91 per transaction before ISSUE 24
(``_admit`` / ``put`` / ``take`` / ``_retire`` per callback, a guard
class calling up to its base), 21.145 after (a burst per wake-up,
self-posts appended to it, one guard class, ``busy`` inlining without
a helper) — 0.62 of it; the profiler that also counts builtins (lock
methods, ``getattr``) reads 103 -> 46 on the traced e2e run.  One
guard hook and one guard per commit read 21.145 -> 17.285: guard
calls per transaction went 8.0 (1.0 each for the two hooks it
replaced, 2.0 each for the guard object's constructor, enter and
exit) -> 4.14 (1.035 each for the hook and the object's three
methods; the 0.035 is a user abort's second guard).  The guard as one
call, ``guarded``, that takes and releases the locks itself reads
17.285 -> 13.74: the guard object's three methods (3.105) are gone,
and so are 0.44 ``now`` calls (a resolved future no longer stores its
time).  An executor that posts a dispatch only when it has work reads
13.74 -> 11.12: 1.31 ``post`` calls fewer, and as many queue items.  Both counts leave out what a worker does when it runs dry
(``_WorkQueue.take``, ``_wake_run``): how often depends on timing.

The fourth row is the redo log's path: ``call`` events per appended
record in the ``json`` package and under ``durability/`` while the
golden file's seeded TPC-C group-commit case (``occ``, seed 11, 80
records) runs.  Sizing a record once printed it through ``json.dumps``
(3.0 ``json`` and 23.475 ``durability`` calls per record: a
``to_json`` per entry); one encoder pass over the record's values read
0 and 12.0125; sealing the record into bytes at append, its size their
length, reads 0 and 11.9125 (a ``sealed`` call per record instead of a
``byte_size`` call, and no cache of key sizes to fill).  Publishing
each commit's records in one step after every participant installed
reads 0 and 10.7875: the log's ``on_append`` listener closure (1.0 per
record), the durability manager's commit-time ack-future lookup (0.85,
once per commit, read-only ones included) and
``LogFlusher.ack_future`` (1.0625, once per commit participant) are
gone, and one ``publish`` per writing commit (0.7875) and one
``LogFlusher._waiter`` per record (1.0, the ack future joining its
epoch before any flush can start) came in.  Handing the executor the
flush futures to join, instead of a joint future, reads 10.3625: the
joint future's countdown closure (0.425 per record) is gone.  Sealing
each commit's share as value runs in the install loop reads 9.3625:
the per-commit dirty-key booking (``_note_dirty``, 1.0 per record; a
checkpoint now derives its dirty keys from the append sequence) and
the ``sealed`` property's body (1.0) are gone, ``RedoLog.append``
became ``append_runs`` and ``_record`` (1.0, the live record around
the sealed bytes) came in.

The fifth row is the scan path: ``call`` events under ``concurrency/``
and ``relational/`` made inside ``CCSession.scan`` (its own call not
counted), per scan, while the same TPC-C case runs (58 scans).  Before
and after range bounds became two C bisects, an ordered index over a
primary-key prefix took the candidate-order walk, and own writes were
qualified on their key and predicate before being copied:

=====================  ======  ======
                       before   after
=====================  ======  ======
scan (TPC-C, occ/11)    63.59   37.66
=====================  ======  ======

(Gone per scan: 7.45 generator sort keys and 2.48 ``sort_key`` calls;
4.83 sort lambdas; 3.66 ``_register_read`` dispatches; 2.03 each of
``_in_range``, its ``Table.index`` lookup and the predicate match of
an own write outside the range; 1.03 Python bisects.  New: 0.41
``_After.__gt__``, when a bisect step meets a key equal to ``high``.)
A ``Comparison`` that binds its ``operator`` function at construction
and ``And`` / ``Or`` as plain loops read 37.66 -> 29.38: 3.31 lambda
calls (one per row tested) and 4.97 generator steps of ``all`` /
``any`` are gone.  The chunked ordered index adds no call: with one
chunk its bisects over the chunk maxes have nothing to compare.  A
scan with no predicate no longer calls ``TruePredicate.matches`` per
row: 29.38 -> 17.293 (12.086 calls gone).  A range of an ordered
index over a primary-key prefix is no longer re-sorted before its
records are fetched; that sort is one C call, so it moves no count.

The sixth row is the commit path: ``call`` events under
``concurrency/``, ``relational/`` and ``storage/`` made inside
``coordinator.commit`` (its own call not counted), per commit
attempted, while the same TPC-C case runs (81 commits).  Before and
after OCC validation became one pass with no side effects — no lock
word, no insert placeholders, the TID floor read off the same walk
(validate + install already run as one atomic section inside the
backend's ``guarded``):

=======================  ======  ======
                         before   after
=======================  ======  ======
commit (TPC-C, occ/11)    97.36   53.52
=======================  ======  ======

(Gone per commit: 5.03 each of ``_lock_insert``, ``get_record``,
``ensure_placeholder``, ``VersionedRecord.lock``, ``remember_lock``,
``remember_placeholder``, ``_placeholder_in_use`` and
``discard_placeholder``; 1.43 ``VersionedRecord.__init__`` — an
insert now builds its record at install, 3.59, instead of a
placeholder at validation, 5.03; 1.11 ``max_observed_tid``; 0.86
``reclaim_placeholders``; 0.16 ``release_locks``, which a refused
validation called on itself; 0.07 ``sorted_intents`` of read-only
participants.)  Dropping the Python sort key ``_intent_order_key``
(11.95, one ``repr(pk)`` per intent) for a C ``attrgetter``, passing
``install_insert`` the intent's pk (3.59 ``primary_key_of`` calls) and
checking only unique indexes before an insert (3.14 ``check_insert``
calls) read 53.52 -> 34.84.
"""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import threading
from collections import Counter
from pathlib import Path

import repro
from repro.client.local import LocalClient
from repro.concurrency import coordinator
from repro.concurrency.base import CCSession
from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.core.reactor import ReactorType
from repro.workloads import smallbank as sb
from test_golden_histories import WINDOW, _tpcc

SRC_ROOT = str(Path(repro.__file__).resolve().parent)
N_TXNS = 200
CUSTOMERS = 100

SMALLBANK_CEILING = 111.785
NOOP_CEILING = 53.255
THREADS_HANDOFF_CEILING = 11.12
LOG_DURABILITY_CEILING = 9.3625
SCAN_PATH_CEILING = 17.2932
COMMIT_PATH_CEILING = 34.84

JSON_ROOT = os.path.dirname(json.__file__) + os.sep
DURABILITY_ROOT = SRC_ROOT + os.sep + "durability" + os.sep
SCAN_ROOTS = tuple(SRC_ROOT + os.sep + package + os.sep
                   for package in ("concurrency", "relational"))
COMMIT_ROOTS = SCAN_ROOTS + (SRC_ROOT + os.sep + "storage" + os.sep,)

NOOP = ReactorType("BudgetNoop", lambda: [])


@NOOP.procedure
def noop(ctx):
    return None


class _Worker:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng


def _database(declarations, per_container: int) -> ReactorDatabase:
    return ReactorDatabase(
        shared_nothing(2, mpl=8, cc_scheme="occ",
                       placement=RangePlacement(per_container)),
        declarations)


def _collect_garbage() -> None:
    """Collect what earlier code left in reference cycles before a
    counted window opens.  A suspended procedure generator collected
    inside the window is closed there, and its ``GeneratorExit``
    resumes it: ``call`` events the counted path never made, as many
    as earlier tests left behind and the collector happened to reach.
    A full collection also resets the collector's counters, so when
    it runs within the window depends on the window alone."""
    gc.collect()


def count_calls(client: LocalClient, specs: list) -> Counter:
    """``call`` events per ``file:line(function)`` under src/repro
    while ``specs`` run one at a time (submit, drain, next)."""
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC_ROOT):
                calls[(code.co_filename[len(SRC_ROOT) + 1:],
                       code.co_firstlineno, code.co_name)] += 1

    outcomes = []
    _collect_garbage()
    sys.setprofile(profiler)
    try:
        for reactor, proc, args in specs:
            submission = client.submit(reactor, proc, *args)
            client.drain()
            outcomes.append(submission.outcome)
    finally:
        sys.setprofile(None)
    assert all(outcome is not None for outcome in outcomes)
    return calls


def smallbank_calls() -> Counter:
    database = _database(sb.declarations(CUSTOMERS), CUSTOMERS // 2)
    sb.load(database, CUSTOMERS)
    worker = _Worker(random.Random("budget/smallbank"))
    next_txn = sb.SmallbankWorkload(CUSTOMERS).next_txn
    specs = [next_txn(worker) for __ in range(N_TXNS)]
    return count_calls(LocalClient(database), specs)


def noop_calls() -> Counter:
    database = _database([("noop0", NOOP), ("noop1", NOOP)], 1)
    specs = [(f"noop{i % 2}", "noop", ()) for i in range(N_TXNS)]
    return count_calls(LocalClient(database), specs)


def threads_handoff_calls() -> Counter:
    """``call`` events under ``runtime/threads.py`` on the container
    worker threads while the SmallBank specs run solo on a ``threads``
    database.  ``run()``'s poll loop is on the caller's thread and is
    not counted; neither are the two calls a worker makes when it
    runs out of work (``_WorkQueue.take``, ``_wake_run``), whose
    number depends on whether a reply from the other container finds
    the worker already asleep and the caller already inside ``run()``.
    """
    calls: Counter = Counter()
    handoff = SRC_ROOT + "/runtime/threads.py"

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename == handoff \
                    and code.co_name not in ("take", "_wake_run") \
                    and threading.current_thread().name.startswith(
                        "repro-container-"):
                calls[(code.co_firstlineno, code.co_name)] += 1

    worker = _Worker(random.Random("budget/smallbank"))
    next_txn = sb.SmallbankWorkload(CUSTOMERS).next_txn
    specs = [next_txn(worker) for __ in range(N_TXNS)]
    # Worker threads start when the database is built: the hook has
    # to be in place by then.
    threading.setprofile(profiler)
    try:
        database = ReactorDatabase(
            shared_nothing(2, mpl=8, cc_scheme="occ",
                           placement=RangePlacement(CUSTOMERS // 2),
                           backend="threads"),
            sb.declarations(CUSTOMERS))
    finally:
        threading.setprofile(None)
    try:
        sb.load(database, CUSTOMERS)
        client = LocalClient(database)
        _collect_garbage()
        calls.clear()
        for reactor, proc, args in specs:
            submission = client.submit(reactor, proc, *args)
            client.drain()
            assert submission.outcome is not None
    finally:
        database.close()
    return calls


def _profile_golden_tpcc(profiler) -> ReactorDatabase:
    """Run golden's seeded TPC-C group-commit case (``occ``, seed 11)
    closed-loop under ``profiler``; returns the database, still
    open."""
    database, specs = _tpcc("occ", 11, recorded=False)
    pending = iter(specs)

    def submit_next(*__) -> None:
        for reactor, proc, args in pending:
            database.submit(reactor, proc, *args, on_done=submit_next)
            return

    _collect_garbage()
    sys.setprofile(profiler)
    try:
        for __ in range(WINDOW):
            submit_next()
        database.scheduler.run()
    finally:
        sys.setprofile(None)
    return database


def log_path_calls() -> tuple[Counter, int]:
    """``call`` events per ``file:line(function)`` in the ``json``
    package and under ``durability/`` while golden's seeded TPC-C
    group-commit case runs closed-loop, and the records its logs
    appended."""
    calls: Counter = Counter()

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = code.co_filename
            if path.startswith(JSON_ROOT):
                package = "json"
            elif path.startswith(DURABILITY_ROOT):
                package = "durability"
            else:
                return
            calls[(f"{package}/{os.path.basename(path)}",
                   code.co_firstlineno, code.co_name)] += 1

    database = _profile_golden_tpcc(profiler)
    records = sum(len(c.concurrency.redo_log)
                  for c in database.containers)
    database.close()
    return calls, records


def _calls_inside(function, roots: tuple[str, ...]
                  ) -> tuple[Counter, int]:
    """``call`` events per ``file:line(function)`` under ``roots``
    made inside ``function`` (its own call not counted) while golden's
    seeded TPC-C group-commit case runs closed-loop, and the calls
    ``function`` itself received."""
    calls: Counter = Counter()
    outer = function.__code__
    depth = entered = 0

    def profiler(frame, event, arg):
        nonlocal depth, entered
        code = frame.f_code
        if code is outer:
            if event == "call":
                entered += 1
                depth += 1
            elif event == "return":
                depth -= 1
        elif depth and event == "call" \
                and code.co_filename.startswith(roots):
            calls[(code.co_filename[len(SRC_ROOT) + 1:],
                   code.co_firstlineno, code.co_name)] += 1

    _profile_golden_tpcc(profiler).close()
    return calls, entered


def scan_path_calls() -> tuple[Counter, int]:
    """Calls under ``concurrency/`` and ``relational/`` per
    ``CCSession.scan``, and the scans made."""
    return _calls_inside(CCSession.scan, SCAN_ROOTS)


def commit_path_calls() -> tuple[Counter, int]:
    """Calls under ``concurrency/``, ``relational/`` and ``storage/``
    per ``coordinator.commit``, and the commits attempted."""
    return _calls_inside(coordinator.commit, COMMIT_ROOTS)


def test_counts_repeat_exactly():
    assert smallbank_calls() == smallbank_calls()


def test_smallbank_point_path_budget():
    per_txn = sum(smallbank_calls().values()) / N_TXNS
    assert per_txn <= SMALLBANK_CEILING, per_txn


def test_noop_floor_budget():
    per_txn = sum(noop_calls().values()) / N_TXNS
    assert per_txn <= NOOP_CEILING, per_txn


def test_threads_handoff_budget():
    first, second = threads_handoff_calls(), threads_handoff_calls()
    assert first == second
    per_txn = sum(first.values()) / N_TXNS
    assert per_txn <= THREADS_HANDOFF_CEILING, per_txn


def test_scan_path_budget():
    calls, scans = scan_path_calls()
    assert scans == 58
    per_scan = sum(calls.values()) / scans
    assert per_scan <= SCAN_PATH_CEILING, per_scan


def test_commit_path_budget():
    calls, commits = commit_path_calls()
    assert commits == 81
    per_commit = sum(calls.values()) / commits
    assert per_commit <= COMMIT_PATH_CEILING, per_commit


def test_log_path_budget():
    calls, records = log_path_calls()
    assert records == 80
    by_package: Counter = Counter()
    for (path, __, ___), n in calls.items():
        by_package[path.split("/")[0]] += n
    assert by_package["json"] == 0, calls
    per_record = by_package["durability"] / records
    assert per_record <= LOG_DURABILITY_CEILING, per_record


if __name__ == "__main__":
    # The per-function table the ceilings were read from.
    top = int(sys.argv[1]) if sys.argv[1:] else 25
    for title, calls in (("smallbank", smallbank_calls()),
                         ("noop", noop_calls())):
        print(f"== {title}: "
              f"{sum(calls.values()) / N_TXNS:.2f} calls/txn")
        for (path, line, name), n in calls.most_common(top):
            print(f"{n / N_TXNS:8.3f}  {path}:{line}({name})")
    calls = threads_handoff_calls()
    print(f"== threads hand-off (smallbank, container workers): "
          f"{sum(calls.values()) / N_TXNS:.2f} calls/txn")
    for (line, name), n in calls.most_common(top):
        print(f"{n / N_TXNS:8.3f}  runtime/threads.py:{line}({name})")
    calls, scans = scan_path_calls()
    print(f"== scan path (tpcc/occ/11, concurrency + relational): "
          f"{sum(calls.values()) / scans:.4f} calls/scan")
    for (path, line, name), n in calls.most_common(top):
        print(f"{n / scans:8.3f}  {path}:{line}({name})")
    calls, commits = commit_path_calls()
    print(f"== commit path (tpcc/occ/11, concurrency + relational + "
          f"storage): {sum(calls.values()) / commits:.4f} calls/commit")
    for (path, line, name), n in calls.most_common(top):
        print(f"{n / commits:8.3f}  {path}:{line}({name})")
    calls, records = log_path_calls()
    print(f"== log path (tpcc/occ/11, json + durability): "
          f"{sum(calls.values()) / records:.4f} calls/record")
    for (path, line, name), n in calls.most_common(top):
        print(f"{n / records:8.3f}  {path}:{line}({name})")
