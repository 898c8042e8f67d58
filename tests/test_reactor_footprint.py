"""A memory ceiling for one reactor.

SmallBank models each customer as one reactor, so what a reactor costs
before it has run anything is paid once per entity.  This builds a
2,000-customer SmallBank database on the sim (two ``occ`` containers,
1,000 customers each) and divides what the build allocated by the
number of reactors: ``tracemalloc`` bytes still held, and GC-tracked
objects (the ``gc.get_objects()`` delta, with a full collection before
the baseline and before the count).  The declarations are built before
the window opens; the database, its reactors, their catalogs, tables,
records and keys are inside it.  Nothing here reads a clock: on one
interpreter a bare run and a run inside the suite differ by well under
a byte and 0.1 objects per reactor.

Per reactor, before and after per-table and per-reactor bookkeeping
became lazy (a table's version-chain key set created with its first
retained version, one shared read-only empty index map for tables
without indexes, the in-flight root set a dict used as a set, and
``Catalog.__slots__``):

=======  ============  ===========  ==============  =============
Python   bytes before  bytes after  objects before  objects after
=======  ============  ===========  ==============  =============
3.11     3,658         2,625        16.14           12.14
3.12     3,656         2,630        16.14           12.14
3.13     3,666         2,632        16.14           12.15
=======  ============  ===========  ==============  =============

(The 3.12 and 3.13 rows were read from a build of the same four
changes, not re-run on this tree.)  The ceilings sit just above the
highest of these; they only ever go down.
``python tests/test_reactor_footprint.py`` prints the bytes per
reactor by allocation site (the top 15 lines of ``tracemalloc``'s
``statistics("lineno")`` over the same build), to find where new bytes
came from.
"""

from __future__ import annotations

import gc
import os
import tracemalloc

from repro.core.database import ReactorDatabase
from repro.core.deployment import RangePlacement, shared_nothing
from repro.workloads import smallbank as sb

CUSTOMERS = 2000
BYTES_CEILING = 2700
OBJECTS_CEILING = 12.2


def _build(declarations) -> ReactorDatabase:
    database = ReactorDatabase(
        shared_nothing(2, mpl=8, cc_scheme="occ",
                       placement=RangePlacement(CUSTOMERS // 2)),
        declarations)
    sb.load(database, CUSTOMERS)
    return database


def footprint() -> tuple[float, float, tracemalloc.Snapshot]:
    """(bytes, GC-tracked objects) per reactor, and a snapshot of what
    the build left allocated."""
    declarations = sb.declarations(CUSTOMERS)
    tracemalloc.start()
    try:
        gc.collect()
        objects_before = len(gc.get_objects())
        bytes_before = tracemalloc.get_traced_memory()[0]
        database = _build(declarations)
        gc.collect()
        objects = len(gc.get_objects()) - objects_before
        allocated = tracemalloc.get_traced_memory()[0] - bytes_before
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert len(database.reactor_names()) == CUSTOMERS
    return allocated / CUSTOMERS, objects / CUSTOMERS, snapshot


def test_bytes_per_reactor():
    per_reactor, __, ___ = footprint()
    assert per_reactor <= BYTES_CEILING, per_reactor


def test_tracked_objects_per_reactor():
    __, per_reactor, ___ = footprint()
    assert per_reactor <= OBJECTS_CEILING, per_reactor


if __name__ == "__main__":
    per_bytes, per_objects, snapshot = footprint()
    print(f"== {per_bytes:.1f} B and {per_objects:.2f} GC-tracked "
          f"objects per reactor ({CUSTOMERS} SmallBank customers)")
    for stat in snapshot.statistics("lineno")[:15]:
        frame = stat.traceback[0]
        print(f"{stat.size / CUSTOMERS:9.1f}  "
              f"{os.path.relpath(frame.filename)}:{frame.lineno}")
