"""Secondary index structures.

Two index kinds back declarative queries inside a reactor:

* :class:`HashIndex` — equality lookups, ``dict`` of key tuple to the
  set of primary keys.
* :class:`OrderedIndex` — range scans over sorted
  ``(key_tuple, primary_key)`` pairs, held as a list of sorted chunks
  of about :attr:`OrderedIndex.CHUNK` entries plus the list of each
  chunk's last entry (the sorted-list-of-lists design), so an insert
  or a remove moves O(chunk) entries, not O(n), and costs the same
  however long the table has grown.  This stands in for the Masstree
  nodes of Silo; its ``structure_version`` counter provides
  conservative phantom protection (scans validate that no
  insert/delete changed the index since they ran; see
  ``docs/architecture.md``, ``repro.relational``).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from repro.errors import DuplicateKeyError
from repro.relational.schema import IndexSpec


class _After:
    """Compares above every value (``value < _AFTER`` falls back to
    ``_AFTER > value``): a range's upper bound is ``high + (_AFTER,)``,
    after every key that starts with ``high``."""

    __slots__ = ()

    def __gt__(self, other: object) -> bool:
        return True


_AFTER = _After()


class _IndexBase:
    """Shared bookkeeping: spec, key extraction, structure version."""

    def __init__(self, spec: IndexSpec) -> None:
        self.spec = spec
        #: Row -> key tuple, built once per index as
        #: ``TableSchema._pk_of`` is; a one-column key is a 1-tuple.
        self.key_of: Callable[[Mapping[str, Any]], tuple]
        if len(spec.columns) == 1:
            (column,) = spec.columns
            self.key_of = lambda row: (row[column],)
        else:
            self.key_of = itemgetter(*spec.columns)
        #: Bumped on every insert/delete; scans record it for phantom
        #: validation (conservative, per index).
        self.structure_version = 0

    @property
    def name(self) -> str:
        return self.spec.name

    def check_insert(self, key: tuple) -> None:
        """Raise :class:`DuplicateKeyError` if inserting ``key`` would
        violate uniqueness — without mutating the index.  Lets callers
        validate a whole write before applying any part of it."""
        if self.spec.unique and self.lookup(key):
            raise DuplicateKeyError(
                f"unique index {self.name!r} violated for key {key!r}"
            )


class HashIndex(_IndexBase):
    """Equality-only index: key tuple -> set of primary keys."""

    def __init__(self, spec: IndexSpec) -> None:
        super().__init__(spec)
        self._buckets: dict[tuple, set[tuple]] = {}

    def insert(self, key: tuple, pk: tuple) -> None:
        bucket = self._buckets.setdefault(key, set())
        if self.spec.unique and bucket:
            raise DuplicateKeyError(
                f"unique index {self.name!r} violated for key {key!r}"
            )
        bucket.add(pk)
        self.structure_version += 1

    def remove(self, key: tuple, pk: tuple) -> None:
        bucket = self._buckets.get(key)
        if bucket is not None:
            bucket.discard(pk)
            if not bucket:
                del self._buckets[key]
        self.structure_version += 1

    def lookup(self, key: tuple) -> frozenset[tuple]:
        """Primary keys whose indexed columns equal ``key``."""
        return frozenset(self._buckets.get(key, frozenset()))

    def __len__(self) -> int:
        return sum(len(b) for b in self._buckets.values())


class OrderedIndex(_IndexBase):
    """Sorted index supporting range scans over the key columns.

    ``_chunks`` is the sorted entry sequence cut into sorted lists, and
    ``_maxes[i]`` is ``_chunks[i][-1]``: a bisect over ``_maxes`` finds
    the chunk, a second bisect the place in it, and an entry after
    every other one (a bulk load in key order) is appended to the last
    chunk with no bisect.  A chunk splits in two
    when it reaches twice :attr:`CHUNK` entries, and an emptied chunk
    is dropped, so no chunk is ever empty.
    """

    #: Entries a chunk settles to; it splits at twice this.
    CHUNK = 512

    def __init__(self, spec: IndexSpec,
                 primary_key: tuple[str, ...] = ()) -> None:
        super().__init__(spec)
        self._chunks: list[list[tuple[tuple, tuple]]] = []
        self._maxes: list[tuple[tuple, tuple]] = []
        #: The key columns lead the table's primary key, so the
        #: ``(key, pk)`` entry order is primary-key order.
        self.pk_ordered = \
            spec.columns == primary_key[:len(spec.columns)]

    def insert(self, key: tuple, pk: tuple) -> None:
        entry = (key, pk)
        maxes = self._maxes
        if not maxes:
            self._chunks.append([entry])
            maxes.append(entry)
            self.structure_version += 1
            return
        if entry > maxes[-1]:
            # An append (a bulk load, a growing key): the last chunk.
            i = len(maxes) - 1
            chunk = self._chunks[i]
            pos = len(chunk)
        else:
            i = bisect_left(maxes, entry)
            chunk = self._chunks[i]
            pos = bisect_left(chunk, entry)
        if self.spec.unique and (
                pos < len(chunk) and chunk[pos][0] == key
                or pos and chunk[pos - 1][0] == key
                or not pos and i and maxes[i - 1][0] == key):
            raise DuplicateKeyError(
                f"unique index {self.name!r} violated for key {key!r}"
            )
        chunk.insert(pos, entry)
        if pos == len(chunk) - 1:
            maxes[i] = entry
        if len(chunk) >= 2 * self.CHUNK:
            half = chunk[self.CHUNK:]
            del chunk[self.CHUNK:]
            self._chunks.insert(i + 1, half)
            maxes[i] = chunk[-1]
            maxes.insert(i + 1, half[-1])
        self.structure_version += 1

    def remove(self, key: tuple, pk: tuple) -> None:
        entry = (key, pk)
        maxes = self._maxes
        i = bisect_left(maxes, entry)
        if i < len(maxes):
            chunk = self._chunks[i]
            pos = bisect_left(chunk, entry)
            if chunk[pos] == entry:
                del chunk[pos]
                if not chunk:
                    del self._chunks[i]
                    del maxes[i]
                elif pos == len(chunk):
                    maxes[i] = chunk[-1]
        self.structure_version += 1

    def lookup(self, key: tuple) -> frozenset[tuple]:
        """Primary keys whose indexed columns start with ``key``:
        ``range(key, key)``, so a full-length key is an exact match."""
        return frozenset(pk for __, pk in self._range_entries(key, key))

    def range(self, low: tuple | None, high: tuple | None,
              reverse: bool = False) -> list[tuple]:
        """Primary keys whose index key ``k`` has
        ``k[:len(low)] >= low`` and ``k[:len(high)] <= high``, in
        ``(key, pk)`` order.

        ``None`` bounds are open.  The one prefix rule of both
        :meth:`lookup` and ``range``: a bound compares against as many
        leading key columns as it has, so ``(d,)`` spans every key
        starting with ``d``, and the two bounds may differ in length.
        """
        out = [pk for __, pk in self._range_entries(low, high)]
        if reverse:
            out.reverse()
        return out

    def _range_entries(self, low: tuple | None,
                       high: tuple | None) -> list[tuple[tuple, tuple]]:
        # An entry (key, pk) sorts at or after (low,) iff
        # key[:len(low)] >= low, and before (high + (_AFTER,),) iff
        # key[:len(high)] <= high: each bound is a C bisect over the
        # chunk maxes (the last chunk takes what sorts after all of
        # them) and one in its chunk.
        maxes = self._maxes
        if not maxes:
            return []
        chunks = self._chunks
        last = len(maxes) - 1
        if low is None:
            lo_chunk = lo_pos = 0
        else:
            probe = (low,)
            lo_chunk = bisect_left(maxes, probe, 0, last)
            lo_pos = bisect_left(chunks[lo_chunk], probe)
        if high is None:
            hi_chunk = last
            hi_pos = len(chunks[last])
        else:
            probe = (high + (_AFTER,),)
            hi_chunk = bisect_left(maxes, probe, 0, last)
            hi_pos = bisect_left(chunks[hi_chunk], probe)
        if lo_chunk == hi_chunk:
            return chunks[lo_chunk][lo_pos:hi_pos]
        if lo_chunk > hi_chunk:
            return []
        out = chunks[lo_chunk][lo_pos:]
        for chunk in chunks[lo_chunk + 1:hi_chunk]:
            out += chunk
        out += chunks[hi_chunk][:hi_pos]
        return out

    def __len__(self) -> int:
        return sum(map(len, self._chunks))


def build_index(spec: IndexSpec, primary_key: tuple[str, ...]
                ) -> HashIndex | OrderedIndex:
    """Instantiate the right index structure for a spec on a table
    with ``primary_key``."""
    if spec.ordered:
        return OrderedIndex(spec, primary_key)
    return HashIndex(spec)


def make_spec(name: str, columns: Iterable[str], ordered: bool = False,
              unique: bool = False) -> IndexSpec:
    return IndexSpec(name=name, columns=tuple(columns), ordered=ordered,
                     unique=unique)
