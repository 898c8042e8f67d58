"""Secondary index structures.

Two index kinds back declarative queries inside a reactor:

* :class:`HashIndex` — equality lookups, ``dict`` of key tuple to the
  set of primary keys.
* :class:`OrderedIndex` — range scans, a sorted list of
  ``(key_tuple, primary_key)`` pairs maintained with ``bisect``.  This
  stands in for the Masstree nodes of Silo; its ``structure_version``
  counter provides conservative phantom protection (scans validate
  that no insert/delete changed the index since they ran; see
  ``docs/architecture.md``, ``repro.relational``).
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from repro.errors import DuplicateKeyError
from repro.relational.schema import IndexSpec


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
    """Sorted index supporting range scans over the key columns."""

    def __init__(self, spec: IndexSpec) -> None:
        super().__init__(spec)
        self._entries: list[tuple[tuple, tuple]] = []

    def insert(self, key: tuple, pk: tuple) -> None:
        entry = (key, pk)
        pos = bisect.bisect_left(self._entries, entry)
        if self.spec.unique:
            if pos < len(self._entries) and self._entries[pos][0] == key:
                raise DuplicateKeyError(
                    f"unique index {self.name!r} violated for key {key!r}"
                )
            if pos > 0 and self._entries[pos - 1][0] == key:
                raise DuplicateKeyError(
                    f"unique index {self.name!r} violated for key {key!r}"
                )
        self._entries.insert(pos, entry)
        self.structure_version += 1

    def remove(self, key: tuple, pk: tuple) -> None:
        entry = (key, pk)
        pos = bisect.bisect_left(self._entries, entry)
        if pos < len(self._entries) and self._entries[pos] == entry:
            self._entries.pop(pos)
        self.structure_version += 1

    def lookup(self, key: tuple) -> frozenset[tuple]:
        """Primary keys whose indexed columns equal ``key`` exactly."""
        return frozenset(pk for __, pk in self._range_entries(key, key))

    def range(self, low: tuple | None, high: tuple | None,
              reverse: bool = False) -> list[tuple]:
        """Primary keys with ``low <= key <= high`` in key order.

        ``None`` bounds are open.  Prefix tuples work as expected
        because Python compares tuples lexicographically; a ``high``
        prefix is extended conceptually with +infinity by using
        ``bisect_right`` on ``(high, <max>)``.
        """
        out = [pk for __, pk in self._range_entries(low, high)]
        if reverse:
            out.reverse()
        return out

    def _range_entries(self, low: tuple | None,
                       high: tuple | None) -> list[tuple[tuple, tuple]]:
        lo_pos = 0 if low is None else self._bisect_key_left(low)
        hi_pos = len(self._entries) if high is None else \
            self._bisect_key_right(high)
        return self._entries[lo_pos:hi_pos]

    def _bisect_key_left(self, key: tuple) -> int:
        lo, hi = 0, len(self._entries)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._entries[mid][0] < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _bisect_key_right(self, key: tuple) -> int:
        """First position whose key is > ``key``, treating ``key`` as a
        prefix (entries whose key starts with ``key`` are included)."""
        lo, hi = 0, len(self._entries)
        while lo < hi:
            mid = (lo + hi) // 2
            entry_key = self._entries[mid][0]
            if entry_key[: len(key)] <= key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def __len__(self) -> int:
        return len(self._entries)


def build_index(spec: IndexSpec) -> HashIndex | OrderedIndex:
    """Instantiate the right index structure for a spec."""
    if spec.ordered:
        return OrderedIndex(spec)
    return HashIndex(spec)


def make_spec(name: str, columns: Iterable[str], ordered: bool = False,
              unique: bool = False) -> IndexSpec:
    return IndexSpec(name=name, columns=tuple(columns), ordered=ordered,
                     unique=unique)
