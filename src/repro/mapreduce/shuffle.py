"""Sort/shuffle between map and reduce: partition, group, sort.

Keys can be heterogeneous (ints, floats, strings, tuples, None), so
ordering uses a type-ranked canonical form, and partitioning uses a
content-stable hash (Python's ``hash`` of strings is process-seeded
and would make runs non-deterministic).

Records are **grouped at add time**: each partition is a dict from
the decorated sort key to *(first key seen, {branch: rows in arrival
order})*.  A record's partition (``crc32(repr(key))``) and decorated
key are both functions of ``(type(key), repr(key))``, so the row list
a record lands in is memoised under that pair: the hash and
:func:`sort_key` run once per *distinct* key, a repeated key costs a
dict probe and an append, and :meth:`ShuffleBuffer.grouped` sorts
distinct keys only.  Raw keys are never compared or hashed.  Groups,
their order, representative keys, bag order and both counters are
those of a stable sort by :func:`sort_key` scanned for equal
neighbours — the sort-based reference buffer in
``tests/test_shuffle.py`` pins that down (and states the one
departure: NaN keys).
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from itertools import chain
from typing import Dict, Iterator, List, Tuple

from repro.relational.tuples import Row, serialized_rows_size

#: one reduce group: (first key seen, branch -> rows in arrival order)
Group = Tuple[object, Dict[int, List[Row]]]


def stable_hash(key) -> int:
    """Deterministic non-negative hash of an arbitrary key value."""
    return zlib.crc32(repr(key).encode())


_TYPE_RANK = {type(None): 0, bool: 1, int: 2, float: 2, str: 3, tuple: 4}


def sort_key(key):
    """Total order over heterogeneous key values.

    Numbers sort together (int/float), then strings, then tuples
    (element-wise recursively); None sorts first — matching Hadoop's
    null-first writable comparators closely enough for our purposes.
    """
    if isinstance(key, tuple):
        return (4, tuple(sort_key(k) for k in key))
    rank = _TYPE_RANK.get(type(key), 5)
    if key is None:
        return (0, 0)
    if rank == 5:
        return (5, repr(key))
    return (rank, key)


class ShuffleBuffer:
    """Collects map output and serves sorted, grouped reduce input."""

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        #: partition -> decorated sort key -> group
        self._groups: Dict[int, Dict[tuple, Group]] = defaultdict(dict)
        #: branch -> (type(key), repr(key)) -> that group's row list
        self._slots: Dict[int, Dict[tuple, List[Row]]] = defaultdict(dict)
        self.records = 0
        self.bytes = 0

    def add(self, key, branch: int, row: Row) -> None:
        self.add_batch(branch, [key], [row])

    def add_batch(self, branch: int, keys: List, rows: List[Row]) -> None:
        """Add a chunk's records of one branch.

        Key reprs render through one C-level ``map``; wire bytes —
        Hadoop's map-output accounting, serialized key + value — sum
        column-wise.  The loop that remains per record is a dict probe
        and an append; a key not seen before on this branch finds (or
        opens) its group.
        """
        if not rows:
            return
        reprs = list(map(repr, keys))
        slots = self._slots[branch]
        partitions, n_partitions = self._groups, self.n_partitions
        for slot, key, row in zip(zip(map(type, keys), reprs), keys, rows):
            bag = slots.get(slot)
            if bag is None:
                groups = partitions[zlib.crc32(slot[1].encode()) % n_partitions]
                group = groups.setdefault(sort_key(key), (key, {}))
                bag = slots[slot] = group[1].setdefault(branch, [])
            bag.append(row)
        self.records += len(rows)
        self.bytes += serialized_rows_size(rows) + sum(map(len, reprs)) + 2 * len(reprs)

    def used_partitions(self) -> List[int]:
        return sorted(self._groups)

    def grouped(self, partition: int) -> Iterator[Group]:
        """Yield (key, branch -> rows) groups in key-sorted order."""
        groups = self._groups.get(partition, {})
        return map(groups.__getitem__, sorted(groups))

    def all_groups(self) -> Iterator[Group]:
        """All groups across partitions, partition-major order."""
        return chain.from_iterable(map(self.grouped, range(self.n_partitions)))
