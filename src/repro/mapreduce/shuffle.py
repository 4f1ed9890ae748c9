"""Sort/shuffle between map and reduce: partition, group, sort.

Keys can be heterogeneous (ints, floats, strings, tuples, None), so
ordering uses a type-ranked canonical form, and partitioning uses a
content-stable hash, :func:`stable_hash` (Python's ``hash`` of strings
is process-seeded and would make runs non-deterministic).

Records are **grouped at add time**: each partition is a dict from
the decorated sort key to *(first key seen, {branch: rows in arrival
order})*, and per branch two tables memoise a key's row list, so the
hash and :func:`sort_key` run once per *distinct* key and
:meth:`ShuffleBuffer.grouped` sorts distinct keys only.  The **raw
table**, keyed by the key itself, takes a chunk whose keys one C-level
type scan finds all exact ``str`` / ``int``, or flat tuples of them:
for those, equal keys are exactly the keys of equal type and repr
(not so for ``True == 1 == 1.0``, ``0.0 == -0.0`` or an ``IntEnum``),
so rows land in one ``map`` pass and fresh keys open groups
column-wise.  Every other chunk takes the **(type, repr) table**: a
record's partition (``crc32(repr(key))``) and decorated key are
functions of that pair, and on this path raw keys are never compared
or hashed.  Both tables reach a row list through its group, so a
group keeps one list, under the key seen first, whichever path its
records take.  Groups, their order, representative keys, bag order
and both counters are those of a stable sort by :func:`sort_key`
scanned for equal neighbours — the sort-based reference buffer in
``tests/test_shuffle.py`` pins that down (and states the one
departure: NaN keys).

:attr:`ShuffleBuffer.bytes` is Hadoop's map-output accounting: per
record its key's repr length, its row's serialized length and two
framing bytes.  A caller that knows a chunk's row bytes from elsewhere
adds the chunk with ``size_rows=False`` and adds them itself (the
interpreter does, for a rearrange tee'd with a store).
"""

from __future__ import annotations

import zlib
from collections import defaultdict
from itertools import chain, filterfalse, repeat
from typing import Dict, Iterator, List, Tuple

from repro.relational.tuples import Row, serialized_rows_size

#: one reduce group: (first key seen, branch -> rows in arrival order)
Group = Tuple[object, Dict[int, List[Row]]]


def stable_hash(key) -> int:
    """Deterministic non-negative hash of an arbitrary key value; both
    key tables put a key in partition ``stable_hash(key) % n``."""
    return zlib.crc32(repr(key).encode())


_TYPE_RANK = {type(None): 0, bool: 1, int: 2, float: 2, str: 3, tuple: 4}

#: the exact scalar types whose values the raw table may key on
_RAW_KINDS = frozenset((str, int))


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


def _raw_keyable(keys) -> bool:
    """Whether every key is an exact ``str`` / ``int``, or every key a
    flat tuple of them: two type scans in C."""
    kinds = set(map(type, keys))
    if kinds == {tuple}:
        kinds = set(map(type, chain.from_iterable(keys)))
    return kinds <= _RAW_KINDS


def _raw_sort_keys(keys) -> list:
    """:func:`sort_key` of raw-keyable *keys* from the rank table, in
    one pass per column."""
    if type(keys[0]) is not tuple:
        return list(zip(map(_TYPE_RANK.__getitem__, map(type, keys)), keys))
    widths = set(map(len, keys))
    if 0 in widths or len(widths) > 1:
        return list(map(sort_key, keys))  # ragged: rare, per key
    return list(zip(repeat(4), zip(*map(_raw_sort_keys, zip(*keys)))))


class ShuffleBuffer:
    """Collects map output and serves sorted, grouped reduce input."""

    def __init__(self, n_partitions: int):
        if n_partitions < 1:
            raise ValueError("need at least one partition")
        self.n_partitions = n_partitions
        #: partition -> decorated sort key -> group
        self._groups: Dict[int, Dict[tuple, Group]] = defaultdict(dict)
        #: branch -> raw-keyable key -> that group's row list
        self._raw: Dict[int, Dict[object, List[Row]]] = defaultdict(dict)
        #: branch -> (type(key), repr(key)) -> that group's row list
        self._slots: Dict[int, Dict[tuple, List[Row]]] = defaultdict(dict)
        #: raw key or (type, repr) entry -> len(repr(key)), its wire bytes
        self._key_lens: Dict[object, int] = {}
        self.records = 0
        self.bytes = 0

    def add(self, key, branch: int, row: Row) -> None:
        self.add_batch(branch, [key], [row])

    def add_batch(
        self, branch: int, keys: List, rows: List[Row], size_rows: bool = True
    ) -> None:
        """Add a chunk's records of one branch.

        The chunk's key table hands out every record's row list in one
        C-level pass and the rows land in another; Python runs only
        for the distinct keys the table has not met.  Wire bytes —
        Hadoop's map-output accounting, serialized key + value — sum
        column-wise, a key's from its memoised repr length.  With
        *size_rows* off the rows' own bytes are left out (keys and the
        two framing bytes per record still count): the caller knows
        them from elsewhere and adds them to :attr:`bytes` itself.
        """
        if not rows:
            return
        raw = _raw_keyable(keys)
        if raw:
            table, index = self._raw[branch], keys
        else:
            table = self._slots[branch]
            index = list(zip(map(type, keys), map(repr, keys)))
        try:
            bags = list(map(table.__getitem__, index))
        except KeyError:
            self._open(branch, table, index, keys, raw)
            bags = list(map(table.__getitem__, index))
        any(map(list.append, bags, rows))  # appends return None
        key_bytes = sum(map(self._key_lens.__getitem__, index))
        self.records += len(rows)
        if size_rows:
            key_bytes += serialized_rows_size(rows)
        self.bytes += key_bytes + 2 * len(rows)

    def _open(self, branch: int, table: dict, index: List, keys: List, raw) -> None:
        """Enter the chunk's entries *table* has not met, in order of
        first appearance, each under the group of its first key:
        reprs, hashes and sort keys in passes over those entries only."""
        fresh = list(filterfalse(table.__contains__, dict.fromkeys(index)))
        if raw:
            firsts, decorated = fresh, _raw_sort_keys(fresh)
        else:
            first_of = dict(zip(reversed(index), reversed(keys)))
            firsts = list(map(first_of.__getitem__, fresh))
            decorated = map(sort_key, firsts)
        reprs = list(map(repr, firsts))
        self._key_lens.update(zip(fresh, map(len, reprs)))
        hashes = map(zlib.crc32, map(str.encode, reprs))
        partitions, n_partitions = self._groups, self.n_partitions
        for entry, key, sorted_by, hashed in zip(fresh, firsts, decorated, hashes):
            group = partitions[hashed % n_partitions].setdefault(sorted_by, (key, {}))
            table[entry] = group[1].setdefault(branch, [])

    def used_partitions(self) -> List[int]:
        return sorted(self._groups)

    def grouped(self, partition: int) -> Iterator[Group]:
        """Yield (key, branch -> rows) groups in key-sorted order."""
        groups = self._groups.get(partition, {})
        return map(groups.__getitem__, sorted(groups))

    def all_groups(self) -> Iterator[Group]:
        """All groups across partitions, partition-major order."""
        return chain.from_iterable(map(self.grouped, range(self.n_partitions)))
