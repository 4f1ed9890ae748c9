"""Unit tests for the sort/shuffle machinery."""

import zlib
from collections import defaultdict
from enum import IntEnum
from itertools import groupby
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.shuffle import (
    ShuffleBuffer,
    _raw_keyable,
    _raw_sort_keys,
    sort_key,
    stable_hash,
)
from repro.relational.tuples import serialized_row_size


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_tuple_keys(self):
        assert stable_hash(("a", 1)) == stable_hash(("a", 1))

    def test_non_negative(self):
        for key in ["x", 0, -5, ("a",), None]:
            assert stable_hash(key) >= 0


class TestSortKey:
    def test_numbers_sort_together(self):
        keys = [3, 1.5, 2]
        assert sorted(keys, key=sort_key) == [1.5, 2, 3]

    def test_none_sorts_first(self):
        keys = ["b", None, "a"]
        assert sorted(keys, key=sort_key)[0] is None

    def test_mixed_types_total_order(self):
        keys = ["z", 5, None, ("a", 1), 2.5]
        ordered = sorted(keys, key=sort_key)
        assert ordered[0] is None
        # does not raise, and is stable
        assert sorted(ordered, key=sort_key) == ordered

    def test_tuples_elementwise(self):
        keys = [("b", 1), ("a", 2), ("a", 1)]
        assert sorted(keys, key=sort_key) == [("a", 1), ("a", 2), ("b", 1)]


class TestShuffleBuffer:
    def test_grouping_by_key(self):
        buf = ShuffleBuffer(n_partitions=4)
        buf.add("a", 0, ("a", 1))
        buf.add("b", 0, ("b", 2))
        buf.add("a", 0, ("a", 3))
        groups = dict(
            (key, bags) for key, bags in buf.all_groups()
        )
        assert set(groups) == {"a", "b"}
        assert groups["a"][0] == [("a", 1), ("a", 3)]

    def test_branch_separation(self):
        buf = ShuffleBuffer(n_partitions=2)
        buf.add("k", 0, ("left",))
        buf.add("k", 1, ("right",))
        ((key, bags),) = list(buf.all_groups())
        assert key == "k"
        assert bags[0] == [("left",)]
        assert bags[1] == [("right",)]

    def test_keys_sorted_within_partition(self):
        buf = ShuffleBuffer(n_partitions=1)
        for key in ["c", "a", "b"]:
            buf.add(key, 0, (key,))
        keys = [key for key, _ in buf.grouped(0)]
        assert keys == ["a", "b", "c"]

    def test_counters(self):
        buf = ShuffleBuffer(n_partitions=2)
        buf.add("a", 0, ("a", 1))
        buf.add("b", 0, ("b", 2))
        assert buf.records == 2
        assert buf.bytes > 0

    def test_same_key_same_partition(self):
        buf = ShuffleBuffer(n_partitions=8)
        buf.add("k", 0, ("x",))
        buf.add("k", 1, ("y",))
        assert len(buf.used_partitions()) == 1

    def test_invalid_partition_count(self):
        import pytest

        with pytest.raises(ValueError):
            ShuffleBuffer(0)

    def test_all_groups_covers_all_partitions(self):
        buf = ShuffleBuffer(n_partitions=4)
        keys = [f"key{i}" for i in range(20)]
        for key in keys:
            buf.add(key, 0, (key,))
        seen = [key for key, _ in buf.all_groups()]
        assert sorted(seen) == sorted(keys)


class TestDecoratedRecordsRegression:
    """Grouping, ordering and byte accounting as the sort-based
    reference (``SortBasedBuffer`` below) produces them."""

    HETEROGENEOUS_KEYS = [
        None,
        1,
        1.0,
        2,
        "1",
        "a",
        "b",
        (1, "a"),
        (1, "b"),
        ("a", 1),
        None,
        2.0,
        "a",
        (1, "a"),
    ]

    def test_group_boundaries_unchanged_for_heterogeneous_keys(self):
        chunks = [
            (i % 2, [key], [(i, repr(key))])
            for i, key in enumerate(self.HETEROGENEOUS_KEYS)
        ]
        for n_partitions in (1, 2, 8):
            records, _, _, groups = differential(chunks, n_partitions)
            assert records == len(chunks) and len(groups) >= 8

    def test_int_and_float_of_equal_value_share_a_group(self):
        buf = ShuffleBuffer(n_partitions=1)
        buf.add(1, 0, ("int",))
        buf.add(1.0, 0, ("float",))
        ((key, bags),) = list(buf.all_groups())
        # numbers sort together and compare equal: one group (as before)
        assert bags[0] == [("int",), ("float",)]

    def test_byte_accounting_matches_serialized_lengths(self):
        from repro.relational.tuples import Bag, serialize_row

        rows = [
            ("alice", 1, 0.5),
            (None, None, None),
            ("k", Bag([("a", 1), ("b", 2)])),
            (True, False, -17),
            ((1, "x"), 2.5, "tail"),
        ]
        buf = ShuffleBuffer(n_partitions=4)
        expected = 0
        for i, row in enumerate(rows):
            key = ("g", i % 2)
            buf.add(key, 0, row)
            expected += len(serialize_row(row)) + len(repr(key)) + 2
        assert buf.bytes == expected

    def test_sorting_never_compares_raw_keys(self):
        class Unorderable:
            def __repr__(self):
                return f"Unorderable({id(self) % 7})"

        buf = ShuffleBuffer(n_partitions=1)
        for i in range(6):
            buf.add(Unorderable(), 0, (i,))
        groups = list(buf.all_groups())
        assert sum(len(bags[0]) for _, bags in groups) == 6


class SortBasedBuffer:
    """The reference: the buffer this module shipped before it grouped
    at add time.  Every record is decorated with its sort key when it
    enters, each partition is stable-sorted by that key, and a group
    is a run of equal neighbours (decorate-sort-undecorate)."""

    def __init__(self, n_partitions):
        self.n_partitions = n_partitions
        self._partitions = defaultdict(list)
        self.records = 0
        self.bytes = 0

    def add(self, key, branch, row):
        key_repr = repr(key)
        partition = zlib.crc32(key_repr.encode()) % self.n_partitions
        self._partitions[partition].append((sort_key(key), key, branch, row))
        self.records += 1
        self.bytes += serialized_row_size(row) + len(key_repr) + 2

    def used_partitions(self):
        return sorted(p for p, records in self._partitions.items() if records)

    def all_groups(self):
        for partition in range(self.n_partitions):
            records = sorted(self._partitions.get(partition, []), key=itemgetter(0))
            for _, group in groupby(records, key=itemgetter(0)):
                group = list(group)
                bags = defaultdict(list)
                for _, _, branch, row in group:
                    bags[branch].append(row)
                yield group[0][1], dict(bags)


def observe(buf):
    """Everything a reducer or a counter can see.  Representative keys
    are compared by type and repr: ``1 == 1.0 == True`` would let the
    wrong one through."""
    return (
        buf.records,
        buf.bytes,
        buf.used_partitions(),
        [
            (type(key).__name__, repr(key), {b: list(rows) for b, rows in bags.items()})
            for key, bags in buf.all_groups()
        ],
    )


class Unorderable:
    """Neither orderable nor hashable; distinct objects share a repr."""

    __hash__ = None

    def __init__(self, tag):
        self.tag = tag

    def __eq__(self, other):
        raise AssertionError("a raw key was compared")

    def __lt__(self, other):
        raise AssertionError("a raw key was compared")

    def __repr__(self):
        return f"Unorderable({self.tag % 3})"


ROWS = [
    ("alice", 1, 0.5),
    (None, None, None),
    ("bob", -7, 2.25),
    ("carol", 44, None),
    ("dave", 0, 1.0),
    ("erin", 12, -0.0),
    ("frank", 3, 1e20),
]

KEY_SETS = {
    "uniform-str": ["b", "a", "b", "c", "a"],
    "uniform-int": [3, 1, 2, 1, 3],
    "uniform-float": [1.5, 0.25, 1.5, 2.0, -3.5],
    "uniform-bool": [True, False, True, True, False],
    "mixed-scalars": ["x", 2, 2.5, True, "y"],
    "with-nones": [None, "a", None, "b", "a"],
    "tuples": [("a", 1), ("a", 2), ("b", 1), ("a", 1), ("b", 2)],
    "unranked": [complex(1, 2), complex(0, 1), complex(1, 2), 1j, 2j],
    "one-one-true": [1, 1.0, True, 1.0, 1, True, "1"],
    "signed-zeros": [0, 0.0, -0.0, False, 0],
    "all-none": [None, None, None],
    "null-component": [("a", None), (None, "a"), ("a", None), (None, None), ("a", 1)],
    "nested-tuples": [(1, ("a", 2)), (1, ("a", 2.0)), ((1,), "a"), (1, ("a", None))],
    "unorderable": [Unorderable(i) for i in range(6)],
    "isolated-nulls": [("__null__", 1), "u1", ("__null__", 2), "u1", ("__null__", 10)],
    "str-vs-its-repr": ["a", "'a'", "1", 1, "(1,)", (1,)],
}


def differential(chunks, n_partitions):
    """Feed one stream — ``[(branch, keys, rows), ...]`` — three ways:
    chunk by chunk, record by record, and to the reference."""
    batched = ShuffleBuffer(n_partitions)
    serial = ShuffleBuffer(n_partitions)
    oracle = SortBasedBuffer(n_partitions)
    for branch, keys, rows in chunks:
        batched.add_batch(branch, list(keys), list(rows))
        for key, row in zip(keys, rows):
            serial.add(key, branch, row)
            oracle.add(key, branch, row)
    want = observe(oracle)
    assert observe(batched) == want
    assert observe(serial) == want
    return want


class TestAddBatchEquivalence:
    """Chunking never shows, and neither does grouping at add time:
    ``add_batch``, one-record ``add`` calls and the sort-based
    reference agree on the counters, the partitions in use and every
    group — its representative key, its branches, its rows in arrival
    order."""

    def test_add_batch_matches_add_for_every_key_shape(self):
        for label, keys in KEY_SETS.items():
            for n_partitions in (1, 4, 8):
                rows = ROWS[: len(keys)]
                records, _, _, groups = differential(
                    [(0, keys, rows)], n_partitions
                )
                assert records == len(keys), label
                assert sum(len(bags[0]) for _, _, bags in groups) == len(keys), label

    def test_add_batch_matches_add_across_chunks_and_branches(self):
        # two branches interleaved across chunks: a join's map side
        left, right = ["a", "b", "a", None, "c"], ["b", "c", "a", "d", None]
        chunks = [
            (0, left[:2], ROWS[:2]),
            (1, right[:3], ROWS[:3]),
            (0, left[2:], ROWS[2:5]),
            (1, right[3:], ROWS[3:5]),
        ]
        for n_partitions in (1, 3, 8):
            _, _, _, groups = differential(chunks, n_partitions)
            by_key = {key: bags for _, key, bags in groups}
            # arrival order inside each bag, first-seen branch first
            assert by_key["'a'"] == {0: [ROWS[0], ROWS[2]], 1: [ROWS[2]]}
            assert list(by_key["'b'"]) == [0, 1]
            assert list(by_key["'d'"]) == [1]

    def test_single_partition_matches(self):
        _, _, used, groups = differential([(0, ["b", "a", "c", "a"], ROWS[:4])], 1)
        assert used == [0]
        assert [key for _, key, _ in groups] == ["'a'", "'b'", "'c'"]

    def test_one_one_true(self):
        """``1`` and ``1.0`` share a group wherever they share a
        partition — always with one partition — under the key seen
        first; ``True`` ranks apart and never joins them."""
        keys = [1.0, True, 1, 1.0]
        _, _, _, groups = differential([(0, keys, ROWS[:4])], 1)
        assert [(kind, key) for kind, key, _ in groups] == [
            ("bool", "True"),
            ("float", "1.0"),
        ]
        assert groups[1][2] == {0: [ROWS[0], ROWS[2], ROWS[3]]}
        for n_partitions in (2, 3, 5, 8):
            _, _, _, groups = differential([(0, keys, ROWS[:4])], n_partitions)
            apart = (zlib.crc32(b"1") - zlib.crc32(b"1.0")) % n_partitions != 0
            assert len(groups) == 2 + apart

    def test_two_distinct_nan_keys_share_a_group(self):
        """The one departure from the reference.  NaN compares unequal
        to itself, so the sort-and-scan reference makes a group of
        every *run of one NaN object* (tuple equality short-cuts on
        identity) wherever timsort leaves it under an inconsistent
        ``<`` — here three groups for two objects.  Grouping by
        ``(type, repr)`` puts every NaN key into one group under the
        first NaN seen, which is also what Pig's comparator does."""
        nan_a, nan_b = float("nan"), float("nan")
        keys, rows = [nan_a, nan_b, nan_a], ROWS[:3]
        buf = ShuffleBuffer(1)
        buf.add_batch(0, keys, rows)
        ((key, bags),) = list(buf.all_groups())
        assert key is nan_a and bags == {0: rows}
        oracle = SortBasedBuffer(1)
        for key, row in zip(keys, rows):
            oracle.add(key, 0, row)
        assert len(list(oracle.all_groups())) == 3
        assert (buf.records, buf.bytes) == (oracle.records, oracle.bytes)

    def test_empty_batch_registers_nothing(self):
        buf = ShuffleBuffer(n_partitions=2)
        buf.add_batch(0, [], [])
        assert observe(buf) == (0, 0, [], [])
        buf.add_batch(1, ["k"], [("row",)])
        assert [list(bags) for _, bags in buf.all_groups()] == [[1]]


class TestSerializedRowsSize:
    def test_columnar_sum_matches_per_row(self):
        from repro.relational.tuples import (
            Bag,
            serialized_row_size,
            serialized_rows_size,
        )

        cases = [
            [],
            [("a", 1, 0.5), ("bb", None, 2.25)],
            [(None, None, None)] * 3,
            [("x", True), ("y", False)],
            [("mixed", 1), ("types", 2.5)],
            [("bag", Bag([("i", 1)])), ("bag2", Bag([]))],
            [("short",), ("rows", "differ", "in", "width")],
            [("not-a-tuple")],  # a bare string "row"
        ]
        for rows in cases:
            want = sum(serialized_row_size(r) for r in rows)
            assert serialized_rows_size(rows) == want, rows


class Rank(IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    """A ``str`` subclass whose repr is not its text's."""

    def __repr__(self):
        return f"Tag({str.__repr__(self)})"


def rows_for(keys, tag):
    return [(tag, i) for i in range(len(keys))]


class TestRawKeyTable:
    """Chunks of exact ``str`` / ``int`` keys, or flat tuples of them,
    take the raw table; every other chunk the (type, repr) table.  A
    stream crossing between the two paths still groups as the
    sort-based reference does: a group keeps one row list, under the
    key seen first."""

    CROSS_PATH_STREAMS = {
        "int-then-equal-float": [[1, 2, 3, 1], [1.0, 2.0, 3.5, 1.0]],
        "float-then-equal-int": [[1.0, 2.0, 3.5, 1.0], [1, 2, 3, 1]],
        "str-then-str-with-none": [["a", "b", "a"], ["b", None, "a", None, "c"]],
        "str-with-none-then-str": [["b", None, "a"], ["a", "b", "d"]],
        "pairs-then-bool-and-float": [
            [("a", 1), ("b", 2), ("a", 1)],
            [("a", True), ("a", 1.0), ("b", 2), ("b", 2.5)],
        ],
        "bool-and-float-then-pairs": [
            [("a", True), ("a", 1.0), ("b", 2.5)],
            [("a", 1), ("b", 2), ("a", 1)],
        ],
        "isolated-nulls": [[("__null__", 1), ("__null__", 2), ("__null__", 3)]],
        "isolated-nulls-then-scalars": [
            [("__null__", 1), ("__null__", 2)],
            ["u1", ("__null__", 3), "u1"],
        ],
        "int-then-intenum": [[1, 2, 1], [Rank.LOW, Rank.HIGH, 2]],
        "intenum-then-int": [[Rank.LOW, Rank.HIGH], [1, 2, 2]],
        "str-then-str-subclass": [["a", "b"], [Tag("a"), "a", Tag("b")]],
        "mixed-str-and-int": [["1", 1, "a", 1], [1, "1"]],
    }

    def test_cross_path_streams_match_the_reference(self):
        for label, key_chunks in self.CROSS_PATH_STREAMS.items():
            for branches in ((0, 0), (0, 1)):
                chunks = [
                    (branches[i % 2], keys, rows_for(keys, i))
                    for i, keys in enumerate(key_chunks)
                ]
                for n_partitions in (1, 3, 8):
                    records, _, _, groups = differential(chunks, n_partitions)
                    assert records == sum(map(len, key_chunks)), label
                    assert groups, label

    def test_equal_int_and_float_share_one_row_list(self):
        """``1`` through the raw table, then ``1.0`` through the (type,
        repr) table, then ``1`` again: one group, one list, under ``1``."""
        buf = ShuffleBuffer(1)
        buf.add_batch(0, [1, 1], [("r0",), ("r1",)])
        buf.add_batch(0, [1.0, None], [("f0",), ("n0",)])
        buf.add_batch(0, [1], [("r2",)])
        buf.add_batch(0, [1.0, None], [("f1",), ("n1",)])
        groups = list(buf.all_groups())
        assert [(type(k), k) for k, _ in groups] == [(type(None), None), (int, 1)]
        rows = groups[1][1][0]
        assert rows == [("r0",), ("r1",), ("f0",), ("r2",), ("f1",)]
        assert buf._raw[0][1] is rows
        assert buf._slots[0][(float, "1.0")] is rows

    def test_a_key_met_first_in_a_mixed_chunk_keeps_its_row_list(self):
        buf = ShuffleBuffer(2)
        buf.add_batch(0, ["a", None], [("x",), ("y",)])
        assert not buf._raw[0]
        buf.add_batch(0, ["a", "a"], [("z",), ("w",)])
        (rows,) = [bags[0] for key, bags in buf.all_groups() if key == "a"]
        assert rows == [("x",), ("z",), ("w",)]
        assert buf._raw[0]["a"] is rows is buf._slots[0][(str, "'a'")]

    def test_only_exact_str_int_and_flat_tuples_of_them_qualify(self):
        raw = [
            ["a", "b"],
            [1, -2, 10**30],
            ["a", 1],
            [("a", 1), ("b", 2, "c")],
            [("__null__", 1)],
            [()],
        ]
        for keys in raw:
            assert _raw_keyable(keys), keys
        typed = [
            [1.0],
            [True],
            [None],
            ["a", None],
            [("a", None)],
            [("a", 1.5)],
            [("a", True)],
            [("a", ("b",))],
            [Rank.LOW],
            [Tag("a")],
            [("a", Rank.LOW)],
            ["a", ("a", 1)],
            [complex(1, 2)],
        ]
        for keys in typed:
            assert not _raw_keyable(keys), keys

    def test_uniform_streams_fill_the_raw_table(self):
        """Non-vacuity: the uniform chunks above really take the raw
        table, and the typed ones really do not."""
        for keys in (["b", "a", "b"], [3, 1, 3], [("a", 1), ("b", 2), ("a", 1)]):
            buf = ShuffleBuffer(4)
            buf.add_batch(0, keys, rows_for(keys, 0))
            assert len(buf._raw[0]) == len(set(keys)) == 2
            assert not buf._slots[0]
        for keys in ([1.5, 0.25], [Rank.LOW, Rank.HIGH], [Tag("a"), Tag("b")]):
            buf = ShuffleBuffer(4)
            buf.add_batch(0, keys, rows_for(keys, 0))
            assert not buf._raw[0]
            assert len(buf._slots[0]) == 2


raw_scalar = st.one_of(st.text(max_size=6), st.integers(-(2**70), 2**70))
raw_chunk = st.one_of(
    st.lists(raw_scalar, min_size=1, max_size=30),
    st.integers(0, 3).flatmap(
        lambda width: st.lists(
            st.tuples(*[raw_scalar] * width), min_size=1, max_size=30
        )
    ),
    st.lists(
        st.lists(raw_scalar, max_size=3).map(tuple), min_size=1, max_size=30
    ),
)


class TestRawKeyProperties:
    @given(raw_chunk, st.integers(1, 9))
    @settings(max_examples=150, deadline=None)
    def test_raw_sort_key_and_partition_are_the_documented_ones(
        self, keys, n_partitions
    ):
        """For every raw-keyable key the rank-table sort key is
        :func:`sort_key`, and the partition the group lands in is
        ``stable_hash(key) % n`` — the one partition function."""
        assert _raw_keyable(keys)
        assert _raw_sort_keys(keys) == list(map(sort_key, keys))
        buf = ShuffleBuffer(n_partitions)
        buf.add_batch(0, keys, rows_for(keys, 0))
        assert len(buf._raw[0]) == len(set(keys))
        for partition, groups in buf._groups.items():
            for decorated, (key, _) in groups.items():
                assert partition == stable_hash(key) % n_partitions
                assert decorated == sort_key(key)
        differential([(0, keys, rows_for(keys, 0))], n_partitions)
