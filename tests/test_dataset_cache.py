"""Unit tests for the DFS typed-dataset cache (the zero-copy data plane).

Covers: pinning on write, cache hits returning the pinned rows without
parsing, counter parity with the text path, generation-based
invalidation on append/delete/rename/overwrite, canonicality gating
(non-round-trippable rows are never pinned), schema-keyed slots and
lazy text materialization.
"""

import pytest

from repro.dfs.dataset import TypedDataset, canonical_ascii_size, rows_are_canonical
from repro.dfs.filesystem import DistributedFileSystem
from repro.relational.schema import FieldSchema, Schema
from repro.relational.tuples import Bag, serialize_rows
from repro.relational.types import DataType

SCHEMA = Schema.of(
    ("u", DataType.CHARARRAY), ("a", DataType.INT), ("r", DataType.DOUBLE)
)
ROWS = (("alice", 1, 0.5), ("bob", 2, 4.5), (None, None, None))


@pytest.fixture
def dfs():
    return DistributedFileSystem()


class TestWriteReadRows:
    def test_round_trip(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        assert dfs.read_rows("f", SCHEMA) == ROWS

    def test_cache_hit_returns_pinned_rows(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        first = dfs.read_rows("f", SCHEMA)
        second = dfs.read_rows("f", SCHEMA)
        assert first is second  # no re-parse, the pinned tuple itself

    def test_bytes_are_source_of_truth(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        assert dfs.read_file("f") == serialize_rows(ROWS).encode()

    def test_text_write_then_read_rows_fills_cache(self, dfs):
        dfs.write_file("f", serialize_rows(ROWS))
        first = dfs.read_rows("f", SCHEMA)
        second = dfs.read_rows("f", SCHEMA)
        assert first == ROWS
        assert first is second

    def test_schema_none_writes_plain_text(self, dfs):
        dfs.write_rows("f", ROWS)
        assert dfs.read_file("f") == serialize_rows(ROWS).encode()

    def test_empty_rows(self, dfs):
        dfs.write_rows("f", (), SCHEMA)
        assert dfs.read_file("f") == b""
        assert dfs.read_rows("f", SCHEMA) == ()


class TestCounterParity:
    """Every counter must move exactly as the text path moves it."""

    def _text_twin(self):
        twin = DistributedFileSystem()
        twin.write_file("f", serialize_rows(ROWS))
        return twin

    def test_write_counters_identical(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        twin = self._text_twin()
        assert dfs.bytes_written == twin.bytes_written
        assert dfs.file_size("f") == twin.file_size("f")

    def test_cached_read_counters_identical(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        twin = self._text_twin()
        dfs.read_rows("f", SCHEMA)  # cache hit: no bytes materialized
        twin.read_file("f")
        assert dfs.bytes_read == twin.bytes_read


class TestInvalidation:
    def test_append_invalidates(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        pinned = dfs.read_rows("f", SCHEMA)
        dfs.append("f", "carol\t3\t9.0\n")
        rows = dfs.read_rows("f", SCHEMA)
        assert rows is not pinned
        assert rows == ROWS + (("carol", 3, 9.0),)

    def test_overwrite_invalidates(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        dfs.write_rows("f", ROWS[:1], SCHEMA, overwrite=True)
        assert dfs.read_rows("f", SCHEMA) == ROWS[:1]

    def test_rename_invalidates(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        dfs.rename("f", "g")
        assert dfs.read_rows("g", SCHEMA) == ROWS

    def test_delete_then_rewrite(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        dfs.delete("f")
        dfs.write_file("f", "x\t7\t1.5\n")
        assert dfs.read_rows("f", SCHEMA) == (("x", 7, 1.5),)

    def test_generation_bumps(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        inode = dfs.namenode.lookup("f")
        generation = inode.generation
        dfs.append("f", "carol\t3\t9.0\n")
        assert inode.generation > generation
        assert inode.datasets == {}


class TestCanonicalityGate:
    def test_int_in_double_column_not_pinned(self, dfs):
        # 3 re-parses as 3.0: pinning would diverge from the text path
        dfs.write_rows("f", (("alice", 1, 3),), SCHEMA)
        assert dfs.read_rows("f", SCHEMA) == (("alice", 1, 3.0),)

    def test_empty_string_not_pinned(self, dfs):
        dfs.write_rows("f", (("", 1, 0.5),), SCHEMA)
        assert dfs.read_rows("f", SCHEMA) == ((None, 1, 0.5),)

    def test_tab_in_string_not_pinned(self, dfs):
        schema = Schema.of(
            ("x", DataType.CHARARRAY),
            ("y", DataType.CHARARRAY),
            ("z", DataType.CHARARRAY),
        )
        dfs.write_rows("f", (("a\tb", "x", "y"),), schema)
        # the embedded tab shifts field splitting; readers see the text truth
        assert dfs.read_rows("f", schema) == (("a", "b", "x"),)

    def test_bool_in_int_column_not_pinned(self, dfs):
        schema = Schema.of(("flag", DataType.INT))
        dfs.write_rows("f", ((True,),), schema)
        # "true" cannot parse as int: the reader sees the text truth
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError):
            dfs.read_rows("f", schema)

    def test_non_ascii_rows_still_pinned(self, dfs):
        rows = (("héllo", 1, 0.5),)
        dfs.write_rows("f", rows, SCHEMA)
        assert dfs.read_rows("f", SCHEMA) is dfs.read_rows("f", SCHEMA)
        assert dfs.read_file("f") == serialize_rows(rows).encode()
        assert dfs.file_size("f") == len(serialize_rows(rows).encode())

    def test_schema_mismatch_parses_under_that_schema(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        loose = Schema.of(("u", DataType.CHARARRAY), ("a", DataType.CHARARRAY))
        assert dfs.read_rows("f", loose)[0] == ("alice", "1")
        # the original pin survives alongside the new one
        assert dfs.read_rows("f", SCHEMA) == ROWS


class TestBagRows:
    INNER = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))
    GROUPED = Schema(
        (
            FieldSchema("group", DataType.CHARARRAY),
            FieldSchema("items", DataType.BAG, INNER),
        )
    )

    def test_bag_rows_pinned_and_round_trip(self, dfs):
        rows = (
            ("a", Bag([("x", 1.5), ("y", 2.5)])),
            ("b", Bag([])),
            ("c", None),
        )
        dfs.write_rows("f", rows, self.GROUPED)
        assert dfs.read_rows("f", self.GROUPED) is dfs.read_rows("f", self.GROUPED)
        # the text path sees exactly the same data
        from repro.relational.tuples import deserialize_rows

        assert tuple(deserialize_rows(dfs.read_text("f"), self.GROUPED)) == rows

    def test_write_rows_snapshots_bags_at_call_time(self, dfs):
        """Mutating a Bag after write_rows returns must not corrupt
        the deferred serialization or the pinned dataset — write_file
        snapshotted bytes at call time, write_rows must match."""
        bag = Bag([("x", 1.0)])
        dfs.write_rows("f", (("k", bag),), self.GROUPED)
        expected = serialize_rows((("k", Bag([("x", 1.0)])),))
        bag.append(("y", 2.0))
        assert dfs.read_rows("f", self.GROUPED) == (("k", Bag([("x", 1.0)])),)
        assert dfs.read_file("f") == expected.encode()
        assert dfs.file_size("f") == len(expected.encode())

    def test_bag_with_comma_string_not_pinned(self, dfs):
        from repro.exceptions import SchemaError

        rows = (("a", Bag([("x,y", 1.5)])),)
        assert not rows_are_canonical(rows, self.GROUPED)
        dfs.write_rows("f", rows, self.GROUPED)
        # the comma shifts the nested split on re-parse; readers must
        # see the text truth (here: a field that no longer casts)
        with pytest.raises(SchemaError):
            dfs.read_rows("f", self.GROUPED)


class TestLazyMaterialization:
    def test_payload_stays_unmaterialized_until_byte_read(self, dfs):
        dfs.write_rows("f", ROWS, SCHEMA)
        (payload,) = dfs.namenode.lookup("f").segments
        assert not payload.materialized
        dfs.read_rows("f", SCHEMA)  # cache hit: still no bytes
        assert not payload.materialized
        dfs.read_file("f")  # a genuine byte read builds the text
        assert payload.materialized


class TestCanonicalHelpers:
    def test_size_matches_encoded_text(self):
        rows = (("alice", 1, 0.5), (None, None, None), ("bob", -3, 2.25))
        size = canonical_ascii_size(rows, SCHEMA)
        assert size == len(serialize_rows(rows).encode())

    def test_size_none_for_non_ascii(self):
        assert canonical_ascii_size((("héllo", 1, 0.5),), SCHEMA) is None

    def test_size_none_for_non_canonical(self):
        assert canonical_ascii_size((("a", 1, 3),), SCHEMA) is None

    def test_canonical_accepts_round_trippable(self):
        assert rows_are_canonical(ROWS, SCHEMA)

    def test_canonical_rejects_nan(self):
        assert not rows_are_canonical((("a", 1, float("nan")),), SCHEMA)

    def test_dataset_repr(self):
        dataset = TypedDataset(ROWS, SCHEMA.fingerprint(), 0)
        assert "rows=3" in repr(dataset)
        assert len(dataset) == 3


class TestColumnarSizerParity:
    """A value ``str.strip()`` would change never pins inside a bag —
    the ASCII separator characters \\x1c-\\x1f included, which are
    whitespace to it."""

    def test_write_rows_never_pins_divergent_strip_unstable_bags(self):
        from repro.dfs.filesystem import DistributedFileSystem
        from repro.relational.schema import Schema
        from repro.relational.types import DataType
        from repro.relational.tuples import Bag, deserialize_rows

        inner = Schema.of(("s", DataType.CHARARRAY))
        schema = Schema.of(
            ("g", DataType.CHARARRAY), ("b", DataType.BAG, inner)
        )
        rows = [(f"u{i}", Bag([("a\x1c",)])) for i in range(70)]
        dfs = DistributedFileSystem()
        dfs.write_rows("f", rows, schema)
        cached = dfs.read_rows("f", schema)
        reparsed = deserialize_rows(dfs.read_text("f"), schema)
        assert list(cached) == reparsed  # cached and text reads agree
