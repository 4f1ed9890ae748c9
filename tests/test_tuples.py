"""Unit tests for repro.relational.tuples (rows, bags, PigStorage)."""

from repro.relational.schema import FieldSchema, Schema
from repro.relational.tuples import (
    Bag,
    deserialize_row,
    deserialize_rows,
    serialize_row,
    serialize_rows,
)
from repro.relational.types import DataType


class TestBag:
    def test_append_and_len(self):
        bag = Bag()
        bag.append(("a", 1))
        bag.append(("b", 2))
        assert len(bag) == 2

    def test_iteration_order_preserved(self):
        bag = Bag([("b",), ("a",)])
        assert list(bag) == [("b",), ("a",)]

    def test_project(self):
        bag = Bag([("a", 1), ("b", 2)])
        assert bag.project(1) == [1, 2]

    def test_equality_with_list(self):
        assert Bag([("a",)]) == [("a",)]

    def test_equality_with_bag(self):
        assert Bag([("a",)]) == Bag([("a",)])

    def test_repr_truncates(self):
        bag = Bag([(i,) for i in range(10)])
        assert "n=10" in repr(bag)


class TestSerializeRow:
    def test_simple(self):
        assert serialize_row(("a", 1, 2.5)) == "a\t1\t2.5"

    def test_none_fields(self):
        assert serialize_row(("a", None, "b")) == "a\t\tb"

    def test_bag_field(self):
        row = ("k", Bag([("a", 1), ("b", 2)]))
        assert serialize_row(row) == "k\t{(a,1),(b,2)}"

    def test_empty_bag(self):
        assert serialize_row(("k", Bag())) == "k\t{}"


class TestDeserializeRow:
    def test_typed_fields(self):
        schema = Schema.of(
            ("user", DataType.CHARARRAY),
            ("n", DataType.INT),
            ("rev", DataType.DOUBLE),
        )
        assert deserialize_row("bob\t3\t1.5", schema) == ("bob", 3, 1.5)

    def test_missing_trailing_fields_are_null(self):
        schema = Schema.of(("a", DataType.CHARARRAY), ("b", DataType.INT))
        assert deserialize_row("x", schema) == ("x", None)

    def test_empty_field_is_null(self):
        schema = Schema.of(("a", DataType.CHARARRAY), ("b", DataType.INT))
        assert deserialize_row("x\t", schema) == ("x", None)

    def test_bag_field_with_inner_schema(self):
        inner = Schema.of(("name", DataType.CHARARRAY), ("n", DataType.INT))
        schema = Schema(
            (
                FieldSchema("group", DataType.CHARARRAY),
                FieldSchema("items", DataType.BAG, inner),
            )
        )
        row = deserialize_row("g\t{(a,1),(b,2)}", schema)
        assert row[0] == "g"
        assert isinstance(row[1], Bag)
        assert list(row[1]) == [("a", 1), ("b", 2)]


class TestRoundTrip:
    def test_rows_round_trip(self):
        schema = Schema.of(("a", DataType.CHARARRAY), ("n", DataType.INT))
        rows = [("x", 1), ("y", 2), ("z", None)]
        text = serialize_rows(rows)
        assert deserialize_rows(text, schema) == rows

    def test_empty_rows(self):
        assert serialize_rows([]) == ""
        assert deserialize_rows("", Schema.of("a")) == []

    def test_grouped_round_trip(self):
        """The repository stores grouped (bag-valued) outputs; they must
        survive a store/load cycle — this is what lets ReStore reuse
        Group outputs (paper Figure 4)."""
        inner = Schema.of(("u", DataType.CHARARRAY), ("r", DataType.DOUBLE))
        schema = Schema(
            (
                FieldSchema("group", DataType.CHARARRAY),
                FieldSchema("vals", DataType.BAG, inner),
            )
        )
        rows = [
            ("a", Bag([("a", 1.5), ("a", 2.5)])),
            ("b", Bag([("b", 4.0)])),
        ]
        text = serialize_rows(rows)
        restored = deserialize_rows(text, schema)
        assert restored[0][0] == "a"
        assert list(restored[0][1]) == [("a", 1.5), ("a", 2.5)]
        assert list(restored[1][1]) == [("b", 4.0)]


class TestRetypeRowsTypedPassThrough:
    """_retype_rows must not round-trip already-typed values through
    ``str`` — an int in a double-typed field would silently become a
    float, and a string that looks numeric would change type."""

    def test_typed_values_pass_through_unchanged(self):
        from repro.relational.tuples import _retype_rows

        inner = Schema.of(("n", DataType.DOUBLE), ("s", DataType.CHARARRAY))
        typed = _retype_rows([(3, "07")], inner)
        assert typed == [(3, "07")]
        assert type(typed[0][0]) is int  # not coerced to 3.0

    def test_string_values_still_parse(self):
        from repro.relational.tuples import _retype_rows

        inner = Schema.of(("n", DataType.DOUBLE), ("m", DataType.INT))
        assert _retype_rows([("3.5", "4")], inner) == [(3.5, 4)]

    def test_bag_of_typed_rows_survives_deserialize_helpers(self):
        inner = Schema.of(("n", DataType.INT), ("r", DataType.DOUBLE))
        schema = Schema(
            (
                FieldSchema("g", DataType.CHARARRAY),
                FieldSchema("items", DataType.BAG, inner),
            )
        )
        row = ("k", Bag([(1, 2.5), (None, 0.5)]))
        restored = deserialize_row(serialize_row(row), schema)
        assert restored == row
        assert [type(v) for v in list(restored[1])[0]] == [int, float]


class TestSerializedRowSize:
    CASES = [
        (),
        ("a",),
        (None,),
        ("alice", 1, 0.5),
        (None, None, None),
        ("k", Bag([("a", 1), ("b", 2.5), (None, None)])),
        ("k", Bag([])),
        (True, False),
        (-17, 10**12, 1e-7),
        ((1, "x"), [("y", 2)], "tail"),
        ("héllo", 1),
        # a Bag nested inside a tuple field falls through format_value
        # to str(); the sizer must track even that rendering exactly
        (("k", Bag([("a", 1)])), 2),
        ([("a", Bag([("b",)]))],),
    ]

    def test_matches_serialize_row_length(self):
        from repro.relational.tuples import serialized_row_size

        for row in self.CASES:
            assert serialized_row_size(row) == len(serialize_row(row)), row

    def test_canonical_ascii_size_matches_encoded_bytes(self):
        from repro.dfs.dataset import canonical_ascii_size
        from repro.relational.schema import Schema
        from repro.relational.types import DataType

        schema = Schema.of(
            ("u", DataType.CHARARRAY), ("n", DataType.INT), ("r", DataType.DOUBLE)
        )
        rows = (("alice", 1, 0.5), (None, None, None), ("bob", -3, 2.25))
        size = canonical_ascii_size(rows, schema)
        assert size == len(serialize_rows(rows).encode())
        assert canonical_ascii_size((), schema) == 0

    def test_canonical_ascii_size_refuses_non_ascii(self):
        from repro.dfs.dataset import canonical_ascii_size
        from repro.relational.schema import Schema
        from repro.relational.types import DataType

        schema = Schema.of(("u", DataType.CHARARRAY), ("n", DataType.INT))
        assert canonical_ascii_size((("héllo", 1),), schema) is None


class TestColumnParser:
    """``deserialize_rows`` parses a column at a time; the semantics a
    shortcut would be tempted to drop are pinned here by hand, and
    against ``deserialize_row`` by Hypothesis (test_properties.py)."""

    SCHEMA = Schema.of(
        ("u", DataType.CHARARRAY), ("n", DataType.INT), ("d", DataType.DOUBLE)
    )

    def test_float_text_in_an_int_column_narrows(self):
        rows = deserialize_rows("a\t3.0\t1\nb\t4\t2.5\n", self.SCHEMA)
        assert rows == [("a", 3, 1.0), ("b", 4, 2.5)]
        assert [type(v) for v in rows[0]] == [str, int, float]

    def test_empty_field_is_null_in_every_column_type(self):
        schema = Schema.of(
            ("s", "chararray"), ("n", "int"), ("l", "long"), ("d", "double"),
            ("f", "float"), ("b", "boolean"), ("y", "bytearray"),
            ("t", "tuple"), ("g", "bag"),
        )
        text = "\t" * 8 + "\n" + "s\t1\t2\t0.5\t1.5\ttrue\ty\t(a)\t{(a)}\n"
        first, second = deserialize_rows(text, schema)
        assert first == (None,) * 9
        assert second == ("s", 1, 2, 0.5, 1.5, True, "y", ("a",), [("a",)])

    def test_short_rows_pad_and_long_rows_drop_extras(self):
        text = "a\nb\t2\t2.5\textra\tmore\n\nc\t3\n"
        assert deserialize_rows(text, self.SCHEMA) == [
            ("a", None, None),
            ("b", 2, 2.5),
            (None, None, None),
            ("c", 3, None),
        ]

    def test_malformed_number_names_line_and_field(self):
        import pytest

        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError) as raised:
            deserialize_rows("a\t1\nb\tx\nc\t3\n", Schema.of("u", ("n", "int")))
        # no path at this level: line (1-based) and schema field only
        assert str(raised.value) == "line 2 field n (int): cannot cast 'x'"
        with pytest.raises(SchemaError, match=r"line 1 field d \(double\)"):
            deserialize_rows("a\t1\t1,5\n", self.SCHEMA)
        with pytest.raises(SchemaError, match=r"line 3 field g \(bag\)"):
            deserialize_rows("{}\n\n{(a\n", Schema.of(("g", "bag")))
