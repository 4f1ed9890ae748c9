"""Property-based tests (hypothesis) for core data structures and
system invariants."""

import zlib
from collections import Counter
from functools import partial
from itertools import cycle, islice

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.matcher import PlanMatcher
from repro.dfs.filesystem import DistributedFileSystem
from repro.exceptions import FileAlreadyExists, FileNotFoundInDFS, SchemaError
from repro.mapreduce.shuffle import ShuffleBuffer, sort_key, stable_hash
from repro.pig.physical.operators import (
    POFilter,
    POForEach,
    POLoad,
    POStore,
)
from repro.pig.physical.plan import PhysicalPlan, linear_plan
from repro.relational.expressions import BinaryOp, Column, Const
from repro.relational.schema import FieldSchema, Schema
from repro.relational.tuples import (
    Bag,
    deserialize_row,
    deserialize_rows,
    iter_data_lines,
    serialize_row,
    serialize_rows,
    serialized_rows_size,
)
from repro.relational.types import DataType

# -- strategies ----------------------------------------------------------------------

field_text = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"), max_codepoint=0x7F
    ),
    max_size=12,
)

scalar_value = st.one_of(
    st.none(),
    st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    field_text,
)

key_value = st.one_of(
    st.none(),
    st.integers(min_value=-1000, max_value=1000),
    field_text,
    st.tuples(st.integers(min_value=0, max_value=9), field_text),
)


def typed_rows_strategy():
    """(schema, rows) pairs where rows conform to the schema."""
    dtype_strategy = st.sampled_from(
        [DataType.INT, DataType.DOUBLE, DataType.CHARARRAY]
    )

    def rows_for(dtypes):
        generators = []
        for dtype in dtypes:
            if dtype is DataType.INT:
                generators.append(
                    st.one_of(st.none(), st.integers(-(10 ** 6), 10 ** 6))
                )
            elif dtype is DataType.DOUBLE:
                generators.append(
                    st.one_of(
                        st.none(),
                        st.floats(
                            allow_nan=False, allow_infinity=False, width=32
                        ),
                    )
                )
            else:
                # PigStorage text cannot hold tabs/newlines in a field
                generators.append(
                    st.one_of(
                        st.none(),
                        field_text.filter(lambda s: s != ""),
                    )
                )
        schema = Schema(
            tuple(
                FieldSchema(f"f{i}", dtype) for i, dtype in enumerate(dtypes)
            )
        )
        return st.tuples(
            st.just(schema),
            st.lists(st.tuples(*generators), max_size=30),
        )

    return st.lists(dtype_strategy, min_size=1, max_size=5).flatmap(rows_for)


# -- serialization round trips ------------------------------------------------------------


# -- the cold parser against its per-line reference -------------------------------

#: field texts that probe each type's parsing edges: empty fields,
#: float-looking ints, signs, underscores, padding, exponents,
#: non-finite doubles, every boolean spelling, malformed numerics and
#: malformed nested text
_FIELD_TEXTS = {
    DataType.INT: ["3", "-0", "+5", "1_0", " 7", "7 ", "3.0", "-2.5", "1e3", "",
                   "x", "0x10", ".", "007", "12345678901234567890", "nan"],
    DataType.DOUBLE: ["1.5", "nan", "inf", "-inf", "1e-3", "", "x", "3", " 2.5",
                      "1_0.5", "1e999", "--1", "-0.0"],
    DataType.CHARARRAY: ["", "a", " ", "x y", "3", "3.0", "true"],
    DataType.BOOLEAN: ["TRUE", "true", "1", "no", "", " true ", "0", "yes", "False"],
    DataType.TUPLE: ["(a,1)", "()", "", "(a,(b,c))", "bad", "(open", "({(x)},y)",
                     "(a,)", "(a,b,c)", "(x,notanint)", "(,)", "(3.0,true)"],
    DataType.BAG: ["{(a,1),(b,2)}", "{}", "", "{(a,x)}", "bad", "{(a)}",
                   "{(1,2,3)}", "{(a,1),bad}", "{(,)}", "{(true,3.0)}"],
}
_FIELD_TEXTS[DataType.LONG] = _FIELD_TEXTS[DataType.INT]
_FIELD_TEXTS[DataType.FLOAT] = _FIELD_TEXTS[DataType.DOUBLE]
_FIELD_TEXTS[DataType.BYTEARRAY] = _FIELD_TEXTS[DataType.CHARARRAY]

#: no "e": an exponent could overflow ``int(float(...))`` into an
#: OverflowError, which is not this property's subject
_stray_text = st.text(alphabet="abnz ._-+01(){},", max_size=6)

_SCALAR_TYPES = [t for t in DataType if not t.is_nested]


@st.composite
def schema_and_text(draw):
    """(schema over every DataType, PigStorage text that fits it badly)."""
    dtypes = draw(st.lists(st.sampled_from(list(DataType)), max_size=5))
    fields = []
    for index, dtype in enumerate(dtypes):
        inner = None
        if dtype.is_nested and draw(st.booleans()):
            inner_types = draw(
                st.lists(st.sampled_from(_SCALAR_TYPES + [DataType.TUPLE]), max_size=3)
            )
            inner = Schema(
                tuple(FieldSchema(f"i{n}", t) for n, t in enumerate(inner_types))
            )
        fields.append(FieldSchema(f"f{index}", dtype, inner))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        # short rows, exact rows, rows with extra fields, all-empty lines
        width = max(0, len(dtypes) + draw(st.integers(-2, 2)))
        parts = []
        for index in range(width):
            pool = _FIELD_TEXTS[dtypes[index]] if index < len(dtypes) else ["", "z"]
            parts.append(draw(st.one_of(st.sampled_from(pool), _stray_text)))
        lines.append("\t".join(parts))
    text = "\n".join(lines)
    if lines and draw(st.booleans()):
        text += "\n"
    return Schema(tuple(fields)), text


#: a multi-key GROUP's key column: tuple(k: chararray, n: int)
_KEYED = Schema(
    (FieldSchema("g", DataType.TUPLE, Schema.of(("k", "chararray"), ("n", "int"))),)
)


def _typed(value):
    """A value with its type made part of equality: ``3`` / ``3.0`` /
    ``True`` differ, and NaN (compared by repr) equals NaN."""
    if isinstance(value, Bag):
        return ("Bag", [_typed(row) for row in value.rows])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, [_typed(v) for v in value])
    return (type(value).__name__, repr(value))


def _parse_or_error(parse):
    try:
        return [_typed(row) for row in parse()]
    except SchemaError:
        return SchemaError


class TestSerializationProperties:
    @given(typed_rows_strategy())
    @settings(max_examples=60, deadline=None)
    def test_pigstorage_round_trip(self, schema_rows):
        """serialize . deserialize == identity for typed rows (the
        invariant every stored repository output relies on)."""
        schema, rows = schema_rows
        text = serialize_rows(rows)
        restored = deserialize_rows(text, schema)
        assert restored == rows

    @given(schema_and_text())
    @settings(max_examples=400, deadline=None)
    @example((Schema(()), "\n\n"))
    @example((Schema.of(("n", "int")), ""))
    @example((Schema.of(("n", "int"), ("d", "double")), "3.0\tnan\n\n1_0\n"))
    @example((Schema.of(("n", "int"), ("b", "boolean")), "1\t1\n+5\tTRUE\tx\n"))
    @example((_KEYED, "(a,)\n()\n(a,b,c)\n"))
    @example((_KEYED, "(a,1)\n(x,notanint)\n"))
    def test_column_parser_equals_per_line_reference(self, schema_text):
        """``deserialize_rows`` is ``deserialize_row`` per line, value
        for value and type for type, and raises ``SchemaError``
        exactly when the reference does."""
        schema, text = schema_text
        want = _parse_or_error(
            lambda: [deserialize_row(line, schema) for line in iter_data_lines(text)]
        )
        assert _parse_or_error(lambda: deserialize_rows(text, schema)) == want

    def test_tuple_elements_are_typed_squared_and_named_in_errors(self):
        assert deserialize_rows("(a,)\n()\n(a,1,c)\n(b,3.0)\n", _KEYED) == [
            (("a", None),), ((None, None),), (("a", 1),), (("b", 3),)
        ]
        with pytest.raises(SchemaError, match=r"line 2 field g \(tuple\).*notanint"):
            deserialize_rows("(a,1)\n(x,notanint)\n", _KEYED)

    def test_zero_field_schema_and_empty_file(self):
        assert deserialize_rows("", Schema.of("a", ("n", "int"))) == []
        assert deserialize_rows("", Schema(())) == []
        assert deserialize_rows("a\tb\n\nc\n", Schema(())) == [(), (), ()]


class TestShuffleProperties:
    @given(st.lists(st.tuples(key_value, st.integers(0, 3)), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_grouping_partitions_records(self, records):
        """Every record lands in exactly one group of its own key."""
        buf = ShuffleBuffer(n_partitions=4)
        for key, branch in records:
            buf.add(key, branch, (key,))
        total = sum(
            len(rows)
            for _, bags in buf.all_groups()
            for rows in bags.values()
        )
        assert total == len(records)

    @given(st.lists(key_value, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_group_keys_unique(self, keys):
        buf = ShuffleBuffer(n_partitions=4)
        for key in keys:
            buf.add(key, 0, (key,))
        seen = [sort_key(k) for k, _ in buf.all_groups()]
        assert len(seen) == len(set(seen))

    @given(key_value)
    @settings(max_examples=100, deadline=None)
    def test_stable_hash_total(self, key):
        assert isinstance(stable_hash(key), int)
        assert stable_hash(key) == stable_hash(key)

    @given(st.lists(key_value, min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_sort_key_is_total_order(self, keys):
        ordered = sorted(keys, key=sort_key)
        # sorting again is a no-op (transitivity sanity)
        assert sorted(ordered, key=sort_key) == ordered


# -- the DFS against a plain-Python model ---------------------------------------------------

MODEL_SCHEMA = Schema.of(("k", DataType.CHARARRAY), ("n", DataType.INT))

model_path = st.sampled_from(["a", "b", "c"])
#: typed rows; "é" is not ASCII, so its text is rendered at write time
model_rows = st.lists(
    st.tuples(st.sampled_from(["x", "yy", "é"]), st.integers(0, 99)), max_size=4
)
#: text lines; "07" parses to 7, which renders back as "7" — a dataset
#: parsed from such text is not its file's serialization
model_lines = st.lists(
    st.tuples(st.sampled_from(["x", "yy"]), st.sampled_from(["7", "07", "42"])),
    max_size=4,
)
model_offset = st.integers(0, 40)

dfs_operation = st.one_of(
    st.tuples(st.just("write_file"), model_path, model_lines, st.booleans()),
    st.tuples(st.just("write_rows"), model_path, model_rows, st.booleans()),
    st.tuples(st.just("append"), model_path, model_lines),
    st.tuples(st.just("copy"), model_path, model_path),
    st.tuples(st.just("delete"), model_path),
    st.tuples(st.just("read_file"), model_path),
    st.tuples(st.just("read_range"), model_path, model_offset, model_offset),
    st.tuples(st.just("read_rows"), model_path, st.just(MODEL_SCHEMA)),
    st.tuples(st.just("prefix_crc32"), model_path, st.none() | model_offset),
)


def _text(rows) -> bytes:
    return "".join(f"{k}\t{n}\n" for k, n in rows).encode()


class _ModelFile:
    """Everything a caller can observe of one file.

    ``pieces`` holds one ``(bytes, state)`` pair per write/append;
    ``state["deferred"]`` is True while the piece is a typed write
    whose text nobody has byte-read yet (copies share the state).
    """

    def __init__(self, data: bytes, rows, typed: bool, state=None):
        if state is None:
            state = {"deferred": typed and data.isascii()}
        self.pieces = [(data, state)]
        self.rows = list(rows)
        #: the bytes are exactly the pinned rows' serialization
        self.exact = typed
        #: a read_rows would be served from the pinned dataset
        self.pinned = typed
        #: leading bytes whose parse is held (pinned, or left behind by
        #: an append): a read_rows byte-reads only what follows them
        self.covered = len(data) if typed else 0

    @property
    def data(self) -> bytes:
        return b"".join(data for data, _ in self.pieces)

    def byte_read(self, start: int, end: int) -> bytes:
        offset = 0
        for data, state in self.pieces:
            if max(offset, start) < min(offset + len(data), end):
                state["deferred"] = False
            offset += len(data)
        return self.data[start:end]

    def deferred_before(self, end: int) -> bool:
        offset = 0
        for data, state in self.pieces:
            if data and offset < end and state["deferred"]:
                return True
            offset += len(data)
        return False


class _ModelDFS:
    """dict[path, file] plus the two logical byte counters."""

    def __init__(self):
        self.files = {}
        self.bytes_read = 0
        self.bytes_written = 0
        self.clones = 0

    def read_rows(self, path):
        file = self.files[path]
        if not file.pinned:
            file.byte_read(file.covered, len(file.data))
            file.pinned = True
            file.covered = len(file.data)
        self.bytes_read += len(file.data)
        return tuple(file.rows)


def _apply(dfs: DistributedFileSystem, model: _ModelDFS, op) -> None:
    kind, path, *args = op
    file = model.files.get(path)
    if kind in ("write_file", "write_rows"):
        rows, overwrite = args
        typed = kind == "write_rows"
        if typed:
            write = partial(dfs.write_rows, path, rows, MODEL_SCHEMA, overwrite)
        else:
            write = partial(dfs.write_file, path, _text(rows), overwrite)
        if file is not None and not overwrite:
            with pytest.raises(FileAlreadyExists):
                write()
            return
        data = _text(rows)
        assert write().size == len(data)
        parsed = [(k, int(n)) for k, n in rows]
        model.files[path] = _ModelFile(data, parsed, typed)
        model.bytes_written += len(data)
    elif kind == "append":
        data = _text(args[0])
        dfs.append(path, data)
        parsed = [(k, int(n)) for k, n in args[0]]
        if file is None:
            model.files[path] = _ModelFile(data, parsed, typed=False)
        else:
            file.pieces.append((data, {"deferred": False}))
            file.rows += parsed
            file.exact = file.pinned = False
        model.bytes_written += len(data)
    elif kind == "copy":
        (dst,) = args
        if file is None:
            with pytest.raises(FileNotFoundInDFS):
                dfs.read_rows(path, MODEL_SCHEMA)
            return
        rows = dfs.read_rows(path, MODEL_SCHEMA)
        assert rows == model.read_rows(path)
        dfs.write_rows(dst, rows, MODEL_SCHEMA, overwrite=True, source=path)
        if file.exact:
            # the copy shares the source's payload, still-deferred or not
            data, state = file.pieces[0]
            model.files[dst] = _ModelFile(data, rows, True, state)
            model.clones += 1
        else:
            model.files[dst] = _ModelFile(_text(rows), rows, True)
        model.bytes_written += len(model.files[dst].data)
    elif kind == "prefix_crc32":
        (size,) = args
        if file is None:
            assert dfs.prefix_crc32(path, size) is None
            return
        end = len(file.data) if size is None else min(size, len(file.data))
        want = None if file.deferred_before(end) else zlib.crc32(file.data[:end])
        assert dfs.prefix_crc32(path, size) == want
    elif file is None:
        with pytest.raises(FileNotFoundInDFS):
            getattr(dfs, kind)(path, *args)
    elif kind == "delete":
        dfs.delete(path)
        del model.files[path]
    elif kind == "read_file":
        want = file.byte_read(0, len(file.data))
        assert dfs.read_file(path) == want
        model.bytes_read += len(want)
    elif kind == "read_range":
        start, end = args
        want = file.byte_read(start, min(end, len(file.data)))
        assert dfs.read_range(path, start, end) == want
        model.bytes_read += len(want)
    else:
        assert kind == "read_rows"
        assert dfs.read_rows(path, *args) == model.read_rows(path)


class TestDFSProperties:
    @given(st.lists(dfs_operation, max_size=30))
    # an empty typed write holds no byte a later prefix could defer on
    @example(
        [
            ("write_rows", "a", [], False),
            ("append", "a", [("x", "7")]),
            ("prefix_crc32", "a", None),
        ]
    )
    # an empty range reads nothing, so it renders nothing either
    @example(
        [
            ("write_rows", "a", [("x", 1), ("yy", 2)], False),
            ("read_range", "a", 3, 3),
            ("prefix_crc32", "a", 2),
        ]
    )
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_operation_sequences_match_a_dict_model(self, operations):
        """Results, namespace, sizes, the byte counters, payload
        sharing and prefix_crc32's refusal to force a deferred write
        all follow the model after every step — whatever the segment
        layout the sequence produced."""
        dfs, model = DistributedFileSystem(), _ModelDFS()
        for op in operations:
            _apply(dfs, model, op)
            assert dfs.list_paths() == sorted(model.files)
            for path, file in model.files.items():
                assert dfs.file_size(path) == len(file.data)
            assert dfs.bytes_read == model.bytes_read
            assert dfs.bytes_written == model.bytes_written
            assert dfs.payload_clones == model.clones
        for path, file in model.files.items():
            assert dfs.read_file(path) == file.data


# -- matcher properties --------------------------------------------------------------------


def random_linear_plan(draw_ops, path):
    schema = Schema.of(("a", DataType.INT), ("b", DataType.INT))
    ops = [POLoad(path, schema)]
    for kind, param in draw_ops:
        if kind == "filter":
            ops.append(
                POFilter(BinaryOp(">", Column(0), Const(param)), schema=schema)
            )
        else:
            ops.append(
                POForEach(
                    [Column(param % 2), Column((param + 1) % 2)],
                    [False, False],
                    ["x", "y"],
                    schema=schema,
                )
            )
    ops.append(POStore("out", schema))
    return linear_plan(*ops)


op_spec = st.tuples(
    st.sampled_from(["filter", "project"]), st.integers(0, 3)
)


class TestMatcherProperties:
    @given(st.lists(op_spec, max_size=5), st.sampled_from(["p1", "p2"]))
    @settings(max_examples=60, deadline=None)
    def test_reflexive_containment(self, specs, path):
        """Every plan is contained in itself (Algorithm 1 sanity)."""
        plan_a = random_linear_plan(specs, path)
        plan_b = random_linear_plan(specs, path)
        result = PlanMatcher().match(plan_a, plan_b)
        assert result is not None
        assert result.whole_job

    @given(st.lists(op_spec, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_prefix_containment(self, specs):
        """Any prefix of a pipeline is contained in the full pipeline."""
        full = random_linear_plan(specs, "p")
        for cut in range(len(specs)):
            prefix = random_linear_plan(specs[: cut + 1], "p")
            assert PlanMatcher().match(full, prefix) is not None

    @given(st.lists(op_spec, max_size=4), st.lists(op_spec, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_containment_requires_signature_prefix(self, specs_a, specs_b):
        """match(A, B) implies B's pipeline is a prefix of A's."""
        plan_a = random_linear_plan(specs_a, "p")
        plan_b = random_linear_plan(specs_b, "p")
        result = PlanMatcher().match(plan_a, plan_b)
        is_prefix = specs_b == specs_a[: len(specs_b)]
        if is_prefix:
            assert result is not None
        if result is not None and not is_prefix:
            # a match without prefix equality can only happen when the
            # differing suffix produces identical signatures
            assert len(specs_b) <= len(specs_a)

    @given(st.lists(op_spec, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_plan_fingerprint_deterministic(self, specs):
        a = random_linear_plan(specs, "p")
        b = random_linear_plan(specs, "p")
        assert a.fingerprint() == b.fingerprint()

    @given(st.lists(op_spec, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_serialization_preserves_fingerprint(self, specs):
        plan = random_linear_plan(specs, "p")
        assert (
            PhysicalPlan.from_dict(plan.to_dict()).fingerprint()
            == plan.fingerprint()
        )


# -- zero-copy data plane round trips -----------------------------------------------------


nested_safe_text = field_text.filter(lambda s: s != "")

canonical_float = st.floats(allow_nan=False, allow_infinity=False, width=32)


_PLANE_SCALARS = [DataType.INT, DataType.DOUBLE, DataType.CHARARRAY, DataType.BOOLEAN]


def _canonical_value(dtype):
    if dtype is DataType.INT:
        return st.one_of(st.none(), st.integers(-(10**6), 10**6))
    if dtype is DataType.DOUBLE:
        return st.one_of(st.none(), canonical_float)
    if dtype is DataType.BOOLEAN:
        return st.one_of(st.none(), st.booleans())
    return st.one_of(st.none(), nested_safe_text)


def canonical_rows_strategy():
    """(schema, rows) pairs with nested bag and tuple fields where rows
    are *canonical*: they survive a PigStorage round trip unchanged
    (the contract the typed-dataset cache pins rows under)."""

    def build(spec):
        fields = []
        generators = []
        for i, dtype in enumerate(spec):
            if dtype in ("bag", "bag1", "tuple"):
                # a bag of (chararray, int, double) rows, a bag of
                # one-field rows, a tuple of 1-4 scalar fields
                inner_types = {
                    "bag": _PLANE_SCALARS[2::-1],
                    "bag1": [DataType.CHARARRAY],
                    "tuple": _PLANE_SCALARS[: i + 1],
                }[dtype]
                inner = Schema(
                    tuple(
                        FieldSchema(f"b{i}_{j}", t)
                        for j, t in enumerate(inner_types)
                    )
                )
                inner_row = st.tuples(*[_canonical_value(t) for t in inner_types])
                if dtype == "tuple":
                    fields.append(FieldSchema(f"f{i}", DataType.TUPLE, inner))
                    generators.append(st.one_of(st.none(), inner_row))
                    continue
                fields.append(FieldSchema(f"f{i}", DataType.BAG, inner))
                generators.append(
                    st.one_of(
                        st.none(),
                        st.lists(inner_row, max_size=5).map(Bag),
                    )
                )
            else:
                fields.append(FieldSchema(f"f{i}", dtype))
                generators.append(_canonical_value(dtype))
        schema = Schema(tuple(fields))
        return st.tuples(
            st.just(schema),
            st.lists(st.tuples(*generators), max_size=20),
        )

    spec = st.lists(
        st.one_of(
            st.sampled_from(_PLANE_SCALARS), st.sampled_from(["bag", "bag1", "tuple"])
        ),
        min_size=1,
        max_size=4,
    )
    return spec.flatmap(build)


# -- the pinned plane against hostile values ---------------------------------------
#
# Rows the checker must *refuse* as often as accept: whatever it
# accepts has to read back as the rows that were written, value for
# value and type for type.


class _SubBag(Bag):
    pass


class _Pair(tuple):
    pass


#: per scalar type, values that somewhere do not read back as written:
#: ill-typed, unsafe only inside nested text, never safe, not ASCII
_ODD = {
    DataType.INT: [True, False, "3"],
    DataType.DOUBLE: [float("nan"), float("inf"), -0.0, 1e22, 3],
    DataType.CHARARRAY: [
        "a", "x y", "", " a", "a ", "a,b", "(a", "a)", "{a}", "a\tb", "a\nb", "é",
        "\xa0a", "a\x1c", "\x1fa", "a\x1cb", "a\r", "3", "true", 7,
    ],
    DataType.BOOLEAN: [0, 1, "true"],
}
_HOSTILE = {
    DataType.INT: st.integers(-99, 10**12) | st.sampled_from(_ODD[DataType.INT]),
    DataType.DOUBLE: canonical_float | st.sampled_from(_ODD[DataType.DOUBLE]),
    DataType.CHARARRAY: (
        st.sampled_from(_ODD[DataType.CHARARRAY]) | nested_safe_text
    ),
    DataType.BOOLEAN: st.booleans() | st.sampled_from(_ODD[DataType.BOOLEAN]),
}


def _planted_rows():
    """(schema, rows) with each odd value alone in otherwise canonical
    rows: as a file's own field, inside a bag and inside a tuple; and
    a Bag subclass among plain Bags."""
    for dtype, values in _ODD.items():
        inner = Schema.of(("k", DataType.CHARARRAY), ("v", dtype))
        fill = ("x", None)
        for value in values:
            yield inner, [fill, ("y", value)]
            for nested in (DataType.BAG, DataType.TUPLE):
                key = FieldSchema("k", DataType.CHARARRAY)
                schema = Schema((key, FieldSchema("n", nested, inner)))
                column = [fill, ("y", value)]
                if nested is DataType.BAG:
                    column = [Bag([fill]), Bag([fill, ("y", value)])]
                yield schema, [("r", v) for v in column]
    bag = FieldSchema("n", DataType.BAG, Schema.of(("k", DataType.CHARARRAY)))
    yield Schema((bag,)), [(_SubBag([("x",)]),), (Bag([("y",)]),)]


def _rarely(rate: int, odd, usual):
    """*odd* once in *rate* draws, else *usual*."""
    return st.integers(0, rate - 1).flatmap(lambda k: usual if k else odd)


@st.composite
def hostile_schema_and_rows(draw):
    """(schema, rows): scalar, bag and tuple columns — typed by 1-4
    scalar inner fields, untyped, or with a nested inner field — and
    rows that are canonical except where, at a per-example rate, a
    value is ill-typed or unsafe, a width is wrong or a container is a
    subclass."""
    rate = draw(st.sampled_from([3, 30, 300, 300]))

    def value(dtype):
        usual = _canonical_value(dtype)
        if dtype is DataType.CHARARRAY:  # canonical, but not sized: not ASCII
            usual = _rarely(8, st.sampled_from(["é", "na\xefve"]), usual)
        return _rarely(rate, _HOSTILE[dtype], usual)

    fields, columns = [], []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(_PLANE_SCALARS + ["bag", "bag", "tuple", "tuple"]))
        if kind not in ("bag", "tuple"):
            fields.append(FieldSchema(f"f{i}", kind))
            columns.append(value(kind))
            continue
        inner_types = draw(
            st.lists(st.sampled_from(_PLANE_SCALARS), min_size=1, max_size=4)
        )
        elements = [value(t) for t in inner_types]
        shape = draw(st.sampled_from(["typed", "typed", "untyped", "doubly"]))
        if shape == "doubly":
            inner_types = inner_types + [DataType.TUPLE]
            elements.append(st.none() | st.just(("a", "b")))
        inner = None
        if shape != "untyped":
            inner = Schema(
                tuple(FieldSchema(f"i{n}", t) for n, t in enumerate(inner_types))
            )
        inner_row = _rarely(
            rate,
            st.one_of(
                st.tuples(*elements).map(_Pair),
                st.tuples(*elements).map(lambda row: row + (None,)),  # too wide
                st.tuples(*elements[1:]),  # too narrow
            ),
            st.tuples(*elements),
        )
        if kind == "tuple":
            fields.append(FieldSchema(f"f{i}", DataType.TUPLE, inner))
            odd = st.just("(a,1)")
            usual = st.none() | inner_row
        else:
            fields.append(FieldSchema(f"f{i}", DataType.BAG, inner))
            bags = st.lists(inner_row, max_size=3)
            odd = bags | bags.map(_SubBag)
            usual = st.none() | bags.map(Bag)
        if shape == "untyped":  # canonical only while all-null: mostly null
            usual = _rarely(4, usual, st.none())
        columns.append(_rarely(rate, odd, usual))
    row = _rarely(
        rate,
        st.one_of(
            st.tuples(*columns).map(list),
            st.tuples(*columns).map(lambda r: r + (None,)),
            st.tuples(*columns[1:]),
        ),
        st.tuples(*columns),
    )
    return Schema(tuple(fields)), draw(st.lists(row, max_size=6))


def _same(a, b) -> bool:
    """Equal value for value and type for type (a Bag subclass is not
    a Bag; NaN equals nothing, itself included)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Bag):
        return _same(a.rows, b.rows)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def _refused_by_design(schema, rows) -> bool:
    """What the checker refuses although the text happens to read
    back: a column it never pins (untyped or doubly nested, unless all
    null) and brackets inside nested strings (conservative: the
    nested splitter only trips on some of them)."""
    for index, fs in enumerate(schema.fields):
        if not fs.dtype.is_nested:
            continue
        values = [row[index] for row in rows if row[index] is not None]
        if values and (
            fs.inner is None or any(f.dtype.is_nested for f in fs.inner.fields)
        ):
            return True
        for value in values:
            for inner_row in value.rows if isinstance(value, Bag) else [value]:
                if any(isinstance(v, str) and set(v) & set("(){}") for v in inner_row):
                    return True
    return False


plane_rows = st.one_of(canonical_rows_strategy(), hostile_schema_and_rows())


class TestDataPlaneProperties:
    @given(canonical_rows_strategy())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_canonical_round_trip_identity(self, schema_rows):
        """deserialize(serialize(rows)) == rows for canonical rows —
        including nested bags, all-null rows, and the interior empty
        lines single-null-field rows produce."""
        from repro.dfs.dataset import canonical_ascii_size, rows_are_canonical

        schema, rows = schema_rows
        rows = [tuple(row) for row in rows]
        assert rows_are_canonical(rows, schema)
        text = serialize_rows(rows)
        assert deserialize_rows(text, schema) == rows
        # the fused one-pass sizer agrees with the real serialization
        size = canonical_ascii_size(tuple(rows), schema)
        assert size == len(text.encode())

    @given(canonical_rows_strategy())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_write_rows_read_rows_identity(self, schema_rows):
        """The DFS typed path returns exactly the written rows, and
        the text it accounts for is byte-identical to eager
        serialization."""
        schema, rows = schema_rows
        rows = tuple(tuple(row) for row in rows)
        dfs = DistributedFileSystem()
        dfs.write_rows("f", rows, schema)
        assert dfs.read_rows("f", schema) == rows
        data = dfs.read_file("f")
        assert data == serialize_rows(rows).encode()
        assert dfs.file_size("f") == len(data)

    def test_canonical_iff_rows_read_back_as_written(self):
        """``rows_are_canonical`` holds exactly when the text reads
        back as the rows that were written — value for value, type for
        type — and ``canonical_ascii_size`` is the text's byte length
        exactly when it does and the text is ASCII, else None: the one
        sizer held to the rendered text itself, over the hostile
        values, from an empty write to a few chunks' worth of rows."""
        from repro.dfs.dataset import canonical_ascii_size, rows_are_canonical

        drawn = Counter()

        @given(hostile_schema_and_rows(), st.sampled_from([None, 0, 1, 63, 64, 200]))
        @settings(
            max_examples=300,
            deadline=None,
            derandomize=True,  # so that what the ledger below counts is fixed
            suppress_health_check=[HealthCheck.too_slow],
        )
        # a one-field bag row holding a null renders "()" and squares back
        @example(
            (
                Schema((FieldSchema("b", DataType.BAG, Schema.of(("s", "chararray"))),)),
                [(Bag([(None,), ("x",)]),)],
            ),
            None,
        )
        @example(
            (
                Schema((FieldSchema("b", DataType.BAG, Schema.of("s", ("n", "int"))),)),
                [(Bag([(None, None)]),)],
            ),
            None,
        )
        @example((_KEYED, [(("a", 1),), (("a", True),), (("a", 1.0),)]), None)
        def check(schema_rows, n_rows):
            schema, rows = schema_rows
            if n_rows is not None:  # the drawn rows, cycled to that many
                rows = list(islice(cycle(rows), n_rows if rows else 0))
            holds(schema, rows)

        def holds(schema, rows):
            canonical = rows_are_canonical(rows, schema)
            text = serialize_rows(rows)
            try:
                same = _same(tuple(deserialize_rows(text, schema)), tuple(rows))
            except SchemaError:
                same = False
            if canonical:
                assert same
            elif same:
                assert _refused_by_design(schema, rows)
            size = canonical_ascii_size(rows, schema)
            if canonical and text.isascii():
                assert size == len(text.encode())
            else:
                assert size is None
            drawn["canonical" if canonical else "non-canonical"] += 1
            drawn["non-ASCII"] += canonical and not text.isascii()
            for index, fs in enumerate(schema.fields):
                if not (canonical and fs.dtype.is_nested and rows):
                    continue
                values = [row[index] for row in rows if row[index] is not None]
                if values:
                    drawn[f"{fs.dtype.value} column"] += 1
                elif fs.inner is None:
                    drawn["all-null untyped nested column"] += 1
            for row in rows:
                if any(isinstance(v, Bag) and type(v) is not Bag for v in row):
                    assert not canonical  # read back, it is a plain Bag
                    drawn["Bag subclass"] += 1
                    break

        check()
        for case in (  # what the draws must have reached, before the sweep adds to it
            "canonical",
            "non-canonical",
            "non-ASCII",
            "bag column",
            "tuple column",
            "all-null untyped nested column",
            "Bag subclass",
        ):
            assert drawn[case] >= 1, (case, drawn)
        for schema, rows in _planted_rows():
            holds(schema, rows)

    @given(plane_rows)
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @example((Schema(()), []))
    @example((Schema(()), [(), ()]))
    @example((Schema.of("a"), [("x",), ("y", "z"), ()]))
    @example((Schema.of("a"), [(_SubBag([("x",)]),), (Bag([("y",)]),), (Bag(),)]))
    def test_serialize_rows_equals_per_row_reference(self, schema_rows):
        """The column-at-a-time renderer is ``serialize_row`` per row,
        byte for byte, over every shape: ragged rows, an empty write,
        zero-width rows, Bag and tuple subclasses, ill-typed values."""
        _, rows = schema_rows
        want = "".join(serialize_row(row) + "\n" for row in rows)
        assert serialize_rows(rows) == want
        assert serialize_rows(iter(rows)) == want

    def test_a_canonical_ascii_size_is_the_rows_characters(self):
        """Whenever ``canonical_ascii_size`` sizes a write, the size is
        ``serialized_rows_size(rows)`` plus one newline per row: the
        identity the interpreter takes a tee'd rearrange's row bytes
        from.  Over the canonical and the hostile draws, both answers
        drawn."""
        from repro.dfs.dataset import canonical_ascii_size

        drawn = Counter()

        @given(plane_rows)
        @settings(
            max_examples=200,
            deadline=None,
            derandomize=True,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @example((Schema(()), [(), ()]))
        def check(schema_rows):
            schema, rows = schema_rows
            rows = tuple(rows)
            size = canonical_ascii_size(rows, schema)
            drawn["sized" if size is not None else "refused"] += 1
            if size is not None:
                assert size == serialized_rows_size(rows) + len(rows)

        check()
        assert drawn["sized"] >= 20 and drawn["refused"] >= 20, drawn

    def test_an_exact_non_ascii_write_is_not_sized_from_its_rows(self):
        """The counterexample to using ``TypedDataset.exact`` as that
        signal: a canonical non-ASCII write is pinned exact, and its
        size counts UTF-8 bytes (14), not the rows' characters (13)."""
        from repro.dfs.dataset import canonical_ascii_size

        schema = Schema.of(("s", DataType.CHARARRAY), ("n", DataType.INT))
        rows = (("héllo", 1), ("b", 22))
        dfs = DistributedFileSystem()
        status = dfs.write_rows("f", rows, schema)
        (dataset,) = dfs.namenode.lookup("f").datasets.values()
        assert dataset.exact and status.size == 14
        assert serialized_rows_size(rows) + len(rows) == 13
        assert canonical_ascii_size(rows, schema) is None
        assert not status.sized_from_rows


# -- an append extends the pinned rows ------------------------------------------------

_APPEND_SCHEMAS = [
    Schema.of(("k", DataType.CHARARRAY), ("n", DataType.INT)),
    Schema.of(("k", DataType.CHARARRAY), ("n", DataType.CHARARRAY)),
    Schema.of(("k", DataType.CHARARRAY)),
]
#: whole rows, a row without its newline (the next append grows it),
#: empty and all-null lines, a malformed row (under the int schema),
#: non-ASCII
_append_chunk = st.sampled_from(
    ["x\t1\n", "y\t2\nz\t3\n", "w\t4", "tail", "\t\n", "\n", "", "bad\tnotint\n", "é\t5\n"]
)
_append_op = st.one_of(
    st.tuples(st.just("append"), _append_chunk),
    st.tuples(st.just("read"), st.integers(0, len(_APPEND_SCHEMAS) - 1)),
)


def _rows_or_error(dfs, schema):
    try:
        return [_typed(row) for row in dfs.read_rows("f", schema)]
    except SchemaError as exc:
        return str(exc)


class TestAppendedReadProperties:
    @given(
        st.sampled_from([None, "a\t1\nb\t2\n", "a\t1\nb\t2", ""]),
        st.lists(_append_op, max_size=14),
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_reads_between_appends_equal_one_cold_parse(self, initial, operations):
        """However a file grew and whatever schemas read it on the way,
        ``read_rows`` returns — or raises — exactly what one cold parse
        of the file's current bytes does, and counts the same bytes."""
        dfs = DistributedFileSystem()
        if initial is None:  # writer-pinned rows
            dfs.write_rows("f", (("a", 1), ("b", 2)), _APPEND_SCHEMAS[0])
            data = b"a\t1\nb\t2\n"
        else:
            dfs.write_file("f", initial)
            data = initial.encode()
        for kind, arg in operations:
            if kind == "append":
                dfs.append("f", arg)
                data += arg.encode()
                continue
            cold = DistributedFileSystem()
            cold.write_file("f", data)
            before = dfs.bytes_read
            schema = _APPEND_SCHEMAS[arg]
            assert _rows_or_error(dfs, schema) == _rows_or_error(cold, schema)
            assert dfs.bytes_read - before == cold.bytes_read == len(data)
        assert dfs.read_file("f") == data
