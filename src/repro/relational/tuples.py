"""Row and bag representations plus PigStorage (de)serialization.

Rows are plain Python tuples — cheap, hashable, and directly usable as
shuffle keys.  :class:`Bag` wraps the lists of tuples produced by
GROUP/COGROUP so downstream code can ask for sizes and samples without
caring about the underlying container.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, islice, repeat
from operator import is_, itemgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import SchemaError
from repro.relational.schema import FieldSchema, Schema
from repro.relational.types import DataType, format_tuple, format_value, parse_text

Row = Tuple


class Bag:
    """A collection of rows grouped under one key.

    Pig bags are unordered multisets; we preserve arrival order for
    determinism (important for reproducible experiments and tests).
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Row] = ()):
        self._rows: List[Row] = list(rows)

    @classmethod
    def _sharing(cls, row_lists: List[List[Row]]) -> List["Bag"]:
        """Bags over *row_lists* themselves, not copies, made in two
        C-level passes: only for lists nothing appends to afterwards
        (a finished shuffle's groups)."""
        bags = list(map(object.__new__, repeat(cls, len(row_lists))))
        any(map(cls._rows.__set__, bags, row_lists))  # __set__ returns None
        return bags

    def append(self, row: Row) -> None:
        self._rows.append(row)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, Bag):
            return self._rows == other._rows
        if isinstance(other, list):
            return self._rows == other
        return NotImplemented

    def __repr__(self) -> str:
        preview = ", ".join(repr(r) for r in self._rows[:3])
        suffix = ", ..." if len(self._rows) > 3 else ""
        return f"Bag([{preview}{suffix}], n={len(self._rows)})"

    @property
    def rows(self) -> List[Row]:
        return self._rows

    def project(self, index: int) -> List:
        """Extract one field from every row (used by aggregates)."""
        return list(map(itemgetter(index), self._rows))


def serialize_row(row: Row) -> str:
    """Render a row as one PigStorage line (tab-separated fields)."""
    return "\t".join(_serialize_field(v) for v in row)


def serialized_row_size(row: Row) -> int:
    """``len(serialize_row(row))`` without building the joined line:
    the per-row reference :func:`serialized_rows_size` is held to
    (``tests/test_shuffle.py``), and what it sums over a ragged chunk."""
    fields = sum(_field_size(value) for value in row if value is not None)
    return max(0, len(row) - 1) + fields  # the tab separators


def serialized_rows_size(rows) -> int:
    """``sum(serialized_row_size(r) for r in rows)`` — columnar.

    The shuffle accounts a whole chunk's wire bytes at once: when
    every row is a same-length tuple, each field is summed as a column
    through :data:`COLUMN_SIZE`, keyed by the column's exact type; a
    mixed or nested column goes through the per-value dispatch just
    for that column.  Value-identical to the per-row sum —
    ``tests/test_shuffle.py`` pins it down.
    """
    n_rows = len(rows)
    if n_rows == 0:
        return 0
    lens = list(map(len, rows))
    width = lens[0]
    if set(map(type, rows)) != {tuple} or set(lens) != {width}:
        return sum(map(serialized_row_size, rows))
    total = n_rows * max(0, width - 1)  # tab separators
    for index in range(width):
        column, types = split_nulls(list(map(itemgetter(index), rows)))
        size_column = COLUMN_SIZE.get(types.pop()) if len(types) == 1 else None
        if size_column is None:
            # mixed or nested column: per-value dispatch, same math
            total += sum(map(_field_size, column))
        else:
            total += size_column(column)
    return total


_NoneType = type(None)


def split_nulls(column: list) -> Tuple[list, set]:
    """(non-null values, their exact-type set); nulls size to 0."""
    types = set(map(type, column))
    if _NoneType in types:
        types.discard(_NoneType)
        column = [value for value in column if value is not None]
    return column, types


#: entries a text-length memo may hold before it is cleared
_TEXT_LENS_CAP = 1 << 16
#: process-wide value -> ``len(str(value))`` / ``len(repr(value))``
_INT_TEXT_LENS: dict = {}
_FLOAT_TEXT_LENS: dict = {}


def _memo_sizer(memo: dict, render: Callable, keep_zeros: bool) -> Callable:
    """``sum(map(len, map(render, column)))`` through *memo*: one C-level
    lookup pass when every value is known, else a columnar pass that
    renders only the misses.  Exact because equal values of one exact
    type render alike — except ``0.0 == -0.0`` (3 and 4 characters),
    so a float memo never stores a zero.  Threads may share it without
    a lock: only true (value, length) pairs are ever stored, and a
    clear racing a lookup costs a re-render, never a wrong sum."""

    def size_column(column):
        try:
            return sum(map(memo.__getitem__, column))
        except KeyError:
            pass
        lens = list(map(memo.get, column))
        missing = list(compress(column, map(is_, lens, repeat(None))))
        fresh = list(map(len, map(render, missing)))
        if len(memo) > _TEXT_LENS_CAP:
            memo.clear()
        pairs = zip(missing, fresh)
        # compress by the values themselves drops the (falsy) zeros
        memo.update(pairs if keep_zeros else compress(pairs, missing))
        return sum(filter(None, lens)) + sum(fresh)

    return size_column


#: exact scalar type -> the characters ``format_value`` renders for a
#: null-free column of only that type, in C-level passes: the column
#: form of :func:`format_value_size`, shared by the wire accounting
#: above and the DFS's round-trip sizer (``dfs/dataset.py``).  Numbers
#: size through a process-wide memo of their text lengths (cleared past
#: ``_TEXT_LENS_CAP`` entries), so a number met before is not rendered
#: again; the sums stay exact.
COLUMN_SIZE = {
    str: lambda column: sum(map(len, column)),
    int: _memo_sizer(_INT_TEXT_LENS, str, keep_zeros=True),
    float: _memo_sizer(_FLOAT_TEXT_LENS, repr, keep_zeros=False),
    bool: lambda column: 5 * len(column) - sum(column),  # true 4, false 5
}


def _field_size(value) -> int:
    """Character length of ``_serialize_field(value)`` for one field.

    Mirrors ``_serialize_field`` exactly: a Bag *field* renders as bag
    text, but everything nested below goes through ``format_value``
    semantics (where a Bag inside a tuple falls to ``str``) — sizes
    must track the real serialization byte for byte, however odd.
    """
    if type(value) is Bag:
        return _bag_size(value.rows)
    return format_value_size(value)


def format_value_size(value) -> int:
    """Character length of ``format_value(value)`` without building it:
    the per-value form of the size math (bool -> 4/5, int -> len(str),
    float -> len(repr), str -> len, nested -> structural recursion);
    :data:`COLUMN_SIZE` is its per-column form."""
    kind = type(value)
    if kind is str:
        return len(value)
    if kind is bool:
        return 4 if value else 5
    if kind is int:
        return len(str(value))
    if kind is float:
        return len(repr(value))
    if kind is list:
        return _bag_size(value)
    if kind is tuple:
        return _tuple_size(value)
    return len(format_value(value))


def _tuple_size(row: tuple) -> int:
    # "(" + ",".join(format_value(v)) + ")"
    total = 2 + max(0, len(row) - 1)
    for value in row:
        if value is not None:
            total += format_value_size(value)
    return total


def _bag_size(rows: List[Row]) -> int:
    # "{" + ",".join(format_tuple(t)) + "}"
    total = 2 + max(0, len(rows) - 1)
    for row in rows:
        total += _tuple_size(row) if type(row) is tuple else len(format_tuple(row))
    return total


def _serialize_field(value) -> str:
    if isinstance(value, Bag):
        return format_value(value.rows)
    return format_value(value)


def deserialize_row(line: str, schema: Schema) -> Row:
    """Parse one PigStorage line using *schema* for field typing.

    The reference :func:`deserialize_rows` is held to.  A line is
    squared to the schema's width (short pads with nulls, extra fields
    drop) and so is every tuple of a nested field to its inner schema.
    """
    parts = line.split("\t")
    return tuple(
        _parse_field(parts[i] if i < len(parts) else "", fs)
        for i, fs in enumerate(schema)
    )


def _parse_field(text: str, fs: FieldSchema):
    """One field text -> its value; what :func:`parse_text` leaves as
    strings inside a bag or tuple is typed by the field's inner
    schema, so a stored result reads back as the rows that were
    written.  A tuple column without inner schema, or with a nested
    inner field, keeps its raw strings (it is never pinned either)."""
    value = parse_text(text, fs.dtype)
    if value is None or fs.inner is None:
        return value
    if fs.dtype is DataType.BAG:
        return Bag(_retype_rows(value, fs.inner))
    if fs.dtype is DataType.TUPLE and not any(f.dtype.is_nested for f in fs.inner):
        return _retype_rows((value,), fs.inner)[0]
    return value


def _retype_rows(raw_rows, inner: Schema) -> List[Row]:
    """Type the string fields freshly parsed nested tuples carry,
    squaring each to the inner width: a short tuple pads with nulls
    (``()`` is how a one-field ``(None,)`` renders), a long one drops
    the extras.

    Values that are already typed (a nested tuple parsed recursively
    rather than left as text) pass through unchanged.
    """
    pad = ("",) * len(inner.fields)
    return [
        tuple(
            parse_text(v, fs.dtype) if isinstance(v, str) else v
            for v, fs in zip(raw + pad, inner)
        )
        for raw in raw_rows
    ]


def snapshot_rows(rows: Iterable[Row]) -> Tuple[Row, ...]:
    """Rows decoupled from caller-held mutable containers.

    Row tuples are immutable and shared as-is; Bag values (the one
    mutable container a row can hold) are shallow-copied.  Both ends
    of the zero-copy plane need this: ``write_rows`` snapshots at call
    time (so later caller mutation cannot corrupt the deferred
    serialization or the pinned dataset), and result outputs hand the
    caller bags it may freely mutate.  When C-level type scans find
    only tuple rows and no Bag value — the common case — a tuple of
    rows is returned as it is (a list as a tuple of its rows).
    """
    rows = tuple(rows)  # a tuple is returned as itself
    values = chain.from_iterable(rows)  # read only when every row is a tuple
    if set(map(type, rows)) <= {tuple} and Bag not in set(map(type, values)):
        return rows
    out = []
    append = out.append
    for row in rows:
        # plain inner scan: a generator per row is measurable on the
        # write hot path, and bag-free rows only pay the type checks
        if type(row) is tuple:
            for value in row:
                if type(value) is Bag:
                    row = tuple(
                        Bag(v.rows) if type(v) is Bag else v for v in row
                    )
                    break
        append(row)
    return tuple(out)


def serialize_rows(rows: Iterable[Row]) -> str:
    """Serialize many rows into one newline-terminated text blob.

    :func:`serialize_row` of every row (the tests' reference), built a
    column at a time when the rows are plain tuples of one width: a
    column of one exact scalar type runs ``str`` / ``repr`` over
    itself; a Bag column flattens every inner tuple of the write,
    renders those columns the same way and re-cuts by bag length, a
    tuple column likewise; a mixed column, or one holding a null, goes
    through ``format_value`` per value.  Ragged rows and anything else
    take the per-row path.
    """
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
    if not rows:
        return ""
    columns = _text_columns(rows, top=True)
    if columns is None:
        return "\n".join(map(serialize_row, rows)) + "\n"
    return "\n".join(map("\t".join, zip(*columns))) + "\n"


def _text_columns(rows: Sequence[Row], top: bool) -> Optional[list]:
    """The fields of *rows* as text, one iterable per column; None
    unless the rows are plain tuples of one non-zero width."""
    if set(map(type, rows)) != {tuple}:
        return None
    width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    return [_text_column(list(map(itemgetter(i), rows)), top) for i in range(width)]


def _text_column(column: list, top: bool) -> Iterable[str]:
    """One column as text: ``_serialize_field`` (a file's own fields,
    *top*) or ``format_value`` (below) of every value."""
    types = set(map(type, column))
    if types == {str}:
        return column
    if types == {int}:
        return map(str, column)
    if types == {float}:
        return map(repr, column)
    if types == {tuple}:
        texts = _tuple_texts(column)
        if texts is not None:
            return texts
    elif types == {Bag} and top:
        texts = _tuple_texts(list(chain.from_iterable(bag.rows for bag in column)))
        if texts is not None:
            return ["{" + ",".join(islice(texts, len(bag))) + "}" for bag in column]
    return map(_serialize_field if top else format_value, column)


def _tuple_texts(rows: Sequence[Row]) -> Optional[Iterator[str]]:
    """``format_tuple`` of every row, a column at a time."""
    columns = _text_columns(rows, top=False)
    if columns is None:
        return None
    return map("(%s)".__mod__, map(",".join, zip(*columns)))


def iter_data_lines(text: str) -> List[str]:
    """Split serialized row text into lines, keeping interior empties.

    An empty line is a legitimate all-null row; only the final empty
    element produced by the trailing newline is dropped.
    """
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def deserialize_rows(text: str, schema: Schema) -> List[Row]:
    """:func:`deserialize_row` of every line, computed column-major.

    Split every line, square the field lists to the schema's width
    (short rows pad with ``""``), transpose once, cast each column in
    one pass and zip back into row tuples — Python frames are spent
    per column, not per value.
    """
    lines = iter_data_lines(text)
    casts = _column_casts(schema)
    if not lines or not casts:
        return [()] * len(lines)
    fields = list(map(str.split, lines, repeat("\t")))
    if min(map(len, fields)) < len(casts):
        pad = [""] * len(casts)
        fields = [(parts + pad)[: len(casts)] for parts in fields]
    # zip stops at the schema's width: extra fields drop here
    return list(zip(*[cast(col) for cast, col in zip(casts, zip(*fields))]))


@lru_cache(maxsize=512)
def _column_casts(schema: Schema) -> tuple:
    return tuple(_column_cast(fs) for fs in schema.fields)


def _column_cast(fs: FieldSchema) -> Callable[[tuple], Sequence]:
    """One column of field texts -> its typed values.

    An empty field is null in every type.  Strings are otherwise
    themselves; a numeric column runs the builtin ``int`` / ``float``
    over itself, then once more stepping over empty fields, and what
    still makes that raise (``"3.0"`` in an int column, a malformed
    number) re-runs the one column through :func:`parse_text` per
    value — the path boolean and nested columns always take — so values
    are :func:`deserialize_row`'s and the error names line and field.
    """
    dtype = fs.dtype

    def per_value(column):
        values = []
        try:
            for text in column:
                values.append(_parse_field(text, fs))
        except SchemaError:
            raise SchemaError(
                f"line {len(values) + 1} field {fs.name} ({dtype.value}): "
                f"cannot cast {text!r}"
            ) from None
        return values

    if dtype is DataType.CHARARRAY or dtype is DataType.BYTEARRAY:
        return lambda column: (
            [text or None for text in column] if "" in column else column
        )
    if not dtype.is_numeric:
        return per_value
    builtin = int if dtype in (DataType.INT, DataType.LONG) else float

    def cast(column):
        try:
            try:
                return list(map(builtin, column))
            except ValueError:  # an empty field is the common reason
                return [builtin(text) if text else None for text in column]
        except ValueError:  # what only parse_text takes, or refuses
            return per_value(column)

    return cast
