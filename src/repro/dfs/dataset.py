"""Typed datasets pinned to DFS inodes: the zero-copy data plane.

Every edge of a simulated workflow used to serialize rows to
PigStorage text and re-parse the same text in the next job.  A
:class:`TypedDataset` keeps the parsed ``List[Row]`` attached to the
inode the text was written to, so a downstream job whose load schema
matches skips parsing entirely.  The serialized bytes remain the
source of truth: they are what byte counters account and what genuine
text reads return.

Correctness hinges on one invariant: the cached rows must be exactly
what ``deserialize_rows(serialize_rows(rows), schema)`` would produce,
otherwise the cached and text paths could diverge downstream (an int
stored in a double column re-parses as a float; an empty string
re-parses as null; a string containing a tab changes field splitting).
:func:`rows_are_canonical` checks that invariant; rows that fail are
simply not pinned at write time, and readers fall back to parsing
(whose result is then itself pinned, because a parse is always
canonical with respect to its own text).

The check runs once per stored row on the write hot path, so it is
*compiled*: each schema gets a tuple of per-field closures (cached by
schema identity) doing bare ``type(...) is`` tests — no enum
dispatch, no attribute chasing, roughly the cost of a tuple scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import isnan
from operator import itemgetter
from typing import Callable, Optional, Tuple

from repro.relational.schema import FieldSchema, Schema
from repro.relational.tuples import Bag, Row, serialized_row_size
from repro.relational.types import DataType


@dataclass(eq=False)
class TypedDataset:
    """Parsed rows pinned to one inode, valid for one schema + generation."""

    rows: Tuple[Row, ...]
    schema_fp: tuple
    #: the inode generation this dataset was built at; a bump on
    #: write/append/delete/rename invalidates every pinned dataset
    generation: int
    #: True when the file's payload bytes are exactly
    #: ``serialize_rows(rows)`` (writer-pinned datasets, and clones of
    #: them).  Parse-filled datasets are *canonical* — they round-trip
    #: — but their serialization may still differ from the original
    #: text (``"03"`` parses to ``3``, which renders as ``"3"``), so
    #: only exact datasets are eligible for serialized-payload reuse.
    exact: bool = False
    #: ``id(row) -> serialized_row_size(row)``, built when first asked
    #: for: the interpreter asks on behalf of a load whose row objects
    #: can reach the shuffle unchanged (through filter / split / union
    #: / limit), and then sizes each row once per dataset lifetime
    _size_memo: Optional[dict] = None

    def size_memo(self) -> dict:
        if self._size_memo is None:
            rows = self.rows
            self._size_memo = dict(
                zip(map(id, rows), map(serialized_row_size, rows))
            )
        return self._size_memo

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"TypedDataset(rows={len(self.rows)}, generation={self.generation})"


def rows_are_canonical(rows, schema: Schema) -> bool:
    """True when *rows* survive a PigStorage round trip unchanged.

    ``deserialize_rows(serialize_rows(rows), schema) == rows`` — the
    Hypothesis property in ``tests/test_properties.py`` holds this
    function to that contract.
    """
    return _row_checker(schema)(rows)


#: row count from which the columnar sizer amortizes its C-pass setup
_COLUMNAR_MIN_ROWS = 64


def canonical_ascii_size(rows, schema: Schema) -> Optional[int]:
    """One-pass canonicality check + exact byte sizing.

    Returns the exact byte length of ``serialize_rows(rows).encode()``
    when the rows are canonical under *schema* **and** all-ASCII (so
    character counts are byte counts), else None.  This is the write
    hot path: one walk over the data decides pinning eligibility and
    does the byte-size accounting that lets text serialization be
    deferred.

    Large writes check and size each field as a *column* through
    C-level passes (``map``/``set``/``sum`` plus substring scans over
    one joined text per string column), with bag fields flattened
    across all rows so even short bags amortize — the remaining
    per-value Python work is ``str``/``repr`` on numeric columns,
    which serialization would pay anyway.  Small writes and shapes the
    columnar pass cannot prove (exotic types, Bag subclasses) use the
    compiled per-row closures; the two paths are value-identical.
    """
    if isinstance(rows, (list, tuple)) and len(rows) >= _COLUMNAR_MIN_ROWS:
        sizer = _columnar_sizer(schema)
        if sizer is not None:
            total = sizer(rows)
            if total is not _FALLBACK:
                return total
    return _row_sizer(schema)(rows)


@lru_cache(maxsize=512)
def _row_sizer(schema: Schema) -> Callable[[object], Optional[int]]:
    sizers = tuple(_field_sizer(fs) for fs in schema.fields)
    n_fields = len(sizers)
    base = max(0, n_fields - 1) + 1  # tab separators + the newline

    def size_rows(rows) -> Optional[int]:
        total = 0
        for row in rows:
            if type(row) is not tuple or len(row) != n_fields:
                return None
            total += base
            for value, sizer in zip(row, sizers):
                if value is None:
                    continue
                field_size = sizer(value)
                if field_size is None:
                    return None
                total += field_size
        return total

    return size_rows


_FieldSizer = Callable[[object], Optional[int]]


def _field_sizer(fs: FieldSchema) -> _FieldSizer:
    if fs.dtype is DataType.BAG:
        return _bag_sizer(fs.inner)
    return _scalar_sizer(fs.dtype, nested=False) or _no_size


def _scalar_sizer(dtype: DataType, nested: bool) -> Optional[_FieldSizer]:
    """A closure sizing one non-null scalar (None = not canonical)."""
    if dtype is DataType.INT or dtype is DataType.LONG:
        return _size_int
    if dtype is DataType.FLOAT or dtype is DataType.DOUBLE:
        return _size_float
    if dtype is DataType.CHARARRAY or dtype is DataType.BYTEARRAY:
        return _size_nested_str if nested else _size_str
    if dtype is DataType.BOOLEAN:
        return _size_bool
    return None


# the scalar size math is inlined (len(str(v)) / len(repr(v)) / 4|5)
# rather than delegated to tuples.format_value_size: these closures
# run once per stored field and the extra dispatch hop showed up as
# ~15% of write time in the exec_sim profile.  Each sizer must stay
# value-identical to format_value_size for its type — the Hypothesis
# round-trip property and the counter-parity tests pin that down.


def _size_int(value) -> Optional[int]:
    if type(value) is int:
        return len(str(value))
    return None


def _size_float(value) -> Optional[int]:
    if type(value) is float and value == value:
        return len(repr(value))
    return None


def _size_str(value) -> Optional[int]:
    if type(value) is str and value != "" and value.isascii():
        if "\t" not in value and "\n" not in value:
            return len(value)
    return None


def _size_nested_str(value) -> Optional[int]:
    if (
        type(value) is str
        and value != ""
        and value.isascii()
        and not _has_nested_unsafe(value)
        # strip-stability without allocating the stripped copy: the
        # value is non-empty ASCII, so whitespace at either end is
        # exactly what .strip() would remove
        and not value[0].isspace()
        and not value[-1].isspace()
    ):
        return len(value)
    return None


def _size_bool(value) -> Optional[int]:
    if type(value) is bool:
        return 4 if value else 5
    return None


def _no_size(value) -> Optional[int]:
    return None


def _bag_sizer(inner: Optional[Schema]) -> _FieldSizer:
    if inner is None:
        return _no_size
    inner_sizers = []
    for fs in inner.fields:
        sizer = None if fs.dtype.is_nested else _scalar_sizer(fs.dtype, nested=True)
        if sizer is None:
            return _no_size
        inner_sizers.append(sizer)
    inner_sizers = tuple(inner_sizers)
    n_fields = len(inner_sizers)
    tuple_base = 2 + max(0, n_fields - 1)  # parens + commas

    def size_bag(value) -> Optional[int]:
        if not isinstance(value, Bag):
            return None
        rows = value.rows
        total = 2 + max(0, len(rows) - 1)  # braces + commas
        for row in rows:
            if type(row) is not tuple or len(row) != n_fields:
                return None
            total += tuple_base
            for v, sizer in zip(row, inner_sizers):
                if v is None:
                    continue
                field_size = sizer(v)
                if field_size is None:
                    return None
                total += field_size
        return total

    return size_bag


# -- columnar sizing ------------------------------------------------------------
#
# Large writes check and size each field as a *column*: C-level
# map/set/sum passes plus substring scans over one joined text per
# string column, with bag fields flattened across every row of the
# write so even short bags amortize the setup.  Results are
# value-identical to the per-row closures; the one shape the column
# passes cannot decide exactly — Bag *subclasses*, which the closures
# accept via isinstance but type-multiset tests cannot prove — returns
# the _FALLBACK sentinel and the caller reruns the closure path.

#: columnar pass cannot decide; rerun the compiled per-row closures
_FALLBACK = object()

_NoneType = type(None)
#: ASCII whitespace that str.strip() removes, minus the tab/newline
#: characters the unsafe-character scan has already rejected — note
#: the file/group/record/unit separators \x1c-\x1f are whitespace to
#: str.strip()/isspace() too
_ASCII_WS = " \r\x0b\x0c\x1c\x1d\x1e\x1f"


@lru_cache(maxsize=512)
def _columnar_sizer(schema: Schema) -> Optional[Callable]:
    """A whole-write columnar sizer, or None if *schema* has a shape
    (nested-in-nested, untyped bags, exotic scalar types) that only
    the closure path handles."""
    handlers = []
    for fs in schema.fields:
        if fs.dtype is DataType.BAG:
            handler = _columnar_bag_handler(fs.inner)
        else:
            handler = _columnar_scalar_handler(fs.dtype, nested=False)
        if handler is None:
            return None
        handlers.append(handler)
    handlers = tuple(handlers)
    n_fields = len(handlers)
    base = max(0, n_fields - 1) + 1  # tab separators + the newline

    def size_columns(rows):
        if set(map(type, rows)) != {tuple} or set(map(len, rows)) != {n_fields}:
            return None  # exact: the closures demand n-field tuples
        total = len(rows) * base
        for index, handler in enumerate(handlers):
            part = handler(list(map(itemgetter(index), rows)))
            if part is None or part is _FALLBACK:
                return part
            total += part
        return total

    return size_columns


def _split_nulls(col):
    """(non-null values, their exact-type set); nulls contribute 0."""
    types = set(map(type, col))
    if _NoneType in types:
        types.discard(_NoneType)
        col = [value for value in col if value is not None]
    return col, types


def _col_int(col):
    col, types = _split_nulls(col)
    if not types:
        return 0
    if types != {int}:
        return None
    return sum(map(len, map(str, col)))


def _col_float(col):
    col, types = _split_nulls(col)
    if not types:
        return 0
    if types != {float}:
        return None
    if any(map(isnan, col)):
        return None  # NaN re-parses to a value that is not == itself
    return sum(map(len, map(repr, col)))


def _col_bool(col):
    col, types = _split_nulls(col)
    if not types:
        return 0
    if types != {bool}:
        return None
    return 5 * len(col) - sum(col)  # true -> 4 bytes, false -> 5


def _col_str(col):
    col, types = _split_nulls(col)
    if not types:
        return 0
    if types != {str}:
        return None
    if "" in col:
        return None  # "" re-parses as null
    joined = "".join(col)
    if not joined.isascii():
        return None
    if "\t" in joined or "\n" in joined:
        return None  # would change field splitting
    return len(joined)


def _col_nested_str(col):
    col, types = _split_nulls(col)
    if not types:
        return 0
    if types != {str}:
        return None
    if "" in col:
        return None
    joined = "".join(col)
    if not joined.isascii():
        return None
    for ch in _NESTED_UNSAFE:
        if ch in joined:
            return None
    # strip-stability is a per-value *boundary* property; after the
    # comma ban above a ","-joined text has unambiguous boundaries,
    # so whitespace adjacent to an edge or a separator is exactly a
    # value that str.strip() would change
    bounded = ",".join(col)
    if bounded[0] in _ASCII_WS or bounded[-1] in _ASCII_WS:
        return None
    for ch in _ASCII_WS:
        if ch + "," in bounded or "," + ch in bounded:
            return None
    return len(joined)


def _columnar_scalar_handler(dtype: DataType, nested: bool) -> Optional[Callable]:
    if dtype is DataType.INT or dtype is DataType.LONG:
        return _col_int
    if dtype is DataType.FLOAT or dtype is DataType.DOUBLE:
        return _col_float
    if dtype is DataType.CHARARRAY or dtype is DataType.BYTEARRAY:
        return _col_nested_str if nested else _col_str
    if dtype is DataType.BOOLEAN:
        return _col_bool
    return None


def _columnar_bag_handler(inner: Optional[Schema]) -> Optional[Callable]:
    if inner is None:
        return None  # untyped bags never round-trip: closure path
    field_handlers = []
    for fs in inner.fields:
        if fs.dtype.is_nested:
            return None  # doubly nested text does not round-trip
        handler = _columnar_scalar_handler(fs.dtype, nested=True)
        if handler is None:
            return None
        field_handlers.append(handler)
    field_handlers = tuple(field_handlers)
    n_fields = len(field_handlers)
    tuple_base = 2 + max(0, n_fields - 1)  # parens + commas

    def size_bag_column(col):
        col, types = _split_nulls(col)
        if not types:
            return 0
        if types != {Bag}:
            if all(issubclass(t, Bag) for t in types):
                return _FALLBACK  # the closures accept Bag subclasses
            return None
        row_lists = [bag.rows for bag in col]
        lens = list(map(len, row_lists))
        n_tuples = sum(lens)
        # per bag: braces + (len - 1) commas when non-empty
        total = 2 * len(lens) + n_tuples - sum(map(bool, lens))
        all_rows = list(chain.from_iterable(row_lists))
        if not all_rows:
            return total
        if (
            set(map(type, all_rows)) != {tuple}
            or set(map(len, all_rows)) != {n_fields}
        ):
            return None
        total += n_tuples * tuple_base
        for index, handler in enumerate(field_handlers):
            part = handler(list(map(itemgetter(index), all_rows)))
            if part is None:
                return None
            total += part
        return total

    return size_bag_column


_FieldCheck = Callable[[object], bool]


@lru_cache(maxsize=512)
def _row_checker(schema: Schema) -> Callable[[object], bool]:
    checks = tuple(_field_checker(fs) for fs in schema.fields)
    n_fields = len(checks)

    def check_rows(rows) -> bool:
        for row in rows:
            if type(row) is not tuple or len(row) != n_fields:
                return False
            for value, check in zip(row, checks):
                if value is not None and not check(value):
                    return False
        return True

    return check_rows


def _field_checker(fs: FieldSchema) -> _FieldCheck:
    if fs.dtype is DataType.BAG:
        return _bag_checker(fs.inner)
    return _scalar_checker(fs.dtype, nested=False) or _never


def _scalar_checker(dtype: DataType, nested: bool) -> Optional[_FieldCheck]:
    """A closure validating one non-null scalar, or None if *dtype*
    can never round-trip (nested types inside nested text)."""
    if dtype is DataType.INT or dtype is DataType.LONG:
        return _check_int
    if dtype is DataType.FLOAT or dtype is DataType.DOUBLE:
        return _check_float
    if dtype is DataType.CHARARRAY or dtype is DataType.BYTEARRAY:
        return _check_nested_str if nested else _check_str
    if dtype is DataType.BOOLEAN:
        return _check_bool
    return None


def _check_int(value) -> bool:
    return type(value) is int


def _check_float(value) -> bool:
    # NaN re-parses to a value that is not == to itself
    return type(value) is float and value == value


def _check_str(value) -> bool:
    # "" re-parses as null; tab/newline change field splitting
    if type(value) is not str or value == "":
        return False
    return "\t" not in value and "\n" not in value


def _check_nested_str(value) -> bool:
    # bag text is split on commas/parens/braces and
    # whitespace-stripped by the nested parser
    return (
        type(value) is str
        and value != ""
        and not _has_nested_unsafe(value)
        and value == value.strip()
    )


def _check_bool(value) -> bool:
    return type(value) is bool


_NESTED_UNSAFE = ("\t", "\n", ",", "(", ")", "{", "}")


def _has_nested_unsafe(value: str) -> bool:
    for ch in _NESTED_UNSAFE:
        if ch in value:
            return True
    return False


def _never(value) -> bool:
    return False


def _bag_checker(inner: Optional[Schema]) -> _FieldCheck:
    if inner is None:
        return _never  # untyped bags re-parse as raw string tuples
    inner_checks = []
    for fs in inner.fields:
        check = None if fs.dtype.is_nested else _scalar_checker(fs.dtype, nested=True)
        if check is None:
            return _never  # doubly nested text does not round-trip
        inner_checks.append(check)
    inner_checks = tuple(inner_checks)
    n_fields = len(inner_checks)

    def check_bag(value) -> bool:
        if not isinstance(value, Bag):
            return False
        for row in value.rows:
            if type(row) is not tuple or len(row) != n_fields:
                return False
            for v, check in zip(row, inner_checks):
                if v is not None and not check(v):
                    return False
        return True

    return check_bag
