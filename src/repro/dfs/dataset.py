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

Which shapes pin: scalar columns, and bag or tuple columns whose inner
schema holds scalars only (a GROUP's bag, a multi-key GROUP's key) —
nested values under the stricter *nested* scalar rules, because their
text is split on ``, ( ) { }`` and whitespace-stripped.  Which never
do: a nested column without inner schema (its text re-parses as raw
strings) or with a nested inner field (doubly nested text does not
round-trip); such a column is canonical only while every value in it
is null.

The check runs once per stored row on the write hot path, so it is
*compiled*: each schema gets a tuple of per-field closures (cached by
schema identity) doing bare ``type(...) is`` tests — no enum
dispatch, no attribute chasing, roughly the cost of a tuple scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from math import isnan
from operator import itemgetter
from typing import Callable, Optional, Tuple

from repro.relational.schema import FieldSchema, Schema
from repro.relational.tuples import Bag, Row, serialized_row_size
from repro.relational.types import DataType


@dataclass(eq=False)
class TypedDataset:
    """Parsed rows pinned to one inode, valid for one schema + generation.

    An append retires a dataset to its inode's ``prefixes``: it is
    still the parse of the file's first ``covers`` bytes, so the next
    reader parses only what follows them.
    """

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
    #: byte length of the text these rows are the parse of, or None
    #: when that text does not end on a newline (an append would then
    #: grow its last row instead of adding rows after it)
    covers: Optional[int] = None
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
    return _row_sizer(schema, False)(rows) is not None


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
    columnar pass cannot prove (untyped nested columns, Bag
    subclasses) use the compiled per-row closures; the two paths are
    value-identical.
    """
    if isinstance(rows, (list, tuple)) and len(rows) >= _COLUMNAR_MIN_ROWS:
        sizer = _columnar_sizer(schema)
        if sizer is not None:
            total = sizer(rows)
            if total is not _FALLBACK:
                return total
    return _row_sizer(schema)(rows)


_FieldSizer = Callable[[object], Optional[int]]


@lru_cache(maxsize=512)
def _row_sizer(schema: Schema, ascii_only: bool = True) -> _FieldSizer:
    """The compiled per-row sizer of a whole write (None = not
    canonical).  Without ``ascii_only`` strings of any charset size —
    in characters — so ``is not None`` is the round-trip check alone."""
    sizers = tuple(_field_sizer(fs, ascii_only) for fs in schema.fields)
    return _tuples_sizer(sizers, max(0, len(sizers) - 1) + 1)  # tabs + newline


def _tuples_sizer(sizers: Tuple[_FieldSizer, ...], per_row: int) -> _FieldSizer:
    """Sum of ``per_row`` + the non-null fields over plain n-field
    tuples: the loop a file's rows, a bag's rows and a tuple share."""
    n_fields = len(sizers)

    def size_tuples(rows) -> Optional[int]:
        total = 0
        for row in rows:
            if type(row) is not tuple or len(row) != n_fields:
                return None
            total += per_row
            for value, sizer in zip(row, sizers):
                if value is None:
                    continue
                field_size = sizer(value)
                if field_size is None:
                    return None
                total += field_size
        return total

    return size_tuples


def _field_sizer(fs: FieldSchema, ascii_only: bool) -> _FieldSizer:
    if not fs.dtype.is_nested:
        return _scalar_rules(fs.dtype, False, ascii_only)[0]
    rules = _nested_rules(fs, ascii_only)
    if rules is None:
        return _no_size
    sizers = tuple(rule[0] for rule in rules)
    size_tuples = _tuples_sizer(sizers, 2 + max(0, len(sizers) - 1))  # ( , )
    if fs.dtype is DataType.TUPLE:
        # a tuple is a bag holding one row, minus the braces
        return lambda value: size_tuples((value,))

    def size_bag(value) -> Optional[int]:
        if not isinstance(value, Bag):
            return None
        part = size_tuples(value.rows)
        if part is None:
            return None
        return part + 2 + max(0, len(value.rows) - 1)  # braces + commas

    return size_bag


def _nested_rules(fs: FieldSchema, ascii_only: bool = True) -> Optional[list]:
    """:func:`_scalar_rules` per inner field of a bag / tuple column,
    or None for a column that never round-trips: without inner schema
    its text re-parses as raw strings, and doubly nested text does not
    re-parse to what was written."""
    if fs.inner is None or any(f.dtype.is_nested for f in fs.inner.fields):
        return None
    return [_scalar_rules(f.dtype, True, ascii_only) for f in fs.inner.fields]


def _scalar_rules(dtype: DataType, nested: bool, ascii_only: bool = True) -> tuple:
    """(per-value sizer, whole-column sizer) of one scalar type: the
    one per-type table of the round-trip rules.  ``nested`` selects
    the stricter string rules of bag / tuple text."""
    if dtype is DataType.INT or dtype is DataType.LONG:
        return _size_int, _col_int
    if dtype is DataType.FLOAT or dtype is DataType.DOUBLE:
        return _size_float, _col_float
    if dtype is DataType.BOOLEAN:
        return _size_bool, _col_bool
    size = _size_nested_str if nested else _size_str
    if not ascii_only:
        size = partial(size, any_charset=True)
    return size, _col_nested_str if nested else _col_str


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
    # NaN re-parses to a value that is not == to itself
    if type(value) is float and value == value:
        return len(repr(value))
    return None


def _size_str(value, any_charset: bool = False) -> Optional[int]:
    # "" re-parses as null; tab/newline change field splitting
    if type(value) is str and value != "" and (any_charset or value.isascii()):
        if "\t" not in value and "\n" not in value:
            return len(value)
    return None


def _size_nested_str(value, any_charset: bool = False) -> Optional[int]:
    # nested text is split on commas/parens/braces and
    # whitespace-stripped by the nested parser
    if (
        type(value) is str
        and value != ""
        and (any_charset or value.isascii())
        and not _has_nested_unsafe(value)
        # strip-stability without allocating the stripped copy: the
        # value is non-empty, so whitespace at either end is exactly
        # what .strip() would remove
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


_NESTED_UNSAFE = ("\t", "\n", ",", "(", ")", "{", "}")


def _has_nested_unsafe(value: str) -> bool:
    for ch in _NESTED_UNSAFE:
        if ch in value:
            return True
    return False


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
    """A whole-write columnar sizer, or None if *schema* has a column
    (untyped or doubly nested) that only the closure path handles."""
    handlers = tuple(_column_handler(fs) for fs in schema.fields)
    if None in handlers:
        return None
    return _columns_sizer(handlers, max(0, len(handlers) - 1) + 1)  # tabs + newline


def _columns_sizer(handlers: tuple, per_row: int) -> Callable:
    """:func:`_tuples_sizer`, a column at a time."""
    n_fields = len(handlers)

    def size_columns(rows):
        if not rows:
            return 0
        if set(map(type, rows)) != {tuple} or set(map(len, rows)) != {n_fields}:
            return None  # exact: the closures demand n-field tuples
        total = len(rows) * per_row
        for index, handler in enumerate(handlers):
            part = handler(list(map(itemgetter(index), rows)))
            if part is None or part is _FALLBACK:
                return part
            total += part
        return total

    return size_columns


def _column_handler(fs: FieldSchema) -> Optional[Callable]:
    if not fs.dtype.is_nested:
        return _scalar_rules(fs.dtype, False)[1]
    rules = _nested_rules(fs)
    if rules is None:
        return None
    handlers = tuple(rule[1] for rule in rules)
    size_tuples = _columns_sizer(handlers, 2 + max(0, len(handlers) - 1))  # ( , )
    if fs.dtype is DataType.TUPLE:
        return lambda col: size_tuples([v for v in col if v is not None])

    def size_bag_column(col):
        col, types = _split_nulls(col)
        if types - {Bag}:
            if all(issubclass(t, Bag) for t in types):
                return _FALLBACK  # the closures accept Bag subclasses
            return None
        row_lists = [bag.rows for bag in col]
        # every inner tuple of the write, flattened
        part = size_tuples(list(chain.from_iterable(row_lists)))
        if part is None:
            return None
        lens = list(map(len, row_lists))
        # per bag: braces + (len - 1) commas when non-empty
        return part + 2 * len(lens) + sum(lens) - sum(map(bool, lens))

    return size_bag_column


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
