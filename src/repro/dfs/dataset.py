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

The check runs on the write hot path and doubles as the write's byte
accounting, so it is written once, a *column* at a time: each schema
gets one handler per field (cached by schema) that reads a column's
exact-type set and sizes it in C-level passes — at every row count, for
files, bags and tuples alike.  These handlers are the one place the
round-trip rules live; the per-type size math is
:data:`repro.relational.tuples.COLUMN_SIZE`.
"""

from __future__ import annotations

import pickle
from functools import lru_cache, partial
from itertools import chain
from math import isnan
from operator import itemgetter
from typing import Callable, Optional, Sequence, Tuple

from repro.relational.schema import FieldSchema, Schema
from repro.relational.tuples import COLUMN_SIZE, Bag, Row, split_nulls
from repro.relational.types import DataType


class TypedDataset:
    """Parsed rows pinned to one inode, valid for one schema + generation.

    An append retires a dataset to its inode's ``prefixes``: it is
    still the parse of the file's first ``covers`` bytes, so the next
    reader parses only what follows them.

    A dataset may also hold the pickle of its rows, the form in which a
    file crosses a process pipe
    (:meth:`~repro.dfs.filesystem.DistributedFileSystem.export_file`).
    A dataset that arrived that way holds only the pickle until
    something reads :attr:`rows`, and one sent that way keeps its
    pickle, so a file forwarded again is not pickled twice.  Both live
    and die with the dataset, in the cache ``INode.invalidate_datasets``
    clears.
    """

    __slots__ = ("_rows", "_pickle", "schema_fp", "generation", "exact", "covers")

    def __init__(
        self,
        rows: Optional[Tuple[Row, ...]],
        schema_fp: tuple,
        generation: int,
        exact: bool = False,
        covers: Optional[int] = None,
        pickled: Optional[bytes] = None,
    ):
        self._rows = rows
        self._pickle = pickled
        self.schema_fp = schema_fp
        #: the inode generation this dataset was built at; a bump on
        #: write/append/delete/rename invalidates every pinned dataset
        self.generation = generation
        #: True when the file's payload bytes are exactly
        #: ``serialize_rows(rows)`` (writer-pinned datasets, clones of
        #: them, and shipped ones).  Parse-filled datasets are
        #: *canonical* — they round-trip — but their serialization may
        #: still differ from the original text (``"03"`` parses to
        #: ``3``, which renders as ``"3"``), so only exact datasets are
        #: eligible for serialized-payload reuse and for shipping.
        self.exact = exact
        #: byte length of the text these rows are the parse of, or None
        #: when that text does not end on a newline (an append would
        #: then grow its last row instead of adding rows after it)
        self.covers = covers

    @property
    def rows(self) -> Tuple[Row, ...]:
        """The rows; a dataset that holds only their pickle unpickles
        it here, once."""
        rows = self._rows
        if rows is None:
            rows = self._rows = pickle.loads(self._pickle)
        return rows

    def pickled(self) -> bytes:
        """The pickle of :attr:`rows`, made on the first call and kept."""
        if self._pickle is None:
            self._pickle = pickle.dumps(self._rows, pickle.HIGHEST_PROTOCOL)
        return self._pickle

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        held = "pickled" if self._rows is None else f"rows={len(self._rows)}"
        return f"TypedDataset({held}, generation={self.generation})"


def rows_are_canonical(rows: Sequence[Row], schema: Schema) -> bool:
    """True when *rows* survive a PigStorage round trip unchanged.

    ``deserialize_rows(serialize_rows(rows), schema) == rows`` — the
    Hypothesis property in ``tests/test_properties.py`` holds this
    function to that contract.
    """
    return _file_sizer(schema, True)(rows) is not None


def canonical_ascii_size(rows: Sequence[Row], schema: Schema) -> Optional[int]:
    """One-pass canonicality check + exact byte sizing.

    Returns the exact byte length of ``serialize_rows(rows).encode()``
    when the rows are canonical under *schema* **and** all-ASCII (so
    character counts are byte counts), else None.  This is the write
    hot path: one walk over the data decides pinning eligibility and
    does the byte-size accounting that lets text serialization be
    deferred.
    """
    return _file_sizer(schema, False)(rows)


# -- the column rules -----------------------------------------------------------
#
# Every field is checked and sized as a *column*: C-level
# map/set/sum passes plus substring scans over one joined text per
# string column, with bag fields flattened across every row of the
# write so even short bags amortize the setup.  A numeric column is
# sized through ``COLUMN_SIZE``'s process-wide memo of text lengths:
# each distinct number is rendered once, and the sum is exact because
# equal numbers of one exact type render alike (the float zeros, which
# do not, are never memoised).  A handler returns the column's size,
# or None when some value in it does not round-trip.

#: what nested text is split on, beyond a file's own tab and newline
_NESTED_UNSAFE = ("\t", "\n", ",", "(", ")", "{", "}")


@lru_cache(maxsize=512)
def _file_sizer(schema: Schema, any_charset: bool) -> Callable:
    """The sizer of a whole write under *schema*.  With ``any_charset``
    strings of any charset size — in characters — so ``is not None`` is
    the round-trip check alone."""
    handlers = tuple(_column_handler(fs, any_charset) for fs in schema.fields)
    return _columns_sizer(handlers, max(0, len(handlers) - 1) + 1)  # tabs + newline


def _columns_sizer(handlers: tuple, per_row: int) -> Callable:
    """Sum of ``per_row`` + the non-null fields over plain n-field
    tuples: what a file's rows, a bag's rows and a tuple share."""
    n_fields = len(handlers)

    def size_columns(rows):
        if not rows:
            return 0
        if set(map(type, rows)) != {tuple} or set(map(len, rows)) != {n_fields}:
            return None
        total = len(rows) * per_row
        for index, handler in enumerate(handlers):
            part = handler(list(map(itemgetter(index), rows)))
            if part is None:
                return None
            total += part
        return total

    return size_columns


def _column_handler(fs: FieldSchema, any_charset: bool) -> Callable:
    if not fs.dtype.is_nested:
        return _scalar_handler(fs.dtype, False, any_charset)
    if fs.inner is None or any(f.dtype.is_nested for f in fs.inner.fields):
        # never round-trips: without inner schema the text re-parses as
        # raw strings, and doubly nested text does not re-parse to what
        # was written
        return _col_all_null
    handlers = tuple(
        _scalar_handler(f.dtype, True, any_charset) for f in fs.inner.fields
    )
    size_tuples = _columns_sizer(handlers, 2 + max(0, len(handlers) - 1))  # ( , )
    if fs.dtype is DataType.TUPLE:
        # a tuple is a bag holding one row, minus the braces
        return lambda col: size_tuples([v for v in col if v is not None])

    def size_bag_column(col):
        col, types = split_nulls(col)
        if types - {Bag}:
            return None  # a Bag subclass included: its rendering is its own
        row_lists = [bag.rows for bag in col]
        # every inner tuple of the write, flattened
        part = size_tuples(list(chain.from_iterable(row_lists)))
        if part is None:
            return None
        lens = list(map(len, row_lists))
        # per bag: braces + (len - 1) commas when non-empty
        return part + 2 * len(lens) + sum(lens) - sum(map(bool, lens))

    return size_bag_column


def _scalar_handler(dtype: DataType, nested: bool, any_charset: bool) -> Callable:
    """The column rule of one scalar type; ``nested`` selects the
    stricter string rules of bag / tuple text."""
    if dtype is DataType.INT or dtype is DataType.LONG:
        return partial(_col_number, int)
    if dtype is DataType.FLOAT or dtype is DataType.DOUBLE:
        return partial(_col_number, float)
    if dtype is DataType.BOOLEAN:
        return partial(_col_number, bool)
    return partial(_col_str, nested=nested, any_charset=any_charset)


def _col_all_null(col):
    return None if split_nulls(col)[1] else 0


def _col_number(kind: type, col):
    """An int / float / bool column: exactly that type throughout (a
    bool in an int column, an int in a double column re-parse as the
    column's type)."""
    col, types = split_nulls(col)
    if not types:
        return 0
    if types != {kind}:
        return None
    if kind is float and any(map(isnan, col)):
        return None  # NaN re-parses to a value that is not == itself
    return COLUMN_SIZE[kind](col)


def _col_str(col, nested: bool, any_charset: bool):
    col, types = split_nulls(col)
    if not types:
        return 0
    if types != {str} or "" in col:
        return None  # "" re-parses as null
    joined = "".join(col)
    if not (any_charset or joined.isascii()):
        return None
    # tab / newline change field splitting; nested text is split on
    # commas, parens and braces too ...
    for ch in _NESTED_UNSAFE if nested else "\t\n":
        if ch in joined:
            return None
    # ... and whitespace-stripped by the nested parser (str.strip hands
    # an unchanged value back as the same object: no copy is made)
    if nested and col != list(map(str.strip, col)):
        return None
    return len(joined)
